// Per-layer decomposition for the traced run: re-run one deck through each
// analysis layer's public entry points, one span per layer, so the layers
// inside Session::load / analyzeParallel get their own wall time without
// any instrumentation in the library itself.

#include "layers.h"

#include <algorithm>
#include <memory>

#include "cfg/control_dep.h"
#include "cfg/dominators.h"
#include "cfg/flow_graph.h"
#include "dataflow/constants.h"
#include "dataflow/liveness.h"
#include "dataflow/reaching.h"
#include "dependence/graph.h"
#include "fortran/parser.h"
#include "interproc/summaries.h"
#include "ir/model.h"
#include "support/diagnostics.h"

namespace perfbench {

void decomposeDeck(std::string_view source, bool withGraphs, Tracer& tr,
                   LayerCounters& c) {
  Scope root(tr, "analysis.layers");
  ps::DiagnosticEngine diags;
  std::unique_ptr<ps::fortran::Program> program;
  {
    Scope s(tr, "fortran.parse");
    program = ps::fortran::parseSource(source, diags);
  }
  c.linesParsed += std::count(source.begin(), source.end(), '\n');
  if (!program || program->units.empty()) return;

  std::unique_ptr<ps::interproc::SummaryBuilder> summaries;
  {
    Scope s(tr, "interproc.summarize");
    summaries = std::make_unique<ps::interproc::SummaryBuilder>(*program);
  }
  if (!withGraphs) return;

  // A private memo per deck: every dependence test is a cold miss, as in a
  // first open.
  auto memo = std::make_shared<ps::dep::DepMemo>();
  for (const auto& unit : program->units) {
    ps::ir::ProcedureModel model(*unit);
    // The context Session::makeContext builds: the callers' constants and
    // relations seed constant propagation, symbolic analysis and the memo
    // signature, so the decomposed build runs the session's analysis.
    ps::interproc::InterproceduralOracle oracle(*summaries, *unit);
    ps::dep::AnalysisContext ctx;
    ctx.oracle = &oracle;
    ctx.inheritedConstants = summaries->inheritedConstantsFor(unit->name);
    ctx.inheritedRelations = summaries->inheritedRelationsFor(unit->name);
    ctx.memo = memo;
    ps::dataflow::ConstEnv entryEnv;
    for (const auto& [name, v] : ctx.inheritedConstants) {
      entryEnv[name] = ps::dataflow::ConstVal::ofInt(v);
    }
    std::unique_ptr<ps::cfg::FlowGraph> flow;
    {
      Scope s(tr, "cfg.build");
      flow = std::make_unique<ps::cfg::FlowGraph>(
          ps::cfg::FlowGraph::build(model));
      (void)ps::cfg::DominatorTree::dominators(*flow);
      (void)ps::cfg::DominatorTree::postDominators(*flow);
      (void)ps::cfg::ControlDependence::build(*flow);
    }
    {
      Scope s(tr, "dataflow.build");
      (void)ps::dataflow::ReachingDefs::build(*flow, model);
      (void)ps::dataflow::Liveness::build(*flow, model);
      (void)ps::dataflow::ConstantAnalysis::build(*flow, model, entryEnv);
    }
    {
      Scope s(tr, "dependence.build");
      (void)ps::dep::DependenceGraph::build(model, ctx);
    }
  }
}

}  // namespace perfbench
