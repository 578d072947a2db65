#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string_view>

#include "bench.h"

namespace perfbench {

/// Traced-run decomposition of one deck: fortran::parseSource and the
/// interproc::SummaryBuilder constructor, then (with `withGraphs`) per
/// procedure the CFG (FlowGraph, dominators, post-dominators, control
/// dependence), the dataflow analyses (reaching definitions, liveness,
/// constants) and DependenceGraph::build on a cold private memo. All under
/// one "analysis.layers" span so per-deck figures can be derived.
void decomposeDeck(std::string_view source, bool withGraphs, Tracer& tr,
                   LayerCounters& c);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
