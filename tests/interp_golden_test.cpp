// Interpreter equivalence suite: pinned digests of complete interpreter runs.
//
// Each digest covers everything a run produces: ok/error text, error
// location and statement, STOP statement, output values (bit patterns),
// steps, per-statement execution counts and races with their iterations;
// for traced runs also the whole trace (events, iteration-context nodes,
// element names, suspected uninitialized reads and the budget flags).
// The pins were computed on the name-keyed interpreter that preceded the
// slot-resolved one, so any change to src/interp that moves a single event,
// count or message fails here.
//
// Per deck (marked the way the validate-emit benchmark marks it), four
// runs: a serial traced run; one trace-recording run with every marked loop
// PARALLEL at once (nested race contexts); three shuffled schedules per
// marked loop with the emission plan's clauses, every other loop forced
// sequential through RunOptions::onlyParallel exactly as relative
// validation does; and a tiny-budget traced run that overflows the event,
// node and element caps. One Machine serves all runs of a deck, and the
// schedules are run a second time concurrently on it through a 4-wide
// TaskPool, which must reproduce the same digest. Small hand-written decks
// pin the edge paths.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "emit/emit.h"
#include "fortran/parser.h"
#include "interp/machine.h"
#include "interp/trace.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/taskpool.h"
#include "workloads/emission_driver.h"
#include "workloads/workloads.h"

namespace ps::interp {
namespace {

/// Length-prefixed binary serialization of run results, hashed with xxh64.
class Digest {
 public:
  void u64(std::uint64_t v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_ += s;
  }

  void run(const RunResult& r) {
    u64(r.ok ? 1 : 0);
    str(r.error);
    i64(r.errorLoc.line);
    i64(r.errorLoc.column);
    u64(r.errorStmt);
    u64(r.stopStmt);
    u64(r.output.size());
    for (double v : r.output) f64(v);
    i64(r.steps);
    u64(r.stmtCounts.size());
    for (const auto& [id, n] : r.stmtCounts) {
      u64(id);
      i64(n);
    }
    u64(r.races.size());
    for (const Race& race : r.races) {
      u64(race.loop);
      str(race.variable);
      i64(race.iterationA);
      i64(race.iterationB);
      u64(race.outputOnly ? 1 : 0);
    }
  }

  void trace(const Trace& t) {
    u64(t.events.size());
    for (const TraceEvent& e : t.events) {
      u64(e.stmt);
      u64(e.element);
      i64(e.ctx);
      u64(e.isWrite ? 1 : 0);
    }
    u64(t.nodes.size());
    for (const IterNode& n : t.nodes) {
      i64(n.parent);
      u64(n.loop);
      i64(n.iter);
    }
    u64(t.elementVar.size());
    for (const std::string& v : t.elementVar) str(v);
    u64(t.uninitReads.size());
    for (const UninitRead& u : t.uninitReads) {
      u64(u.stmt);
      str(u.variable);
    }
    i64(t.uninitReadCount);
    u64(t.eventsOverflowed ? 1 : 0);
    u64(t.elementsSaturated ? 1 : 0);
    i64(t.eventsDropped);
  }

  [[nodiscard]] std::uint64_t hash() const { return support::xxh64(buf_); }

 private:
  std::string buf_;
};

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// The eight workshop decks
// ---------------------------------------------------------------------------

struct DeckPins {
  std::uint64_t serialTraced;
  std::uint64_t allParallelTraced;
  std::uint64_t schedules;
  std::uint64_t tinyBudget;
};

const std::map<std::string, DeckPins>& deckPins() {
  static const std::map<std::string, DeckPins> pins = {
      {"arc3d",
       {0x8901d4ac92e09a43, 0x28a391669356a7d0,
        0x8b0bc40e1bb801fa, 0x403ee5ed88f9fd0e}},
      {"dpmin",
       {0xf075025fdfda33f4, 0xca81d0b28a595d24,
        0xc65b0aee482a064f, 0x9191289b35cbb023}},
      {"neoss",
       {0x30da3ac491972157, 0x1233ce3792f1c784,
        0x057febbde5e67c6a, 0x04f060675df0ed68}},
      {"nxsns",
       {0x5085e58613b36919, 0xe6ea29a3df9bc41a,
        0x4717d41dfb3b53df, 0xa2ff1b80c2df434a}},
      {"pueblo3d",
       {0x8b3db35088a4fffa, 0xca9f4450966e5fda,
        0x0e0af5efc1882b31, 0xf07dd57123192542}},
      {"slab2d",
       {0x98a0d3e5ead4a6a7, 0xf5caee15a920dde4,
        0xdcd9979ab189f0fc, 0x45a6422feee9e215}},
      {"slalom",
       {0x69793c62640da603, 0x6615524718d9e899,
        0x132df49d4986d341, 0x83dd3874f204cd99}},
      {"spec77",
       {0x5124a000c399184d, 0xbc92e21810bb7651,
        0x0ed14b64121860d7, 0xaa00ddb5ecb8c3d1}},
  };
  return pins;
}

constexpr long long kMaxSteps = 20'000'000;

class GoldenDecks : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenDecks, RunsMatchPinnedDigests) {
  const workloads::Workload* w = workloads::byName(GetParam());
  ASSERT_NE(w, nullptr);
  DiagnosticEngine diags;
  auto s = ped::Session::load(w->source, diags);
  ASSERT_TRUE(s && !diags.hasErrors()) << diags.dump();
  s->setDeckName(w->name);
  (void)workloads::markParallelLoops(*s, /*forceAllLoops=*/true);

  // The emission plan supplies every marked loop and its clause set.
  emit::EmitOptions eo;
  eo.relativeValidation = false;
  eo.roundTrip = false;
  const emit::EmissionReport plan = s->emitOpenMP(eo);
  ASSERT_TRUE(plan.ran) << plan.error;
  ASSERT_FALSE(plan.loops.empty());

  const fortran::Program& program = s->program();
  bool anyMarked = false;
  for (const auto& u : program.units) {
    u->forEachStmt(
        [&](const fortran::Stmt& st) { anyMarked |= st.isParallel; });
  }
  ASSERT_TRUE(anyMarked);

  const Machine m(program);
  DeckPins got{};

  {
    Trace trace;
    RunOptions o;
    o.checkParallel = false;
    o.maxSteps = kMaxSteps;
    o.trace = &trace;
    const RunResult r = m.run(o);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(trace.complete());
    Digest d;
    d.run(r);
    d.trace(trace);
    got.serialTraced = d.hash();
  }
  {
    Trace trace;
    RunOptions o;
    o.maxSteps = kMaxSteps;
    o.trace = &trace;
    const RunResult r = m.run(o);
    Digest d;
    d.run(r);
    d.trace(trace);
    got.allParallelTraced = d.hash();
  }
  {
    auto scheduleOptions = [](const emit::LoopEmission& le, int k) {
      RunOptions o;
      o.maxSteps = kMaxSteps;
      o.onlyParallel = le.loop;
      o.shuffleSeed = 12345u + 0x9e3779b9u * static_cast<unsigned>(k + 1);
      o.parallelClauses[le.loop] = le.interpClauses;
      return o;
    };
    Digest d;
    for (const emit::LoopEmission& le : plan.loops) {
      ASSERT_TRUE(m.hasLoop(le.loop)) << "loop " << le.loop;
      for (int k = 0; k < 3; ++k) {
        const RunOptions o = scheduleOptions(le, k);
        const RunResult r = m.run(o);
        d.u64(le.loop);
        d.run(r);
        if (k == 0) {
          // A fresh machine agrees with the reused one.
          const Machine fresh(program);
          Digest a, b;
          a.run(r);
          b.run(fresh.run(o));
          EXPECT_EQ(a.hash(), b.hash()) << "loop " << le.loop;
        }
      }
    }
    got.schedules = d.hash();

    // The same schedules, all at once on the one Machine.
    std::vector<RunResult> runs(plan.loops.size() * 3);
    std::vector<std::function<void()>> thunks;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      thunks.push_back([&, i] {
        runs[i] = m.run(scheduleOptions(plan.loops[i / 3],
                                        static_cast<int>(i % 3)));
      });
    }
    support::TaskPool pool(4);
    pool.runAll(std::move(thunks));
    Digest c;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      c.u64(plan.loops[i / 3].loop);
      c.run(runs[i]);
    }
    EXPECT_EQ(c.hash(), got.schedules) << "concurrent schedules";
  }
  {
    Trace trace;
    trace.limits.maxEvents = 300;
    trace.limits.maxElements = 40;
    RunOptions o;
    o.checkParallel = false;
    o.maxSteps = kMaxSteps;
    o.trace = &trace;
    const RunResult r = m.run(o);
    EXPECT_FALSE(trace.complete());
    Digest d;
    d.run(r);
    d.trace(trace);
    got.tinyBudget = d.hash();
  }

  const DeckPins& want = deckPins().at(w->name);
  EXPECT_EQ(got.serialTraced, want.serialTraced)
      << "serial traced " << hex(got.serialTraced);
  EXPECT_EQ(got.allParallelTraced, want.allParallelTraced)
      << "all-parallel traced " << hex(got.allParallelTraced);
  EXPECT_EQ(got.schedules, want.schedules)
      << "schedules " << hex(got.schedules);
  EXPECT_EQ(got.tinyBudget, want.tinyBudget)
      << "tiny budget " << hex(got.tinyBudget);
}

INSTANTIATE_TEST_SUITE_P(All, GoldenDecks,
                         ::testing::Values("arc3d", "dpmin", "neoss", "nxsns",
                                           "pueblo3d", "slab2d", "slalom",
                                           "spec77"));

// ---------------------------------------------------------------------------
// Edge paths on small decks
// ---------------------------------------------------------------------------

/// Digest of a serial traced run of `src` followed by three checked
/// (shuffled, race-detecting) traced runs under different seeds, all on one
/// Machine. `clausesFor` maps the n-th DO statement (pre-order, 0-based) to
/// its clause set.
std::uint64_t edgeDigest(const char* src, long long maxSteps,
                         const std::vector<double>& input,
                         const std::map<int, LoopClauses>& clausesFor,
                         std::string* error) {
  DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  if (!prog || diags.hasErrors()) {
    *error = diags.dump();
    return 0;
  }
  std::vector<fortran::StmtId> doIds;
  for (const auto& u : prog->units) {
    u->forEachStmt([&](const fortran::Stmt& st) {
      if (st.kind == fortran::StmtKind::Do) doIds.push_back(st.id);
    });
  }
  RunOptions base;
  base.maxSteps = maxSteps;
  base.input = input;
  for (const auto& [n, c] : clausesFor) {
    if (n >= static_cast<int>(doIds.size())) {
      *error = "no DO statement #" + std::to_string(n);
      return 0;
    }
    base.parallelClauses[doIds[static_cast<std::size_t>(n)]] = c;
  }
  Machine m(*prog);
  Digest d;
  for (int variant = 0; variant < 4; ++variant) {
    Trace trace;
    RunOptions o = base;
    o.trace = &trace;
    o.checkParallel = variant > 0;
    o.shuffleSeed = 12345u + 977u * static_cast<unsigned>(variant);
    d.run(m.run(o));
    d.trace(trace);
  }
  return d.hash();
}

/// An outer PARALLEL DO whose body calls a subroutine that RETURNs out of
/// its own PARALLEL DO: the outer loop must still report its races.
constexpr char kReturnInsideNestedParallel[] =
    "      PROGRAM RN\n"
    "      DIMENSION B(6)\n"
    "      S = 0.0\n"
    "      PARALLEL DO J = 1, 6\n"
    "        S = S + 1.0\n"
    "        B(1) = B(1) + J\n"
    "        CALL EARLY(B, J)\n"
    "      ENDDO\n"
    "      WRITE(6, *) S, B(1)\n"
    "      END\n"
    "      SUBROUTINE EARLY(V, J)\n"
    "      DIMENSION V(6)\n"
    "      PARALLEL DO K = 1, 6\n"
    "        V(K) = V(K) + 1.0\n"
    "        IF (K .EQ. J) RETURN\n"
    "      ENDDO\n"
    "      END\n";

struct Edge {
  const char* name;
  const char* source;
  long long maxSteps = 100'000;
  std::vector<double> input = {};
  std::map<int, LoopClauses> clauses = {};
};

const std::vector<Edge>& edges() {
  static const std::vector<Edge> e = {
      {"out_of_range",
       "      PROGRAM OOB\n"
       "      DIMENSION A(10)\n"
       "      DO 10 I = 1, 11\n"
       "        A(I) = I\n"
       "   10 CONTINUE\n"
       "      END\n"},
      {"beyond_storage",
       "      PROGRAM AS\n"
       "      DIMENSION A(5)\n"
       "      CALL S(A)\n"
       "      END\n"
       "      SUBROUTINE S(X)\n"
       "      DIMENSION X(*)\n"
       "      X(3) = 1.0\n"
       "      X(6) = 2.0\n"
       "      END\n"},
      {"step_limit",
       "      PROGRAM SL\n"
       "      S = 0.0\n"
       "      DO I = 1, 1000\n"
       "        S = S + I\n"
       "      ENDDO\n"
       "      WRITE(6, *) S\n"
       "      END\n",
       /*maxSteps=*/50},
      {"zero_step_int",
       "      PROGRAM ZS\n"
       "      K = 0\n"
       "      DO I = 1, 5, K\n"
       "        WRITE(6, *) I\n"
       "      ENDDO\n"
       "      END\n"},
      {"zero_step_real",
       "      PROGRAM ZR\n"
       "      H = 0.0\n"
       "      S = 0.0\n"
       "      DO X = 0.5, 2.5, 0.5\n"
       "        S = S + X\n"
       "      ENDDO\n"
       "      WRITE(6, *) S, X\n"
       "      DO Y = 1.0, 2.0, H\n"
       "        S = S + Y\n"
       "      ENDDO\n"
       "      END\n"},
      {"goto_out_of_parallel_and_reentry",
       "      PROGRAM GT\n"
       "      DIMENSION A(20)\n"
       "      N = 0\n"
       "    5 CONTINUE\n"
       "      PARALLEL DO 10 I = 1, 10\n"
       "        A(I) = I + N\n"
       "        IF (I .EQ. 4) GOTO 20\n"
       "   10 CONTINUE\n"
       "   20 N = N + 1\n"
       "      IF (N .LT. 3) GOTO 5\n"
       "      PARALLEL DO 30 J = 1, 6\n"
       "        S = S + A(J)\n"
       "   30 CONTINUE\n"
       "      WRITE(6, *) N, A(1), A(4), S\n"
       "      END\n"},
      {"lastprivate_declared_but_unused",
       "      PROGRAM LD\n"
       "      PARAMETER (NW = 3)\n"
       "      COMMON /C/ CW(NW)\n"
       "      DIMENSION A(4), W(M + 2)\n"
       "      M = 2\n"
       "      PARALLEL DO I = 1, 4\n"
       "        A(I) = I\n"
       "      ENDDO\n"
       "      WRITE(6, *) A(4)\n"
       "      CALL USE\n"
       "      END\n"
       "      SUBROUTINE USE\n"
       "      COMMON /C/ CW(5)\n"
       "      CW(2) = 1.0\n"
       "      WRITE(6, *) CW(2)\n"
       "      END\n",
       100'000,
       {},
       {{0, {{}, {"W", "CW", "NW"}}}}},
      {"lastprivate_copy_out",
       "      PROGRAM LP\n"
       "      DIMENSION A(10)\n"
       "      PARALLEL DO I = 1, 10\n"
       "        T = I * 2\n"
       "        A(I) = T\n"
       "      ENDDO\n"
       "      WRITE(6, *) T, A(10), Q\n"
       "      PARALLEL DO J = 1, 4\n"
       "        U = J\n"
       "      ENDDO\n"
       "      WRITE(6, *) U\n"
       "      END\n",
       100'000,
       {},
       {{0, {{"T"}, {"T", "ZZ"}}}, {1, {{"U"}, {}}}}},
      {"function_result",
       "      PROGRAM FR\n"
       "      Y = F(3.0) + G(2) + FLOAT(K(4))\n"
       "      WRITE(6, *) Y\n"
       "      END\n"
       "      FUNCTION F(X)\n"
       "      F = X * X\n"
       "      END\n"
       "      FUNCTION G(N)\n"
       "      IF (N .GT. 100) G = 1.0\n"
       "      END\n"
       "      INTEGER FUNCTION K(N)\n"
       "      K = N / 3\n"
       "      END\n"},
      {"array_element_actual_aliasing",
       "      PROGRAM AL\n"
       "      DIMENSION A(4, 4)\n"
       "      DO J = 1, 4\n"
       "        CALL INIT(A(1, J), 4, J)\n"
       "      ENDDO\n"
       "      CALL SWAP(A(2, 2), A(2, 2))\n"
       "      CALL SWAP(A(1, 3), A(4, 4))\n"
       "      WRITE(6, *) A(1, 1), A(4, 4), A(2, 2), A(1, 3)\n"
       "      END\n"
       "      SUBROUTINE INIT(COL, N, J)\n"
       "      DIMENSION COL(N)\n"
       "      DO I = 1, N\n"
       "        COL(I) = I + 10 * J\n"
       "      ENDDO\n"
       "      END\n"
       "      SUBROUTINE SWAP(X, Y)\n"
       "      T = X\n"
       "      X = Y + 1.0\n"
       "      Y = T\n"
       "      END\n"},
      {"formal_dims_read_other_formals",
       "      PROGRAM FD\n"
       "      DIMENSION B(3, 4), C(0:5)\n"
       "      CALL FILL(4, B, 3, C, 5)\n"
       "      WRITE(6, *) B(3, 4), B(1, 1), C(0), C(5)\n"
       "      END\n"
       "      SUBROUTINE FILL(M, X, N, Y, K)\n"
       "      DIMENSION X(N, M), Y(0:K)\n"
       "      DO J = 1, M\n"
       "        DO I = 1, N\n"
       "          X(I, J) = I * 100 + J\n"
       "        ENDDO\n"
       "      ENDDO\n"
       "      DO L = 0, K\n"
       "        Y(L) = L + M + N\n"
       "      ENDDO\n"
       "      END\n"},
      {"common_first_touched_in_callee",
       "      PROGRAM CM\n"
       "      PARAMETER (NP = 5)\n"
       "      COMMON /BLK/ X(NP), K\n"
       "      CALL SETUP\n"
       "      WRITE(6, *) X(3), K\n"
       "      CALL BUMP\n"
       "      WRITE(6, *) X(5), K\n"
       "      END\n"
       "      SUBROUTINE SETUP\n"
       "      PARAMETER (NP = 5)\n"
       "      COMMON /BLK/ X(NP), K\n"
       "      K = 7\n"
       "      DO I = 1, NP\n"
       "        X(I) = I * 1.5\n"
       "      ENDDO\n"
       "      END\n"
       "      SUBROUTINE BUMP\n"
       "      COMMON /BLK/ X(5), K\n"
       "      PARALLEL DO I = 1, 5\n"
       "        X(I) = X(I) + K\n"
       "      ENDDO\n"
       "      END\n"},
      {"common_created_while_evaluating_its_bounds",
       "      PROGRAM CB\n"
       "      COMMON /B/ X(NF(2))\n"
       "      X(3) = X(3) + 1.0\n"
       "      WRITE(6, *) X(1), X(3)\n"
       "      END\n"
       "      FUNCTION NF(K)\n"
       "      COMMON /B/ X(4)\n"
       "      X(1) = 7.0\n"
       "      NF = K + 1\n"
       "      END\n"},
      {"runtime_errors_undefined_function",
       "      PROGRAM UF\n"
       "      Y = 1.0\n"
       "      Y = Y + NOSUCH(Y)\n"
       "      END\n"},
      {"runtime_errors_undefined_subroutine",
       "      PROGRAM US\n"
       "      Y = 1.0\n"
       "      CALL NOSUCH(Y)\n"
       "      END\n"},
      {"runtime_errors_unknown_extent",
       "      PROGRAM UE\n"
       "      DIMENSION W(*)\n"
       "      Y = 2.0\n"
       "      W(1) = Y\n"
       "      END\n"},
      {"runtime_errors_division",
       "      PROGRAM DZ\n"
       "      K = 3\n"
       "      L = MOD(K, 2)\n"
       "      M = K / (L - 1)\n"
       "      END\n"},
      {"races_nested_common_and_temps",
       "      PROGRAM RC\n"
       "      DIMENSION A(6, 6), B(6)\n"
       "      COMMON /C/ TOT\n"
       "      PARALLEL DO J = 1, 6\n"
       "        PARALLEL DO I = 1, 6\n"
       "          A(I, J) = I + J\n"
       "          S = S + A(I, J)\n"
       "        ENDDO\n"
       "        B(J) = B(1) + 1.0\n"
       "        TOT = TOT + G(FLOAT(J), B(J))\n"
       "      ENDDO\n"
       "      PARALLEL DO X = 1.0, 3.0, 0.5\n"
       "        A(1, 1) = A(1, 1) + X\n"
       "      ENDDO\n"
       "      WRITE(6, *) S, B(6), TOT, A(1, 1), X\n"
       "      END\n"
       "      FUNCTION G(P, Q)\n"
       "      COMMON /C/ TOT\n"
       "      G = P + Q + TOT\n"
       "      END\n",
       100'000,
       {},
       {{1, {{"S"}, {}}}}},
      {"return_inside_parallel",
       "      PROGRAM RT\n"
       "      DIMENSION B(6)\n"
       "      DO J = 1, 6\n"
       "        CALL EARLY(B, J)\n"
       "      ENDDO\n"
       "      PARALLEL DO J = 1, 6\n"
       "        B(J) = B(1) + 1.0\n"
       "      ENDDO\n"
       "      WRITE(6, *) B(6)\n"
       "      STOP\n"
       "      END\n"
       "      SUBROUTINE EARLY(V, J)\n"
       "      DIMENSION V(6)\n"
       "      PARALLEL DO K = 1, 6\n"
       "        V(K) = V(K) + 1.0\n"
       "        IF (K .EQ. J) RETURN\n"
       "      ENDDO\n"
       "      END\n"},
      {"return_inside_nested_parallel", kReturnInsideNestedParallel},
      {"read_input_uninit_and_parameter",
       "      PROGRAM RI\n"
       "      PARAMETER (N = 4, H = 0.5)\n"
       "      DIMENSION A(N)\n"
       "      READ(5, *) X, A(2)\n"
       "      DO I = 1, N\n"
       "        A(I) = A(I) + X * H + Z\n"
       "      ENDDO\n"
       "      IF (A(1) - 3.0) 40, 50, 60\n"
       "   40 WRITE(6, *) 'neg', A(1)\n"
       "      GOTO 70\n"
       "   50 WRITE(6, *) 'zero', A(1)\n"
       "      GOTO 70\n"
       "   60 WRITE(6, *) 'pos', A(1)\n"
       "   70 CONTINUE\n"
       "      CALL TWO(1.5, 2)\n"
       "      CALL ONE(7.0)\n"
       "      WRITE(6, *) ABS(-3), SQRT(16.0), MAX(1, 2.5), MIN0(4, 2)\n"
       "      WRITE(6, *) ATAN2(1.0, 2.0), SIGN(2.0, -1.0), ISIGN(3, -1)\n"
       "      WRITE(6, *) DIM(5.0, 2.0), IDIM(2, 5), NINT(2.5),"
       " AMOD(7.5, 2.0)\n"
       "      END\n"
       "      SUBROUTINE TWO(P, M)\n"
       "      WRITE(6, *) P * M\n"
       "      END\n"
       "      SUBROUTINE ONE(P, M)\n"
       "      WRITE(6, *) P, M\n"
       "      M = 3\n"
       "      END\n",
       100'000,
       {2.0, -1.25}},
  };
  return e;
}

const std::map<std::string, std::uint64_t>& edgePins() {
  static const std::map<std::string, std::uint64_t> pins = {
      {"out_of_range", 0x19914cc0d00af759},
      {"beyond_storage", 0xb02aedcc4950d759},
      {"step_limit", 0x927ec82953458bf2},
      {"zero_step_int", 0x884b053afd4186be},
      {"zero_step_real", 0x2548acde9f8b8756},
      {"goto_out_of_parallel_and_reentry", 0xed520c121da70e47},
      {"lastprivate_declared_but_unused", 0x96f3473fc01414e5},
      {"lastprivate_copy_out", 0xd2777a968ca2fe87},
      {"function_result", 0xfac9117addaa564f},
      {"array_element_actual_aliasing", 0xf36974282e941592},
      {"formal_dims_read_other_formals", 0xaa6b515f11a520ff},
      {"common_first_touched_in_callee", 0x7e2e95707f30304a},
      {"common_created_while_evaluating_its_bounds", 0x3a45c03a7355e1d2},
      {"runtime_errors_undefined_function", 0x406a5a49511ee1ae},
      {"runtime_errors_undefined_subroutine", 0xee89e0e6501bc13b},
      {"runtime_errors_unknown_extent", 0x2301b619c0c08642},
      {"runtime_errors_division", 0xfcaa225beca04a6d},
      {"races_nested_common_and_temps", 0xf61fae297132dcc9},
      {"return_inside_parallel", 0xcddfb2128455827a},
      {"return_inside_nested_parallel", 0x617baa210a035cc9},
      {"read_input_uninit_and_parameter", 0x1bcbf55371ec1025},
  };
  return pins;
}

TEST(GoldenEdges, RunsMatchPinnedDigests) {
  ASSERT_EQ(edges().size(), edgePins().size());
  for (const Edge& e : edges()) {
    std::string error;
    const std::uint64_t h =
        edgeDigest(e.source, e.maxSteps, e.input, e.clauses, &error);
    ASSERT_TRUE(error.empty()) << e.name << ": " << error;
    EXPECT_EQ(h, edgePins().at(e.name)) << e.name << " " << hex(h);
  }
}

/// Variables the races of the first DO loop (the outer PARALLEL DO J) name.
std::set<std::string> outerRaceVariables(const std::string& src) {
  DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  EXPECT_TRUE(prog && !diags.hasErrors()) << diags.dump();
  if (!prog) return {};
  fortran::StmtId outer = fortran::kInvalidStmt;
  prog->units.front()->forEachStmt([&](const fortran::Stmt& st) {
    if (st.kind == fortran::StmtKind::Do && outer == fortran::kInvalidStmt) {
      outer = st.id;
    }
  });
  const RunResult r = Machine(*prog).run();
  EXPECT_TRUE(r.ok) << r.error;
  std::set<std::string> vars;
  for (const Race& race : r.races) {
    if (race.loop == outer) vars.insert(race.variable);
  }
  return vars;
}

TEST(GoldenEdges, ReturnFromNestedParallelKeepsOuterRaces) {
  std::string noReturn = kReturnInsideNestedParallel;
  const std::string early = "        IF (K .EQ. J) RETURN\n";
  noReturn.replace(noReturn.find(early), early.size(),
                   "        IF (K .EQ. J) V(K) = V(K)\n");
  const std::set<std::string> want = outerRaceVariables(noReturn);
  EXPECT_TRUE(want.count("S") && want.count("B"));
  EXPECT_EQ(outerRaceVariables(kReturnInsideNestedParallel), want);
}

/// The messages the edge decks pin by hash, spelled out so a mismatch
/// names the text that changed.
TEST(GoldenEdges, RuntimeErrorText) {
  auto errorOf = [](const char* name) {
    for (const Edge& e : edges()) {
      if (std::string(e.name) != name) continue;
      DiagnosticEngine diags;
      auto prog = fortran::parseSource(e.source, diags);
      Machine m(*prog);
      RunOptions o;
      o.maxSteps = e.maxSteps;
      return m.run(o).error;
    }
    return std::string("no such edge deck");
  };
  EXPECT_EQ(errorOf("out_of_range"), "subscript out of range for A: 11");
  EXPECT_EQ(errorOf("beyond_storage"), "subscript beyond storage of X");
  EXPECT_EQ(errorOf("step_limit"), "step limit exceeded");
  EXPECT_EQ(errorOf("zero_step_int"), "zero DO step");
  EXPECT_EQ(errorOf("zero_step_real"), "zero DO step");
  EXPECT_EQ(errorOf("runtime_errors_undefined_function"),
            "call to undefined function NOSUCH");
  EXPECT_EQ(errorOf("runtime_errors_undefined_subroutine"),
            "call to undefined subroutine NOSUCH");
  EXPECT_EQ(errorOf("runtime_errors_unknown_extent"),
            "local array W has unknown extent");
  EXPECT_EQ(errorOf("runtime_errors_division"), "integer division by zero");
}

}  // namespace
}  // namespace ps::interp
