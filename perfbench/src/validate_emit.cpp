// validate-emit: one client marking, validating and emitting the decks.
//
// Each op runs on a freshly loaded and analyzed session (prepared
// untimed): workloads::markParallelLoops(s, /*forceAllLoops=*/true), then
// Session::validateDeletions(), then Session::emitOpenMP() with the
// round-trip thread counts capped at nproc. Every op is checked against
// the pinned per-deck emitted/refused counts, zero silent drops, a passing
// round trip and a deck text that stays byte-stable across rounds.

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>

#include "bench.h"
#include "interp/machine.h"
#include "interp/trace.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "validate/validate.h"
#include "workloads/emission_driver.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 31;

struct Expected {
  int emitted = 0;
  int refused = 0;
};

/// Pinned counts, one "deck emitted refused" line per deck plus a
/// "total emitted refused" line that must equal the per-deck sums.
bool readExpected(const std::string& path, std::map<std::string, Expected>* m,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  Expected total;
  bool haveTotal = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string deck;
    Expected e;
    if (!(ls >> deck >> e.emitted >> e.refused)) {
      *error = "malformed line in " + path + ": " + line;
      return false;
    }
    if (deck == "total") {
      total = e;
      haveTotal = true;
    } else {
      (*m)[deck] = e;
    }
  }
  Expected sum;
  for (const auto& [deck, e] : *m) {
    sum.emitted += e.emitted;
    sum.refused += e.refused;
  }
  if (!haveTotal || sum.emitted != total.emitted ||
      sum.refused != total.refused) {
    *error = path + ": per-deck counts do not add up to the total line";
    return false;
  }
  return true;
}

/// Traced-run decomposition of one emission. emitOpenMP times its own
/// phases (EmissionReport::emitSeconds for the clause plan, validateSeconds
/// for relative validation, roundTripSeconds for the round-trip
/// re-analysis); they become child spans of the measured "emit.openmp"
/// span, in the order the call runs them, so the split is that of the op
/// that was timed. Outside the op, one untraced and one trace-recording
/// interpreter run of the deck give the interpreter's own rates.
void decomposeEmission(ps::ped::Session& s, const ps::emit::EmitOptions& opts,
                       const ps::emit::EmissionReport& er, int emitSpan,
                       double emitMs, Tracer& tr, LayerCounters& lc) {
  const double planMs = er.emitSeconds * 1e3;
  const double relativeMs = er.validateSeconds * 1e3;
  const double roundTripMs = er.roundTripSeconds * 1e3;
  tr.recordChild(emitSpan, "emit.plan", 0, planMs);
  tr.recordChild(emitSpan, "interp.relative", planMs, relativeMs);
  tr.recordChild(emitSpan, "emit.roundtrip", emitMs - roundTripMs,
                 roundTripMs);

  ps::interp::RunOptions o = opts.run;
  o.checkParallel = false;
  o.trace = nullptr;
  o.maxSteps = opts.maxSteps;
  o.parallelClauses.clear();
  {
    Scope run(tr, "interp.run");
    ps::interp::Machine m(s.program());
    lc.interpSteps += m.run(o).steps;
  }
  ps::interp::Trace trace;
  o.trace = &trace;
  {
    Scope run(tr, "interp.trace");
    ps::interp::Machine m(s.program());
    (void)m.run(o);
  }
  lc.traceEvents += static_cast<long long>(trace.events.size());
}

}  // namespace

Outcome runValidateEmit(const Options& opt, Tracer& tr) {
  Outcome out;
  const auto& decks = ps::workloads::all();

  ps::emit::EmitOptions emitOpts;
  emitOpts.roundTripThreads.clear();
  for (int n : {1, 2, 4, 8}) {
    if (n <= opt.nproc) emitOpts.roundTripThreads.push_back(n);
  }

  // Set-up: the pinned expectations and the 1-thread reference snapshot of
  // every deck (each op's prepared session must match it).
  std::map<std::string, Expected> expected;
  std::map<std::string, std::uint64_t> ref;
  std::vector<double> setups, setupsScaled;
  auto setUp = [&] {
    const auto t0 = Clock::now();
    expected.clear();
    std::string error;
    if (!readExpected(opt.expectedPath, &expected, &error)) {
      ++out.attempted;
      out.fail(error);
      return false;
    }
    (void)referenceHashes(out, ref);
    setups.push_back(msSince(t0) / 1e3);
    setupsScaled.push_back(setups.back() * referenceScaleNow());
    return true;
  };
  if (!setUp()) return out;

  std::mt19937 rng(opt.seed);
  std::vector<std::size_t> order(decks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Samples validateMs, emitMs, emitMsTraced;
  Rate loopsPerS;
  HostSpeed speed(1);
  std::map<std::string, std::uint64_t> deckTextHash;
  LayerCounters lc;

  // Five slices: a round of eight decks takes over a second, so a slice
  // holds about five rounds.
  const RunClock clock(opt, 5);
  while (!clock.done()) {
    const bool traced = clock.traced();
    tr.setEnabled(traced);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t idx : order) {
      if (setupDue(clock, setups.size(), kSetupReps)) (void)setUp();
      const auto& w = decks[idx];
      ++out.attempted;
      ps::DiagnosticEngine diags;
      std::unique_ptr<ps::ped::Session> s;
      {
        Scope span(tr, "prep.session");
        s = ps::ped::Session::load(w.source, diags);
        if (s) {
          s->setDeckName(w.name);
          (void)s->analyzeParallel(opt.nproc);
        }
      }
      if (!s || diags.hasErrors()) {
        out.fail("load of " + w.name);
        continue;
      }
      if (ps::support::xxh64(s->dependenceSnapshot()) != ref[w.name]) {
        out.fail(w.name + ": prepared session differs from the reference");
        continue;
      }

      ps::validate::ValidationReport vr;
      ps::emit::EmissionReport er;
      const auto t0 = Clock::now();
      double vMs = 0;
      double eMs = 0;
      int emitSpan = -1;
      {
        Scope op(tr, "op.validate-emit");
        {
          Scope span(tr, "ped.mark");
          (void)ps::workloads::markParallelLoops(*s, /*forceAllLoops=*/true);
        }
        auto t1 = Clock::now();
        {
          Scope span(tr, "validate.deletions");
          vr = s->validateDeletions();
        }
        vMs = msSince(t1);
        t1 = Clock::now();
        {
          Scope span(tr, "emit.openmp");
          emitSpan = span.id();
          er = s->emitOpenMP(emitOpts);
        }
        eMs = msSince(t1);
      }
      if (traced) {
        emitMsTraced.add(eMs, static_cast<int>(idx));
      } else {
        const int window = clock.window();
        validateMs.add(vMs, static_cast<int>(idx), window);
        emitMs.add(eMs, static_cast<int>(idx), window);
        loopsPerS.add(er.loopsEmitted + er.loopsRefused, msSince(t0) / 1e3,
                      window);
        speed.probe(window);
      }

      // Output checks.
      std::string why;
      const auto exp = expected.find(w.name);
      bool silentDrop = false;
      for (const auto& le : er.loops) {
        silentDrop |= !le.emitted && le.refusal.empty();
      }
      if (!vr.ran) {
        why = "validateDeletions did not run: " + vr.error;
      } else if (!er.ran) {
        why = "emitOpenMP did not run: " + er.error;
      } else if (exp == expected.end()) {
        why = "no pinned counts";
      } else if (er.loopsEmitted != exp->second.emitted ||
                 er.loopsRefused != exp->second.refused) {
        why = "emitted/refused " + std::to_string(er.loopsEmitted) + "/" +
              std::to_string(er.loopsRefused) + ", pinned " +
              std::to_string(exp->second.emitted) + "/" +
              std::to_string(exp->second.refused);
      } else if (er.loopsConsidered != er.loopsEmitted + er.loopsRefused ||
                 silentDrop) {
        why = "silent drop";
      } else if (!er.roundTripChecked || !er.roundTripOk) {
        why = "round trip failed: " + er.roundTripDetail;
      } else {
        const std::uint64_t h = ps::support::xxh64(er.deckText);
        const auto [it, fresh] = deckTextHash.emplace(w.name, h);
        if (!fresh && it->second != h) why = "deck text changed across rounds";
      }
      if (!why.empty()) out.fail(w.name + ": " + why);

      if (traced) {
        ++lc.validations;
        lc.checked += vr.checked;
        lc.refuted += vr.refuted;
        lc.unvalidated += vr.unvalidated;
        decomposeEmission(*s, emitOpts, er, emitSpan, eMs, tr, lc);
      }
    }
  }
  tr.setEnabled(false);
  while (setups.size() < kSetupReps && setUp()) {
  }

  const double vTail = validateMs.tailPercentileFor(0.90);
  const double eTail = emitMs.tailPercentileFor(0.90);
  std::string threads;
  for (int n : emitOpts.roundTripThreads) threads += " " + std::to_string(n);
  out.line("validate-emit (one client, round-trip threads" + threads +
           ", nproc=" + std::to_string(opt.nproc) + ")");
  putEndToEnd(out, emitMs, validateMs, loopsPerS.value(&speed),
              median(setupsScaled), speed);
  out.sampleLine("validate_ms_p50", validateMs.percentile(0.50), "ms",
                 validateMs.count());
  out.sampleLine(vTail == 0.90 ? "validate_ms_p90" : "validate_ms_tail",
                 validateMs.percentile(vTail), "ms", validateMs.count(),
                 "p" + fmt(vTail * 100, 0));
  out.sampleLine("emit_ms_p50", emitMs.percentile(0.50), "ms",
                 emitMs.count());
  out.sampleLine(eTail == 0.90 ? "emit_ms_p90" : "emit_ms_tail",
                 emitMs.percentile(eTail), "ms", emitMs.count(),
                 "p" + fmt(eTail * 100, 0));
  out.groupLine("validate_ms_p50", validateMs, 0.50);
  out.groupLine("emit_ms_p50", emitMs, 0.50);
  out.sampleLine("loops_per_s", loopsPerS.value(), "1/s",
                 static_cast<std::size_t>(loopsPerS.count()), "decided loops");
  out.sampleLine("setup_s", median(setups), "s", setups.size(), "median");
  out.sampleLine("peak_rss_mb", peakRssMb(), "MB", 1);
  if (opt.trace) {
    fillPerLayer(out, tr, lc, overheadPct(emitMs, emitMsTraced));
  }
  return out;
}

}  // namespace perfbench
