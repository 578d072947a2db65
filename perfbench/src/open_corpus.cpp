// open-corpus: one client opening the eight decks cold, over and over.
//
// Each op is Session::load + Session::analyzeParallel(nproc), timed as one
// open, in a seed-shuffled deck order per round. Once per round all eight
// decks are also loaded and analyzed together on one shared TaskPool of
// nproc workers (workloads::analyzeAllDecks). Every analyzed deck's
// dependenceSnapshot() must hash equal to its 1-thread reference.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>

#include "bench.h"
#include "layers.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "workloads/batch.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {
constexpr int kSetupReps = 31;
}

Outcome runOpenCorpus(const Options& opt, Tracer& tr) {
  Outcome out;
  const auto& decks = ps::workloads::all();

  // Set-up: the 1-thread reference snapshot hash of every deck.
  std::map<std::string, std::uint64_t> ref;
  std::vector<double> setups, setupsScaled;
  auto setUp = [&] {
    setups.push_back(referenceHashes(out, ref));
    setupsScaled.push_back(setups.back() * referenceScaleNow());
  };
  setUp();

  std::mt19937 rng(opt.seed);
  std::vector<std::size_t> order(decks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Samples openMs, openMsTraced, batchMs;
  Rate decksPerS;
  // The ops keep nproc analysis threads busy, so the reference work runs
  // on nproc threads too, once per round.
  HostSpeed speed(opt.nproc);
  LayerCounters lc;

  // Ten slices: ~100 opens per deck and ~900 in all per slice.
  const RunClock clock(opt, 10);
  while (!clock.done()) {
    if (setupDue(clock, setups.size(), kSetupReps)) setUp();
    const bool traced = clock.traced();
    tr.setEnabled(traced);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t idx : order) {
      const auto& w = decks[idx];
      ++out.attempted;
      std::unique_ptr<ps::ped::Session> s;
      ps::ped::ParallelReport pr;
      ps::dep::TestStats before;
      const auto t0 = Clock::now();
      {
        Scope op(tr, "op.open");
        ps::DiagnosticEngine diags;
        {
          Scope span(tr, "ped.load");
          s = ps::ped::Session::load(w.source, diags);
        }
        if (!s || diags.hasErrors()) {
          out.fail("load of " + w.name);
          continue;
        }
        before = s->analysisStats();
        Scope span(tr, "ped.analyze");
        pr = s->analyzeParallel(opt.nproc);
      }
      (traced ? openMsTraced : openMs)
          .add(msSince(t0), static_cast<int>(idx), clock.window());
      if (ps::support::xxh64(s->dependenceSnapshot()) != ref[w.name]) {
        out.fail(w.name + ": snapshot at " + std::to_string(opt.nproc) +
                 " threads differs from the 1-thread reference");
      }
      if (traced) {
        lc.addStats(before, s->analysisStats());
        lc.addPool(pr.tasksExecuted, pr.steals, pr.idle);
        decomposeDeck(w.source, /*withGraphs=*/true, tr, lc);
      }
    }

    // The shared-pool batch: all eight decks on one pool of nproc workers.
    ++out.attempted;
    std::vector<std::unique_ptr<ps::ped::Session>> kept;
    ps::workloads::BatchResult br;
    const auto t0 = Clock::now();
    {
      Scope op(tr, "op.batch");
      br = ps::workloads::analyzeAllDecks(opt.nproc, &kept);
    }
    const double ms = msSince(t0);
    if (!traced) {
      batchMs.add(ms, 0, clock.window());
      decksPerS.add(static_cast<double>(kept.size()), ms / 1e3,
                    clock.window());
      speed.probe(clock.window());
    }
    bool batchOk = kept.size() == decks.size();
    for (std::size_t i = 0; batchOk && i < kept.size(); ++i) {
      batchOk = br.decks[i].ok && kept[i] &&
                ps::support::xxh64(kept[i]->dependenceSnapshot()) ==
                    ref[decks[i].name];
    }
    if (!batchOk) out.fail("shared-pool batch: a deck failed or differs");
  }
  tr.setEnabled(false);
  while (setups.size() < kSetupReps) setUp();

  const double tailP = openMs.tailPercentileFor(0.99);
  out.line("open-corpus (one client, nproc=" + std::to_string(opt.nproc) +
           " analysis threads)");
  putEndToEnd(out, openMs, batchMs, decksPerS.value(&speed),
              median(setupsScaled), speed);
  out.sampleLine("open_ms_p50", openMs.percentile(0.50), "ms", openMs.count());
  out.sampleLine("open_ms_p90", openMs.percentile(0.90), "ms",
                 openMs.count());
  out.sampleLine(tailP == 0.99 ? "open_ms_p99" : "open_ms_tail",
                 openMs.percentile(tailP), "ms", openMs.count(),
                 "p" + fmt(tailP * 100, 0));
  out.groupLine("open_ms_p50", openMs, 0.50);
  out.sampleLine("decks_per_s", decksPerS.value(), "1/s", batchMs.count(),
                 "shared-pool batches, p50 " +
                     fmt(batchMs.percentile(0.50), 3) + " ms");
  out.sampleLine("setup_s", median(setups), "s", setups.size(), "median");
  out.sampleLine("peak_rss_mb", peakRssMb(), "MB", 1);
  if (opt.trace) {
    fillPerLayer(out, tr, lc, overheadPct(openMs, openMsTraced));
  }
  return out;
}

}  // namespace perfbench
