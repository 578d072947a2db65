// edit-storm: the paper's §3.1 type-then-pause model on the analysis server.
//
// Set-up saves one store file per deck (cold session, analyzed, savePdb)
// into a temporary directory and derives, per deck, seeded edit streams
// (workloads::stormEdits) with their solo baselines
// (workloads::runSoloBaseline). The run then walks the decks round-robin in
// a seed-shuffled order: per deck one AnalysisServer over that deck's store
// and nproc/2 client threads that each open sessions (openSession attaches
// warm), replay a stream in bursts through submit + settle, and check the
// attach, every settle and the final analysisSnapshot against the solo
// baseline. The server's pool runs inline, so client threads plus server
// pool workers never exceed nproc.

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "server/server.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "workloads/harness.h"
#include "workloads/server_driver.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;
// Eight seeded scripts per deck, one per concurrent session of the repo's
// server bench (bench_server): the cost of a settle depends on which
// statements a stream edits, so fewer scripts make the figures depend on
// the seed more than on the code. Each script keeps StormScript's default
// cadence (3 bursts of 4 edits).
constexpr int kScriptsPerDeck = 8;

struct Script {
  ps::workloads::StormScript script;
  std::vector<ps::server::Edit> edits;
  /// The solo replay's per-burst reports and final snapshot hash.
  std::vector<ps::server::ServerSession::SettleReport> soloSettles;
  std::uint64_t soloHash = 0;
};

struct DeckFixture {
  int index = 0;  // sample group
  std::string name;
  const char* source = nullptr;
  std::string storePath;
  std::vector<Script> scripts;
};

/// A directory under the run's work directory, removed with its contents
/// when the object goes away (the store files must not outlive the run).
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string tmpl = parent + "/storm-XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// What one client thread measured.
struct ClientLog {
  Samples attachMs, settleMs, settleMsTraced;
  /// Edits this client replayed per second of its own session time
  /// (attach to close, checks included), untraced sessions only.
  Rate editsPerS;
  long long attempted = 0;
  std::vector<std::string> failures;
  LayerCounters lc;
};

bool applyToSolo(ps::ped::Session& s, const ps::server::Edit& e) {
  if (!s.selectProcedure(e.proc)) return false;
  switch (e.kind) {
    case ps::server::Edit::Kind::Rewrite:
      return s.editStatement(e.stmt, e.text);
    case ps::server::Edit::Kind::Insert:
      return s.insertStatementAfter(e.stmt, e.text);
    case ps::server::Edit::Kind::Delete:
      return s.deleteStatement(e.stmt);
  }
  return false;
}

/// Traced-run decomposition of one replayed session: parse + summaries of
/// the deck, then a solo replica replaying the same bursts with deferred
/// analysis, timing each edit call (ped.edit: re-parse, summary update,
/// audit) and each settle of the dirty set (dependence.update).
void decomposeSession(const DeckFixture& fx, const Script& sc, Tracer& tr,
                      LayerCounters& lc) {
  decomposeDeck(fx.source, /*withGraphs=*/false, tr, lc);
  ps::DiagnosticEngine diags;
  std::unique_ptr<ps::ped::Session> s;
  {
    Scope span(tr, "prep.replica");
    s = ps::ped::Session::load(fx.source, diags);
    if (!s) return;
    (void)s->analyzeParallel(1);
  }
  s->setDeferredAnalysis(true);
  std::size_t next = 0;
  for (int b = 0; b < sc.script.bursts && next < sc.edits.size(); ++b) {
    for (int i = 0; i < sc.script.editsPerBurst && next < sc.edits.size();
         ++i) {
      Scope span(tr, "ped.edit");
      (void)applyToSolo(*s, sc.edits[next++]);
    }
    Scope span(tr, "dependence.update");
    s->settleEdits();
  }
}

/// One client's share of a deck visit: scripts client, client + clients,
/// ... so the clients together replay every script of the deck once.
void runClient(int client, int clients, const DeckFixture& fx,
               ps::server::AnalysisServer& srv, const RunClock& clock,
               HostSpeed& speed, Tracer& tr, ClientLog& log) {
  for (std::size_t k = static_cast<std::size_t>(client); k < fx.scripts.size();
       k += static_cast<std::size_t>(clients)) {
    const bool traced = tr.enabled();
    // Each client probes the host's speed before each session, beside the
    // other clients' sessions, as its settles run.
    if (!traced) speed.probe(clock.window());
    const Script& sc = fx.scripts[k];
    const std::string name = fx.name + ".s" + std::to_string(k);
    const int window = clock.window();
    const auto sessionStart = Clock::now();
    ++log.attempted;
    ps::server::ServerSession* ss = nullptr;
    auto t0 = Clock::now();
    {
      Scope span(tr, "server.attach");
      ss = srv.openSession(name, fx.source);
    }
    if (!ss) {
      log.failures.push_back(name + ": openSession failed");
      continue;
    }
    if (!traced) log.attachMs.add(msSince(t0), fx.index, clock.window());
    {
      // A warm attach to an unedited deck's store reuses every record.
      const ps::ped::PdbStats& p = ss->session().pdbStats();
      if (p.quarantined != 0 || p.testsRunLive != 0) {
        log.failures.push_back(name + ": attach was not pure reuse");
      }
    }
    if (traced) {
      const ps::ped::PdbStats& p = ss->session().pdbStats();
      ++log.lc.attaches;
      log.lc.summaryHits += static_cast<long long>(p.summaryHits);
      log.lc.summaryLookups +=
          static_cast<long long>(p.summaryHits + p.summaryMisses);
      log.lc.graphHits += static_cast<long long>(p.graphHits);
      log.lc.graphLookups +=
          static_cast<long long>(p.graphHits + p.graphMisses);
      log.lc.bytesRead += static_cast<long long>(p.bytesRead);
      log.lc.quarantined += static_cast<long long>(p.quarantined);
    }

    std::size_t next = 0;
    const std::size_t bursts = sc.soloSettles.size();
    for (std::size_t b = 0; b < bursts; ++b) {
      std::size_t submitted = 0;
      for (; submitted < static_cast<std::size_t>(sc.script.editsPerBurst) &&
             next < sc.edits.size();
           ++submitted) {
        ss->submit(sc.edits[next++]);
      }
      ++log.attempted;
      const ps::dep::TestStats before = ss->session().analysisStats();
      ps::support::TaskPool& pool = srv.pool();
      const auto tasks0 = pool.tasksExecuted();
      const auto steals0 = pool.steals();
      const auto idle0 = pool.idleStats();
      ps::server::ServerSession::SettleReport rep;
      t0 = Clock::now();
      {
        Scope span(tr, "server.settle");
        rep = ss->settle();
      }
      (traced ? log.settleMsTraced : log.settleMs)
          .add(msSince(t0), fx.index, clock.window());
      // Every queued edit is applied, coalesced or rejected, and the
      // server rejects no edit the solo replay applied. (The dirty sets
      // may differ: a warm session's dirty set is not a cold one's; the
      // final snapshot check covers the analysis.)
      const auto& solo = sc.soloSettles[b];
      if (rep.editsQueued != submitted ||
          rep.editsApplied + rep.editsCoalesced + rep.editsRejected !=
              rep.editsQueued ||
          rep.editsRejected > solo.editsRejected) {
        log.failures.push_back(
            name + ": settle " + std::to_string(b) +
            " queued/applied/coalesced/rejected " +
            std::to_string(rep.editsQueued) + "/" +
            std::to_string(rep.editsApplied) + "/" +
            std::to_string(rep.editsCoalesced) + "/" +
            std::to_string(rep.editsRejected) + ", solo replay rejected " +
            std::to_string(solo.editsRejected));
      }
      if (traced) {
        log.lc.addStats(before, ss->session().analysisStats());
        const auto idle1 = pool.idleStats();
        std::vector<ps::support::TaskPool::IdleStats> idle;
        for (std::size_t i = 0; i < idle1.size() && i < idle0.size(); ++i) {
          idle.push_back(idle1[i].since(idle0[i]));
        }
        log.lc.addPool(pool.tasksExecuted() - tasks0, pool.steals() - steals0,
                       idle);
        ++log.lc.settles;
        log.lc.editsQueued += static_cast<long long>(rep.editsQueued);
        log.lc.editsCoalesced += static_cast<long long>(rep.editsCoalesced);
        log.lc.dirtyProcs += static_cast<long long>(rep.dirtyProcedures);
      }
    }
    ++log.attempted;
    if (ps::support::xxh64(ps::workloads::analysisSnapshot(ss->session())) !=
        sc.soloHash) {
      log.failures.push_back(name + ": final snapshot differs from the solo "
                                    "baseline");
    }
    srv.closeSession(name);
    if (!traced) {
      log.editsPerS.add(static_cast<double>(next), msSince(sessionStart) / 1e3,
                        window);
    }
    if (traced) decomposeSession(fx, sc, tr, log.lc);
  }
}

}  // namespace

Outcome runEditStorm(const Options& opt, Tracer& tr) {
  Outcome out;
  // The server's shared pool runs poolless (one "worker": each settle's
  // tasks run inline on the settling client's thread), so the client
  // threads are all the threads there are. With real workers a settle
  // waits on tasks other vCPUs run, and on a shared 4-vCPU host that made
  // settle p95 and edits/s swing by 2x with the neighbours' load; the
  // TaskPool's fan-out is measured by open-corpus instead. For the same
  // reason there are nproc/2 clients, not nproc: with four clients on four
  // vCPUs, 4 of 14 runs read settle p90 at 3.6-4.4 ms instead of 2.0-2.4 ms
  // and edits/s 25% lower, for whole runs, while the same seeds re-run
  // read normal and the reference work's median did not move: the host
  // had taken a vCPU, and a settle that loses its vCPU waits a time slice.
  const int workers = 1;
  const int clients = std::max(1, opt.nproc / 2);

  // Set-up: stores in a fresh temporary directory, edit streams, solo
  // baselines. The first repetition's fixtures are used; each later one
  // must reproduce its solo baselines and is then removed.
  std::vector<DeckFixture> fixtures;
  std::vector<double> setups, setupsScaled;
  std::unique_ptr<TempDir> tmpDir;
  auto setUp = [&] {
    const auto t0 = Clock::now();
    auto dir = std::make_unique<TempDir>(opt.workDir);
    if (dir->path().empty()) {
      ++out.attempted;
      out.fail("cannot create a temporary store directory under " +
               opt.workDir);
      return false;
    }
    std::vector<DeckFixture> made;
    const auto& decks = ps::workloads::all();
    for (std::size_t d = 0; d < decks.size(); ++d) {
      const auto& w = decks[d];
      DeckFixture fx;
      fx.index = static_cast<int>(d);
      fx.name = w.name;
      fx.source = w.source;
      fx.storePath = dir->path() + "/" + w.name + ".pspdb";
      auto cold = ps::workloads::loadDeck(w.name);
      if (!cold) {
        ++out.attempted;
        out.fail("set-up load of " + w.name);
        continue;
      }
      (void)cold->analyzeParallel(1);
      if (!cold->savePdb(fx.storePath)) {
        ++out.attempted;
        out.fail("set-up savePdb of " + w.name);
        continue;
      }
      for (int k = 0; k < kScriptsPerDeck; ++k) {
        Script sc;
        sc.script.deck = w.name;
        sc.script.seed = opt.seed * 1000u + static_cast<unsigned>(d) * 10u +
                         static_cast<unsigned>(k);
        sc.edits = ps::workloads::stormEdits(sc.script);
        ps::workloads::StormResult solo =
            ps::workloads::runSoloBaseline(sc.script, &sc.edits);
        if (sc.edits.empty() || !solo.ok) {
          ++out.attempted;
          out.fail("set-up storm script for " + w.name);
          continue;
        }
        sc.soloSettles = std::move(solo.settles);
        sc.soloHash = ps::support::xxh64(solo.snapshot);
        fx.scripts.push_back(std::move(sc));
      }
      if (!fx.scripts.empty()) made.push_back(std::move(fx));
    }
    setups.push_back(msSince(t0) / 1e3);
    setupsScaled.push_back(setups.back() * referenceScaleNow());
    if (setups.size() == 1) {
      fixtures = std::move(made);
      tmpDir = std::move(dir);
      return true;
    }
    bool same = made.size() == fixtures.size();
    for (std::size_t d = 0; same && d < made.size(); ++d) {
      same = made[d].scripts.size() == fixtures[d].scripts.size();
      for (std::size_t k = 0; same && k < made[d].scripts.size(); ++k) {
        same = made[d].scripts[k].soloHash == fixtures[d].scripts[k].soloHash;
      }
    }
    if (!same) {
      ++out.attempted;
      out.fail("a set-up repetition did not reproduce the solo baselines");
    }
    return true;
  };
  if (!setUp()) return out;

  std::mt19937 rng(opt.seed);
  std::vector<std::size_t> order(fixtures.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  HostSpeed speed(1);
  // Ten slices: ~1300 settles per slice.
  const RunClock clock(opt, 10);
  for (std::size_t p = 0; !clock.done() && !fixtures.empty(); ++p) {
    // Between deck visits, with no client running.
    if (setupDue(clock, setups.size(), kSetupReps)) (void)setUp();
    const DeckFixture& fx = fixtures[order[p % order.size()]];
    tr.setEnabled(clock.traced());
    {
      ps::server::AnalysisServer srv({fx.storePath, workers});
      if (!srv.warm()) {
        ++out.attempted;
        out.fail(fx.name + ": server did not load the store image");
      }
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          ClientLog& log = logs[static_cast<std::size_t>(c)];
          try {
            runClient(c, clients, fx, srv, clock, speed, tr, log);
          } catch (const std::exception& e) {
            ++log.attempted;
            log.failures.push_back(fx.name + ": client threw: " + e.what());
          }
        });
      }
      for (auto& th : threads) th.join();
    }
  }
  tr.setEnabled(false);
  while (setups.size() < kSetupReps && setUp()) {
  }
  tmpDir.reset();

  Samples attachMs, settleMs, settleMsTraced;
  LayerCounters lc;
  double editsPerS = 0;  // the clients' rates, summed
  double editsPerSScaled = 0;
  double edits = 0;
  for (const ClientLog& l : logs) {
    out.attempted += l.attempted;
    for (const std::string& f : l.failures) out.fail(f);
    lc.add(l.lc);
  }
  // Pool every client's samples once the threads are done.
  for (const ClientLog& l : logs) {
    attachMs.append(l.attachMs);
    editsPerS += l.editsPerS.value();
    editsPerSScaled += l.editsPerS.value(&speed);
    edits += l.editsPerS.count();
    settleMs.append(l.settleMs);
    settleMsTraced.append(l.settleMsTraced);
  }

  const double tailP = settleMs.tailPercentileFor(0.99);
  out.line("edit-storm (" + std::to_string(clients) +
           " client threads, server pool width " + std::to_string(workers) +
           " (settles inline), nproc=" +
           std::to_string(opt.nproc) + ")");
  putEndToEnd(out, settleMs, attachMs, editsPerSScaled, median(setupsScaled),
              speed);
  out.sampleLine("attach_ms_p50", attachMs.percentile(0.50), "ms",
                 attachMs.count());
  out.sampleLine("settle_ms_p50", settleMs.percentile(0.50), "ms",
                 settleMs.count());
  out.sampleLine("settle_ms_p90", settleMs.percentile(0.90), "ms",
                 settleMs.count());
  out.sampleLine(tailP == 0.99 ? "settle_ms_p99" : "settle_ms_tail",
                 settleMs.percentile(tailP), "ms", settleMs.count(),
                 std::string("p").append(fmt(tailP * 100, 0)));
  out.groupLine("settle_ms_p50", settleMs, 0.50);
  out.groupLine("attach_ms_p50", attachMs, 0.50);
  out.sampleLine("edits_per_s", editsPerS, "1/s",
                 static_cast<std::size_t>(edits), "summed over clients");
  out.sampleLine("setup_s", median(setups), "s", setups.size(), "median");
  out.sampleLine("peak_rss_mb", peakRssMb(), "MB", 1);
  if (opt.trace) {
    fillPerLayer(out, tr, lc, overheadPct(settleMs, settleMsTraced));
  }
  return out;
}

}  // namespace perfbench
