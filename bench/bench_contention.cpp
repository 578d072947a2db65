// Contention microbenchmarks for the two shared concurrent structures:
//
//   - DepMemo: N threads run a mixed lookup/insert/invalidateView workload
//     over a shared key universe; reported as ops/sec plus the table's
//     CAS-retry count (slot-claim races + sealed-array respins).
//   - TaskPool: N external threads submit trivial tasks against a 4-worker
//     pool; reported as tasks/sec plus steals.
//
// Single-run wall-clock numbers, deliberately not google-benchmark: the
// interesting outputs are the contention counters next to the rates, and
// on contended multi-thread configs a fixed op count per thread is easier
// to reason about than iteration auto-scaling.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dependence/testsuite.h"
#include "support/taskpool.h"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deterministic per-thread mix (no rand(): runs must be comparable).
std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// benchmark::DoNotOptimize without the benchmark dependency.
template <typename T>
void benchmarkDoNotOptimize(T&& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct MemoRun {
  double opsPerSec = 0.0;
  std::uint64_t retries = 0;
};

MemoRun runMemoMixed(int threads, int opsPerThread) {
  ps::dep::DepMemo memo;
  constexpr int kKeys = 256;
  std::vector<ps::dep::MemoKey> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    keys.emplace_back("bench|key" + std::to_string(i) + "|padpadpadpad");
  }
  ps::dep::LevelResult result;
  result.answer = ps::dep::DepAnswer::NoDependence;

  std::vector<ps::dep::DepMemo::ViewId> views(static_cast<std::size_t>(threads), 0);
  for (int t = 1; t < threads; ++t) views[static_cast<std::size_t>(t)] = memo.createView();

  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t rng = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(t);
      const ps::dep::DepMemo::ViewId view = views[static_cast<std::size_t>(t)];
      std::uint64_t floor = memo.floorOf(view);
      std::uint64_t gen = memo.generation();
      for (int i = 0; i < opsPerThread; ++i) {
        const std::uint64_t r = xorshift(rng);
        const ps::dep::MemoKey& key = keys[r % kKeys];
        const std::uint64_t op = (r >> 32) % 100;
        if (op < 70) {
          benchmarkDoNotOptimize(memo.lookup(key, floor, gen).has_value());
        } else if (op < 95) {
          memo.insert(key, result, gen);
        } else {
          memo.invalidateView(view);
          floor = memo.floorOf(view);  // re-capture, like a rebuild would
          gen = memo.generation();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs = secondsSince(t0);

  MemoRun out;
  out.opsPerSec = static_cast<double>(threads) * opsPerThread / secs;
  out.retries = memo.contentionRetries();
  return out;
}

struct PoolRun {
  double tasksPerSec = 0.0;
  std::uint64_t steals = 0;
};

PoolRun runPoolSubmitSteal(int submitters, int tasksEach) {
  ps::support::TaskPool pool(4);
  std::atomic<long long> ran{0};
  ps::support::WaitGroup wg;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&] {
      for (int i = 0; i < tasksEach; ++i) {
        pool.submit(wg, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : threads) t.join();
  pool.wait(wg);
  const double secs = secondsSince(t0);

  PoolRun out;
  out.tasksPerSec = static_cast<double>(submitters) * tasksEach / secs;
  out.steals = pool.steals();
  return out;
}

}  // namespace

int main() {
  constexpr int kMemoOps = 100000;  // per thread
  constexpr int kPoolTasksEach = 20000;

  std::printf("DepMemo mixed workload (70%% lookup / 25%% insert / 5%% "
              "invalidateView, %d ops/thread):\n", kMemoOps);
  std::printf("  %8s %14s %12s\n", "threads", "ops/sec", "cas-retries");
  for (int threads : {1, 2, 4, 8}) {
    const MemoRun r = runMemoMixed(threads, kMemoOps);
    std::printf("  %8d %14.0f %12llu\n", threads, r.opsPerSec,
                static_cast<unsigned long long>(r.retries));
  }

  std::printf("\nTaskPool submit/steal (4 workers, %d tasks/submitter):\n",
              kPoolTasksEach);
  std::printf("  %11s %14s %9s\n", "submitters", "tasks/sec", "steals");
  for (int submitters : {1, 2, 4, 8}) {
    const PoolRun r = runPoolSubmitSteal(submitters, kPoolTasksEach);
    std::printf("  %11d %14.0f %9llu\n", submitters, r.tasksPerSec,
                static_cast<unsigned long long>(r.steals));
  }
  return 0;
}
