#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dependence/testsuite.h"
#include "support/ebr.h"
#include "support/taskpool.h"

namespace ps::support {
namespace {

// ---------------------------------------------------------------------------
// Epoch-based reclamation
// ---------------------------------------------------------------------------

TEST(EpochDomain, PinnedReaderBlocksReclamation) {
  EpochDomain domain;
  static std::atomic<int> freedFlags;
  freedFlags.store(0, std::memory_order_relaxed);
  auto* node = new int(42);
  {
    EpochGuard guard(domain);
    domain.retire(node, [](void* p) {
      freedFlags.fetch_add(1, std::memory_order_relaxed);
      delete static_cast<int*>(p);
    });
    // While we are pinned the epoch cannot advance twice past our pin, so
    // the node must survive any reclamation attempt.
    domain.synchronize();
    EXPECT_EQ(domain.freedCount(), 0u);
    EXPECT_EQ(freedFlags.load(std::memory_order_relaxed), 0);
    EXPECT_EQ(*node, 42);  // still alive and intact
  }
  domain.synchronize();  // unpinned: grace period can now lapse
  EXPECT_EQ(domain.freedCount(), 1u);
  EXPECT_EQ(freedFlags.load(std::memory_order_relaxed), 1);
}

// Readers chase a shared pointer that a writer keeps swapping and retiring.
// Retired nodes are poisoned (not deallocated) by the deleter, so a reader
// observing the poison value through its epoch pin would be a proven
// use-after-retire — without ever touching freed memory.
TEST(EpochDomain, SwapAndRetireStormNoUseAfterRetire) {
  struct Node {
    std::atomic<std::uint64_t> value{0};
  };
  constexpr std::uint64_t kPoison = ~std::uint64_t{0};
  constexpr int kReaders = 4;
  constexpr int kSwaps = 20000;

  EpochDomain domain;
  std::vector<std::unique_ptr<Node>> arena;  // owns every node ever published
  arena.reserve(kSwaps + 1);
  arena.push_back(std::make_unique<Node>());
  arena.back()->value.store(1, std::memory_order_relaxed);
  std::atomic<Node*> shared{arena.back().get()};
  std::atomic<bool> stop{false};
  std::atomic<long long> poisonedReads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochGuard guard(domain);
        Node* n = shared.load(std::memory_order_acquire);
        if (n->value.load(std::memory_order_acquire) == kPoison) {
          poisonedReads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    arena.push_back(std::make_unique<Node>());
    arena.back()->value.store(static_cast<std::uint64_t>(i) + 2,
                              std::memory_order_relaxed);
    Node* old = shared.exchange(arena.back().get(), std::memory_order_acq_rel);
    domain.retire(old, [](void* p) {
      static_cast<Node*>(p)->value.store(kPoison, std::memory_order_release);
    });
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(poisonedReads.load(std::memory_order_relaxed), 0)
      << "a reader saw a node after its grace period supposedly lapsed";
  domain.synchronize();
  // Quiescent: everything retired must have drained through limbo.
  EXPECT_EQ(domain.retiredCount(), static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(domain.freedCount(), domain.retiredCount());
}

// ---------------------------------------------------------------------------
// DepMemo under invalidation storms
// ---------------------------------------------------------------------------

dep::LevelResult stamped(std::uint64_t gen) {
  dep::LevelResult r;
  r.answer = dep::DepAnswer::NoDependence;
  r.distance = static_cast<long long>(gen);
  return r;
}

// invalidateView storms while readers/writers run the capture-once protocol:
// each round-trip captures (floor, gen) exactly as DependenceTester does,
// inserts stamped entries, and checks every hit's stamp lies in its window.
// A stale hit (stamp outside [floor, gen]) is the bug the epoch windows
// exist to prevent; a use-after-retire would crash/TSan on the retired
// boxes and arrays.
TEST(DepMemo, InvalidateViewStormMidLookupZeroStaleHits) {
  dep::DepMemo memo;
  constexpr int kWorkers = 6;
  constexpr int kKeys = 64;
  constexpr int kIters = 3000;
  std::vector<dep::DepMemo::ViewId> views;
  views.push_back(0);
  for (int i = 1; i < kWorkers; ++i) views.push_back(memo.createView());
  std::atomic<long long> staleHits{0};
  std::atomic<long long> hits{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      const dep::DepMemo::ViewId view = views[w];
      for (int i = 0; i < kIters; ++i) {
        // Capture once, like DependenceTester's constructor.
        const std::uint64_t floor = memo.floorOf(view);
        const std::uint64_t gen = memo.generation();
        const dep::MemoKey key("k" + std::to_string((w * kIters + i) % kKeys));
        if (std::optional<dep::LevelResult> hit = memo.lookup(key, floor, gen)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          const auto stamp = static_cast<std::uint64_t>(*hit->distance);
          if (stamp < floor || stamp > gen) {
            staleHits.fetch_add(1, std::memory_order_relaxed);
          }
        }
        memo.insert(key, stamped(gen), gen);
        if (i % 64 == 0) memo.invalidateView(view);
      }
    });
  }
  // A dedicated invalidator keeps epochs moving while lookups are in flight.
  threads.emplace_back([&] {
    int v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      memo.invalidateView(views[v++ % views.size()]);
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWorkers; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(staleHits.load(std::memory_order_relaxed), 0);
  EXPECT_GT(hits.load(std::memory_order_relaxed), 0);
  EXPECT_LE(memo.size(), static_cast<std::size_t>(kKeys));
  // Same-key overwrites retired superseded boxes; growth retired arrays.
  // At quiescence the global domain must be able to drain them all.
  EpochDomain::global().synchronize();
  EXPECT_EQ(EpochDomain::global().freedCount(),
            EpochDomain::global().retiredCount());
}

TEST(DepMemo, GrowthPreservesEveryDistinctKey) {
  dep::DepMemo memo;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 512;  // forces several doublings per shard
  const std::uint64_t gen = memo.generation();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        memo.insert(dep::MemoKey("g" + std::to_string(t) + "_" +
                                 std::to_string(i)),
                    stamped(gen), gen);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(memo.size(),
            static_cast<std::size_t>(kThreads) * kKeysPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const dep::MemoKey key("g" + std::to_string(t) + "_" +
                             std::to_string(i));
      ASSERT_TRUE(memo.lookup(key, gen).has_value())
          << key.text << " lost during concurrent growth";
    }
  }
  EXPECT_EQ(memo.exportEntries().size(), memo.size());
}

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

TEST(TaskPool, ExternalSubmissionStormRunsEveryTask) {
  TaskPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 2000;
  std::atomic<long long> ran{0};
  WaitGroup wg;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.submit(wg, [&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait(wg);
  EXPECT_EQ(ran.load(std::memory_order_relaxed),
            static_cast<long long>(kSubmitters) * kTasksEach);
  EXPECT_EQ(pool.tasksExecuted(),
            static_cast<std::uint64_t>(kSubmitters) * kTasksEach);
}

TEST(TaskPool, NestedFanOutFromWorkerTasks) {
  TaskPool pool(4);
  constexpr int kOuter = 64;
  constexpr int kInner = 32;
  std::atomic<long long> ran{0};
  std::vector<std::function<void()>> outer;
  outer.reserve(kOuter);
  for (int i = 0; i < kOuter; ++i) {
    outer.emplace_back([&pool, &ran] {
      // Worker-side submits must be waitable from inside a task without
      // deadlock: the waiting worker helps run them.
      WaitGroup inner;
      for (int j = 0; j < kInner; ++j) {
        pool.submit(inner, [&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
      pool.wait(inner);
    });
  }
  pool.runAll(std::move(outer));
  EXPECT_EQ(ran.load(std::memory_order_relaxed),
            static_cast<long long>(kOuter) * kInner);
}

TEST(TaskPool, IdleStatsExposeStealTelemetry) {
  TaskPool pool(4);
  std::atomic<long long> ran{0};
  std::vector<std::function<void()>> thunks;
  for (int i = 0; i < 256; ++i) {
    thunks.emplace_back([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.runAll(std::move(thunks));
  const std::vector<TaskPool::IdleStats> rows = pool.idleStats();
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(pool.threadCount()) + 1);
  TaskPool::IdleStats total;
  for (const auto& r : rows) total.accumulate(r);
  // Every fail is a subset of attempts.
  EXPECT_LE(total.stealFails, total.stealAttempts);
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 256);
}

// The determinism anchor: a 1-thread pool runs tasks inline in submission
// order.
TEST(TaskPoolLockfree, SingleThreadPoolIsAlwaysSequential) {
  TaskPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> thunks;
  for (int i = 0; i < 16; ++i) {
    thunks.emplace_back([&order, i] { order.push_back(i); });
  }
  pool.runAll(std::move(thunks));
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace ps::support
