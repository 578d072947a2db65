// The torn-save race and the silent I/O failures, pinned.
//
// The original writeFileAtomic rendered every writer into the SAME
// `path + ".tmp"` scratch file: two concurrent savers interleaved their
// writes and the rename published a spliced image — a torn store the next
// session quarantined wholesale. The fix gives every writer a unique temp
// name (pid + process-wide counter, same directory so rename stays atomic)
// and fsyncs before publishing. These tests hammer one path from many
// threads and assert the survivor is always exactly ONE writer's complete
// image, all the way up to a real multi-session concurrent savePdb whose
// surviving store must open clean with zero quarantined frames.
//
// The second half pins the structured failure reports: savePdb/openWarm
// used to fold every I/O failure into a bare `false`/cold-start; now the
// failing syscall stage and errno surface through Session::pdbStats().

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "pdb/pdb.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/io.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"
#include "test_files.h"

namespace ps {
namespace {

using test_support::ScopedFile;

TEST(AtomicWrite, RoundTripAndStages) {
  ScopedFile f("io_atomic.rt.bin");
  std::string payload = "hello\0world";
  payload += std::string(4096, '\xab');
  support::IoStatus w = support::writeFileAtomicEx(f.path(), payload);
  ASSERT_TRUE(w.ok()) << w.str();
  std::string back;
  support::IoStatus r = support::readFileEx(f.path(), &back);
  ASSERT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(back, payload);
}

TEST(AtomicWrite, MissingFileReportsOpenStage) {
  std::string out = "untouched";
  support::IoStatus r = support::readFileEx("io_atomic.does.not.exist", &out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.stage, "open");
  EXPECT_EQ(r.error, ENOENT);
  EXPECT_EQ(out, "untouched");  // failure leaves the output untouched
}

TEST(AtomicWrite, FailedWriteNeverClobbersAndNamesStage) {
  ScopedFile parent("io_atomic.notadir");
  ASSERT_TRUE(support::writeFileAtomic(parent.path(), "i am a file"));
  // The target's parent is a regular file: creating the temp fails with
  // ENOTDIR (this also works when the suite runs as root, which ignores
  // permission bits).
  const std::string target = parent.path() + "/store.bin";
  support::IoStatus w = support::writeFileAtomicEx(target, "data");
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.stage, "create");
  EXPECT_EQ(w.error, ENOTDIR);
  std::string back;
  ASSERT_TRUE(support::readFile(parent.path(), &back));
  EXPECT_EQ(back, "i am a file");  // the existing file survived untouched
}

// The race itself: many threads write distinct payloads to ONE path. At
// every probe and at the end, the file must be exactly one payload —
// never a splice of two. With the old shared ".tmp" scratch name this
// fails in a handful of iterations (writers truncate each other's
// half-written temp and the rename publishes the wreckage).
TEST(AtomicWrite, ConcurrentWritersNeverTear) {
  ScopedFile f("io_atomic.race.bin");
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  // Payloads are distinguishable by their fill byte and all of one length,
  // crossing several write(2)-sized chunks.
  const std::size_t kLen = 1 << 16;
  auto payloadOf = [&](int t) {
    return std::string(kLen, static_cast<char>('A' + t));
  };
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = payloadOf(t);
      for (int i = 0; i < kIters; ++i) {
        support::IoStatus w = support::writeFileAtomicEx(f.path(), mine);
        if (!w.ok()) {
          ++torn;  // no failure mode is acceptable on a writable dir
          continue;
        }
        std::string back;
        if (!support::readFile(f.path(), &back)) {
          ++torn;
          continue;
        }
        // Whichever writer won, the image must be complete and uniform.
        if (back.size() != kLen ||
            back.find_first_not_of(back[0]) != std::string::npos) {
          ++torn;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn.load(), 0);
}

// The same race at full stack depth: N threads repeatedly savePdb distinct
// session states over one store path. Every probe in between and the final
// survivor must be a store that opens clean — correct framing, zero
// quarantined frames — and warm-starts a session.
TEST(AtomicWrite, ConcurrentSavePdbSurvivorOpensClean) {
  const workloads::Workload* w = workloads::byName("slab2d");
  ASSERT_NE(w, nullptr);
  ScopedFile store("io_atomic.slab2d.pspdb");

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread saves a DIFFERENT analysis state (its own assertion),
      // so a torn splice of two saves cannot masquerade as either one.
      auto s = workloads::loadDeck("slab2d");
      if (!s) {
        ++failures;
        return;
      }
      s->addAssertion("ASSERT RANGE (QSVAR" + std::to_string(t) +
                      ", 1, 10)");
      s->analyzeParallel(1);
      for (int i = 0; i < kIters; ++i) {
        if (!s->savePdb(store.path())) {
          ++failures;
          continue;
        }
        std::string image;
        if (!support::readFile(store.path(), &image)) {
          ++failures;
          continue;
        }
        pdb::StoreReader reader(std::move(image));
        if (reader.stats().rejected || reader.stats().quarantined != 0) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The survivor warm-starts a real session with nothing quarantined.
  DiagnosticEngine diags;
  auto warm = ped::Session::openWarm(w->source, store.path(), diags, 2);
  ASSERT_NE(warm, nullptr);
  EXPECT_FALSE(warm->pdbStats().storeRejected);
  EXPECT_EQ(warm->pdbStats().quarantined, 0u);
  EXPECT_TRUE(warm->pdbStats().ioFailures.empty());
}

TEST(IoFailureReports, SavePdbIntoNonDirectoryIsStructured) {
  ScopedFile parent("io_atomic.savedir");
  ASSERT_TRUE(support::writeFileAtomic(parent.path(), "file, not dir"));
  auto s = workloads::loadDeck("slab2d");
  ASSERT_NE(s, nullptr);
  s->analyzeParallel(1);
  EXPECT_FALSE(s->savePdb(parent.path() + "/store.pspdb"));
  const ped::PdbStats& ps = s->pdbStats();
  ASSERT_EQ(ps.ioFailures.size(), 1u);
  EXPECT_EQ(ps.ioFailures[0].operation, "savePdb");
  // The report names the failing syscall stage and the errno text.
  EXPECT_NE(ps.ioFailures[0].detail.find("create"), std::string::npos)
      << ps.ioFailures[0].detail;
  // And it renders through the stats line.
  EXPECT_NE(ps.str().find("io failure"), std::string::npos);
}

TEST(IoFailureReports, OpenWarmUnreadableStoreIsStructuredAndCold) {
  const workloads::Workload* w = workloads::byName("slab2d");
  ASSERT_NE(w, nullptr);
  ScopedFile parent("io_atomic.opendir");
  ASSERT_TRUE(support::writeFileAtomic(parent.path(), "file, not dir"));

  DiagnosticEngine diags;
  auto s = ped::Session::openWarm(w->source, parent.path() + "/x.pspdb",
                                  diags, 1);
  ASSERT_NE(s, nullptr);  // the session still opens — cold
  EXPECT_TRUE(s->pdbStats().storeRejected);
  ASSERT_EQ(s->pdbStats().ioFailures.size(), 1u);
  EXPECT_EQ(s->pdbStats().ioFailures[0].operation, "openWarm");

  // A merely MISSING store stays silent: that is the normal first run.
  DiagnosticEngine diags2;
  auto cold = ped::Session::openWarm(w->source, "io_atomic.no.such.pspdb",
                                     diags2, 1);
  ASSERT_NE(cold, nullptr);
  EXPECT_TRUE(cold->pdbStats().storeRejected);
  EXPECT_TRUE(cold->pdbStats().ioFailures.empty());
}

}  // namespace
}  // namespace ps
