#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

// Shared machinery of the repository benchmark: run options, latency
// sample pools with sample-counted percentiles, the in-memory span tracer
// behind the traced (per-layer) run, and the result record every workload
// fills in.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dependence/testsuite.h"
#include "support/taskpool.h"

namespace perfbench {

class HostSpeed;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expectedPath;  // pinned emission counts (validate-emit)
  std::string workDir;       // scratch space inside the checkout
  std::string buildType;
  int nproc = 1;             // host concurrency; no workload exceeds it
};

/// Latency samples pooled over a whole run (never cleared between rounds).
/// Each sample carries a group (the deck it was measured on) so a mixture
/// of decks can also be summarized deck by deck.
class Samples {
 public:
  void add(double ms, int group = 0, int window = 0) {
    xs_.push_back(ms);
    groups_.push_back(group);
    windows_.push_back(window);
  }
  void append(const Samples& o) {
    xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
    groups_.insert(groups_.end(), o.groups_.begin(), o.groups_.end());
    windows_.insert(windows_.end(), o.windows_.begin(), o.windows_.end());
  }
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  /// Nearest-rank percentile of the pooled samples, p in (0, 1].
  [[nodiscard]] double percentile(double p) const;
  /// The highest of p99/p95/p90/p75/p50, at most `want`, that still has at
  /// least ten pooled samples above it.
  [[nodiscard]] double tailPercentileFor(double want) const;
  /// Percentile p of each group's samples, by group.
  [[nodiscard]] std::map<int, double> groupPercentiles(double p) const;
  /// Mean over groups of each group's percentile p: every deck weighs the
  /// same, and no percentile falls on the gap between two decks.
  [[nodiscard]] double balanced(double p) const;
  /// Median, over the time windows of the run, of `stat` applied to each
  /// window's samples: a burst of host noise spoils one window, not the
  /// figure. With `speed`, each window's value is first scaled by that
  /// window's HostSpeed::scale.
  [[nodiscard]] double windowMedian(
      const std::function<double(const Samples&)>& stat,
      const HostSpeed* speed = nullptr) const;

 private:
  std::vector<double> xs_;
  std::vector<int> groups_;
  std::vector<int> windows_;
};

/// Counts per unit time, kept per time window; value() is the median of
/// the per-window rates (each divided by the window's HostSpeed::scale
/// when `speed` is given).
class Rate {
 public:
  void add(double count, double seconds, int window) {
    auto& w = perWindow_[window];
    w.first += count;
    w.second += seconds;
  }
  [[nodiscard]] double value(const HostSpeed* speed = nullptr) const;
  [[nodiscard]] double count() const;

 private:
  std::map<int, std::pair<double, double>> perWindow_;
};

/// The speed the shared host gives the run, measured inside it. Over
/// minutes a shared host's speed drifts by up to 2x (the neighbours' load,
/// steal time), so two runs of the same code minutes apart differ by more
/// than any regression bound. Each workload therefore times a fixed piece
/// of reference work between its ops, on the threads its ops use, and its
/// gated times are scaled to a host on which that work takes kReferenceMs:
/// time x kReferenceMs / (the reference work's median in the same time
/// window). The reference work calls nothing in src/ and does not depend
/// on the seed, so no change to the program moves it. Raw times are
/// printed in the report.
class HostSpeed {
 public:
  /// The reference work's time on one thread of the 4-vCPU host the
  /// benchmark was set up on, when that host ran fast.
  static constexpr double kReferenceMs = 2.5;

  /// Each probe runs the reference work on `threads` threads at once: the
  /// number of threads one op keeps busy.
  explicit HostSpeed(int threads) : threads_(threads) {}
  /// Time the reference work now and file it under `window`. Thread-safe.
  void probe(int window);
  /// kReferenceMs over the median probe of `window`, or of the whole run
  /// when the window has none.
  [[nodiscard]] double scale(int window) const;
  [[nodiscard]] double scale() const;
  [[nodiscard]] double medianMs() const;
  [[nodiscard]] std::size_t count() const;

 private:
  int threads_;
  mutable std::mutex mu_;
  std::map<int, std::vector<double>> perWindow_;
};

/// Wall time, in ms, of `threads` threads doing the reference work:
/// 4 x `threads` fixed units, handed out one at a time.
[[nodiscard]] double referenceWorkMs(int threads);

/// HostSpeed::kReferenceMs over the median of three single-threaded probes
/// taken now: the scale for a set-up repetition that has just ended.
[[nodiscard]] double referenceScaleNow();

/// Span recorder for the traced run. Each span is one call from benchmark
/// code into a layer's public function: name, start, end, the span that was
/// open on the same thread when it began, and the outermost such span (the
/// request it belongs to). Spans stay in memory and are written as Chrome
/// trace-event JSON at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    int parent = -1;
    int request = -1;
    int tid = 0;
  };

  void setEnabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  int begin(const char* name);
  void end(int id);
  /// Record a finished child of the finished span `parent`: a phase the
  /// layer timed itself, `startMs` after the parent began, lasting `ms`
  /// (both clamped to the parent).
  void recordChild(int parent, const char* name, double startMs, double ms);

  struct Totals {
    long long calls = 0;
    double inclusiveMs = 0;
    double selfMs = 0;  // inclusive minus the spans nested directly in it
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  bool writeChromeTrace(const std::string& path) const;
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name)
      : t_(t), id_(t.enabled() ? t.begin(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  /// The span's id, -1 when the tracer is off.
  [[nodiscard]] int id() const { return id_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;
  std::vector<std::string> report;  // human-readable lines

  void fail(const std::string& why);
  void line(const std::string& text) { report.push_back(text); }
  /// Report "name = value unit (n=count, pXX)" with the sample count.
  void sampleLine(const std::string& name, double value, const char* unit,
                  std::size_t n, const std::string& note = "");
  /// Report one percentile of a sample pool deck by deck.
  void groupLine(const std::string& name, const Samples& s, double p);
};

/// Session-side counters the traced run collects next to its spans. Summed
/// per client thread and merged at the end.
struct LayerCounters {
  long long linesParsed = 0;
  // support: TaskPool work behind analyzeParallel / server settles.
  long long poolRuns = 0;
  long long tasks = 0;
  long long steals = 0;
  double idleMs = 0;
  // dependence: Session::analysisStats() deltas around each op.
  long long statOps = 0;
  long long testsRequested = 0;
  long long memoHits = 0;
  long long fmRuns = 0;
  long long assumed = 0;
  long long pairsSpliced = 0;
  long long pairsTested = 0;
  // server: settle reports.
  long long settles = 0;
  long long editsQueued = 0;
  long long editsCoalesced = 0;
  long long dirtyProcs = 0;
  // pdb: per-attach pdbStats().
  long long attaches = 0;
  long long summaryHits = 0;
  long long summaryLookups = 0;
  long long graphHits = 0;
  long long graphLookups = 0;
  long long bytesRead = 0;
  long long quarantined = 0;
  // interp
  long long interpSteps = 0;
  long long traceEvents = 0;
  // validate: ValidationReport fields.
  long long validations = 0;
  long long checked = 0;
  long long refuted = 0;
  long long unvalidated = 0;

  void add(const LayerCounters& o);
  /// Fold in one op's Session::analysisStats() difference.
  void addStats(const ps::dep::TestStats& before,
                const ps::dep::TestStats& after);
  /// Fold in one pool run's tasks, steals and idle time.
  void addPool(std::uint64_t tasks, std::uint64_t steals,
               const std::vector<ps::support::TaskPool::IdleStats>& idle);
};

/// Fill every per-layer metric (zero for layers the workload never calls)
/// from the traced spans and the collected counters. `overheadPct` is the
/// headline op's traced-vs-untraced p50 difference.
void fillPerLayer(Outcome& out, const Tracer& tracer, const LayerCounters& c,
                  double overheadPct);

/// The measuring window. A traced run spends its first 30% untraced (the
/// baseline the tracing overhead is measured against) and the rest with
/// spans on; an untraced run never traces. The window is cut into
/// `windows` equal slices for the per-slice statistics.
class RunClock {
 public:
  RunClock(const Options& opt, int windows)
      : seconds_(opt.seconds),
        tracedFrom_(opt.trace ? 0.3 * opt.seconds : opt.seconds + 1),
        windows_(windows) {}
  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] bool done() const { return elapsed() >= seconds_; }
  [[nodiscard]] bool traced() const { return elapsed() >= tracedFrom_; }
  /// The slice `now` falls in (ops that overrun the end count in the last).
  [[nodiscard]] int window() const {
    const int w = static_cast<int>(elapsed() / seconds_ * windows_);
    return std::clamp(w, 0, windows_ - 1);
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
  double tracedFrom_;
  int windows_;
};

/// Set-up is repeated `reps` times and its median reported. The first
/// repetition runs before the window; the others are spread evenly over it,
/// between ops, because on a shared host the speed shifts for a second or
/// so at a time and back-to-back repetitions all land in one such phase.
/// Whether repetition number `done` is due now (those still left when the
/// window closes run after it).
[[nodiscard]] inline bool setupDue(const RunClock& clock, std::size_t done,
                                   int reps) {
  return done < static_cast<std::size_t>(reps) &&
         clock.elapsed() >=
             clock.seconds() * static_cast<double>(done) / reps;
}

/// One set-up repetition of open-corpus and validate-emit: load and analyze
/// every deck on one thread and hash its dependenceSnapshot(). The first
/// call fills `ref`; later calls must reproduce it (one failure per deck
/// that does not). Returns the repetition's wall time in seconds.
double referenceHashes(Outcome& out, std::map<std::string, std::uint64_t>& ref);

/// The gated end-to-end metrics every workload reports under one set of
/// names: its headline op's p50, a secondary op's p50, its throughput and
/// set-up time. Each latency p50 is the mean of the per-deck p50s (decks
/// weigh the same; the pooled p50 of a mixture of decks would sit on the
/// gap between two decks), taken per time window and scaled by the
/// window's host speed, with the median over windows reported.
/// `throughputPerS` and `setupS` come already scaled. Tail percentiles are
/// printed by each workload, not gated: on a shared host they follow the
/// host's phases (open-corpus p90 read 1.7 ms in a calm phase and 2.5-3.3
/// ms in a busy one, after scaling) far more than the code.
void putEndToEnd(Outcome& out, const Samples& op, const Samples& aux,
                 double throughputPerS, double setupS, const HostSpeed& speed);

/// Traced-vs-untraced p50 difference of the headline op, in percent.
[[nodiscard]] double overheadPct(const Samples& untraced,
                                 const Samples& traced);

[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double peakRssMb();
[[nodiscard]] std::string fmt(double v, int digits = 3);

Outcome runOpenCorpus(const Options& opt, Tracer& tracer);
Outcome runEditStorm(const Options& opt, Tracer& tracer);
Outcome runValidateEmit(const Options& opt, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
