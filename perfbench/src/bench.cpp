#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "workloads/workloads.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

namespace {
double nearestRank(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}
}  // namespace

double Samples::percentile(double p) const { return nearestRank(xs_, p); }

std::map<int, double> Samples::groupPercentiles(double p) const {
  std::map<int, std::vector<double>> byGroup;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    byGroup[groups_[i]].push_back(xs_[i]);
  }
  std::map<int, double> out;
  for (auto& [g, v] : byGroup) out[g] = nearestRank(std::move(v), p);
  return out;
}

double Samples::balanced(double p) const {
  const auto per = groupPercentiles(p);
  if (per.empty()) return 0;
  double s = 0;
  for (const auto& [g, v] : per) s += v;
  return s / static_cast<double>(per.size());
}

double Samples::windowMedian(
    const std::function<double(const Samples&)>& stat,
    const HostSpeed* speed) const {
  std::map<int, Samples> byWindow;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    byWindow[windows_[i]].add(xs_[i], groups_[i], windows_[i]);
  }
  std::vector<double> vals;
  for (const auto& [w, s] : byWindow) {
    vals.push_back(stat(s) * (speed ? speed->scale(w) : 1.0));
  }
  return median(std::move(vals));
}

double Rate::value(const HostSpeed* speed) const {
  std::vector<double> rates;
  for (const auto& [w, cs] : perWindow_) {
    if (cs.second > 0) {
      rates.push_back(cs.first / cs.second / (speed ? speed->scale(w) : 1.0));
    }
  }
  return median(std::move(rates));
}

// ---------------------------------------------------------------------------
// HostSpeed
// ---------------------------------------------------------------------------

namespace {

/// One unit of the reference work: a fixed mix of what the analyses and
/// the interpreter spend their time on — node allocation in an ordered
/// map, building and sorting strings, and a switch-dispatched interpreter
/// loop over a small program. Fixed inputs; nothing from src/.
std::uint64_t referenceUnit() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint32_t, std::uint32_t> table;
  std::vector<std::string> words;
  for (std::uint32_t i = 0; i < 1500; ++i) {
    table[static_cast<std::uint32_t>(next() % 50000)] += i;
    if (i % 8 == 0) words.push_back(std::to_string(next()));
  }
  std::sort(words.begin(), words.end());
  std::vector<int> code(4096);
  for (int& op : code) op = static_cast<int>(next() % 6);
  std::int64_t acc = 0;
  std::int64_t r1 = 1;
  std::int64_t r2 = 3;
  std::size_t pc = 0;
  for (std::size_t step = 0; step < 30000; ++step) {
    switch (code[pc]) {
      case 0: acc += r1; break;
      case 1: r1 = acc ^ r2; break;
      case 2: r2 += static_cast<std::int64_t>(table.size()); break;
      case 3: acc -= r2 >> 1; break;
      case 4: acc = (acc * 7) & 0xffffff; break;
      default:
        r1 += static_cast<std::int64_t>(words[step % words.size()].size());
        break;
    }
    pc = (pc + 1 + static_cast<std::size_t>(acc & 3)) & 4095;
  }
  return static_cast<std::uint64_t>(acc) + table.size() + words[0].size();
}

constexpr int kUnitsPerThread = 4;
std::atomic<std::uint64_t> referenceSink{0};

}  // namespace

double referenceWorkMs(int threads) {
  // Units are handed out one at a time, so when the host takes a vCPU
  // away the other threads pick up its share, as TaskPool workers do.
  const int units = kUnitsPerThread * threads;
  std::atomic<int> nextUnit{0};
  auto work = [&] {
    while (nextUnit.fetch_add(1) < units) referenceSink += referenceUnit();
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> others;
  for (int t = 1; t < threads; ++t) others.emplace_back(work);
  work();
  for (auto& th : others) th.join();
  return msSince(t0);
}

double referenceScaleNow() {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) ms.push_back(referenceWorkMs(1));
  return HostSpeed::kReferenceMs / median(std::move(ms));
}

void HostSpeed::probe(int window) {
  const double ms = referenceWorkMs(threads_);
  std::lock_guard<std::mutex> lock(mu_);
  perWindow_[window].push_back(ms);
}

double HostSpeed::scale(int window) const {
  std::vector<double> ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = perWindow_.find(window);
    if (it != perWindow_.end()) ms = it->second;
  }
  return ms.empty() ? scale() : kReferenceMs / median(std::move(ms));
}

double HostSpeed::scale() const {
  const double m = medianMs();
  return m > 0 ? kReferenceMs / m : 1.0;
}

double HostSpeed::medianMs() const {
  std::vector<double> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [w, ms] : perWindow_) {
    all.insert(all.end(), ms.begin(), ms.end());
  }
  return median(std::move(all));
}

std::size_t HostSpeed::count() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [w, ms] : perWindow_) n += ms.size();
  return n;
}

double Rate::count() const {
  double n = 0;
  for (const auto& [w, cs] : perWindow_) n += cs.first;
  return n;
}

double Samples::tailPercentileFor(double want) const {
  static const double kCandidates[] = {0.99, 0.95, 0.90, 0.75, 0.50};
  const auto n = static_cast<double>(xs_.size());
  for (double p : kCandidates) {
    if (p > want) continue;
    if ((1.0 - p) * n >= 10.0) return p;
  }
  return 0.50;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int> tlOpen;
std::atomic<int> nextTid{1};
thread_local int tlTid = 0;

std::int64_t nanosSince(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}
}  // namespace

int Tracer::begin(const char* name) {
  if (tlTid == 0) tlTid = nextTid.fetch_add(1);
  Span s;
  s.name = name;
  s.parent = tlOpen.empty() ? -1 : tlOpen.back();
  s.tid = tlTid;
  s.t0 = nanosSince(origin_);
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    s.request =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].request : id;
    spans_.push_back(s);
  }
  tlOpen.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const std::int64_t t1 = nanosSince(origin_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t1;
  }
  if (!tlOpen.empty() && tlOpen.back() == id) tlOpen.pop_back();
}

void Tracer::recordChild(int parent, const char* name, double startMs,
                         double ms) {
  if (parent < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const Span p = spans_[static_cast<std::size_t>(parent)];
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = p.request;
  s.tid = p.tid;
  s.t0 = std::clamp(p.t0 + static_cast<std::int64_t>(startMs * 1e6), p.t0,
                    p.t1);
  s.t1 = std::clamp(s.t0 + static_cast<std::int64_t>(ms * 1e6), s.t0, p.t1);
  spans_.push_back(s);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> childMs(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childMs[static_cast<std::size_t>(s.parent)] += (s.t1 - s.t0) / 1e6;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const double ms = (s.t1 - s.t0) / 1e6;
    ++t.calls;
    t.inclusiveMs += ms;
    t.selfMs += ms - childMs[i];
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string layer = s.name;
    layer = layer.substr(0, layer.find('.'));
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.t0 / 1e3,
                  (s.t1 - s.t0) / 1e3);
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << layer << "\",\"ph\":\"X\"," << buf
        << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"request\":"
        << s.request << ",\"parent\":\""
        << (s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name
                          : "")
        << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Outcome, counters, per-layer metrics
// ---------------------------------------------------------------------------

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Outcome::sampleLine(const std::string& name, double value,
                         const char* unit, std::size_t n,
                         const std::string& note) {
  std::ostringstream os;
  os << "  " << name << " = " << fmt(value, 4) << " " << unit
     << "  (n=" << n << (note.empty() ? "" : ", " + note) << ")";
  report.push_back(os.str());
}

void Outcome::groupLine(const std::string& name, const Samples& s,
                        double p) {
  const auto& decks = ps::workloads::all();
  std::ostringstream os;
  os << "  " << name << " by deck:";
  for (const auto& [g, v] : s.groupPercentiles(p)) {
    os << " " << decks[static_cast<std::size_t>(g)].name << "=" << fmt(v, 3);
  }
  report.push_back(os.str());
}

void LayerCounters::add(const LayerCounters& o) {
  linesParsed += o.linesParsed;
  poolRuns += o.poolRuns;
  tasks += o.tasks;
  steals += o.steals;
  idleMs += o.idleMs;
  statOps += o.statOps;
  testsRequested += o.testsRequested;
  memoHits += o.memoHits;
  fmRuns += o.fmRuns;
  assumed += o.assumed;
  pairsSpliced += o.pairsSpliced;
  pairsTested += o.pairsTested;
  settles += o.settles;
  editsQueued += o.editsQueued;
  editsCoalesced += o.editsCoalesced;
  dirtyProcs += o.dirtyProcs;
  attaches += o.attaches;
  summaryHits += o.summaryHits;
  summaryLookups += o.summaryLookups;
  graphHits += o.graphHits;
  graphLookups += o.graphLookups;
  bytesRead += o.bytesRead;
  quarantined += o.quarantined;
  interpSteps += o.interpSteps;
  traceEvents += o.traceEvents;
  validations += o.validations;
  checked += o.checked;
  refuted += o.refuted;
  unvalidated += o.unvalidated;
}

void LayerCounters::addStats(const ps::dep::TestStats& before,
                             const ps::dep::TestStats& after) {
  ++statOps;
  testsRequested += after.testsRequested - before.testsRequested;
  memoHits += after.memoHits - before.memoHits;
  fmRuns += after.fmRuns - before.fmRuns;
  assumed += after.assumed - before.assumed;
  pairsSpliced += after.pairsSpliced - before.pairsSpliced;
  pairsTested += after.pairsTested - before.pairsTested;
}

void LayerCounters::addPool(
    std::uint64_t t, std::uint64_t s,
    const std::vector<ps::support::TaskPool::IdleStats>& idle) {
  ++poolRuns;
  tasks += static_cast<long long>(t);
  steals += static_cast<long long>(s);
  for (const auto& row : idle) idleMs += row.idleNanos / 1e6;
}

void fillPerLayer(Outcome& out, const Tracer& tracer, const LayerCounters& c,
                  double overheadPct) {
  const auto totals = tracer.totals();
  auto get = [&](const char* n) {
    auto it = totals.find(n);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto perCall = [&](const char* n) {
    const Tracer::Totals t = get(n);
    return ratio(t.inclusiveMs, static_cast<double>(t.calls));
  };
  auto& m = out.perLayer;
  auto put = [&](const char* name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };

  put("fortran.parse_ms", perCall("fortran.parse"), "ms");
  put("fortran.lines_per_s",
      ratio(static_cast<double>(c.linesParsed),
            get("fortran.parse").inclusiveMs / 1e3),
      "1/s");
  put("interproc.summarize_ms", perCall("interproc.summarize"), "ms");
  put("ped.edit_ms", perCall("ped.edit"), "ms");
  put("ped.analyze_ms", perCall("ped.analyze"), "ms");

  // cfg / dataflow / dependence builds are per procedure; report them per
  // deck (one "analysis.layers" span per decomposed deck).
  const double decks = static_cast<double>(get("analysis.layers").calls);
  const double cfgMs = ratio(get("cfg.build").inclusiveMs, decks);
  const double dfMs = ratio(get("dataflow.build").inclusiveMs, decks);
  const double depMs = ratio(get("dependence.build").inclusiveMs, decks);
  put("cfg.build_ms", cfgMs, "ms");
  put("dataflow.build_ms", dfMs, "ms");
  put("dependence.build_ms", depMs, "ms");
  put("dependence.self_ms", decks > 0 ? std::max(0.0, depMs - cfgMs - dfMs) : 0,
      "ms");
  put("dependence.update_ms", perCall("dependence.update"), "ms");
  put("dependence.splice_ratio",
      ratio(static_cast<double>(c.pairsSpliced),
            static_cast<double>(c.pairsSpliced + c.pairsTested)),
      "ratio");
  const auto ops = static_cast<double>(c.statOps);
  put("dependence.tests_run",
      ratio(static_cast<double>(c.testsRequested - c.memoHits), ops),
      "count");
  put("dependence.memo_hit_ratio",
      ratio(static_cast<double>(c.memoHits),
            static_cast<double>(c.testsRequested)),
      "ratio");
  put("dependence.fm_runs", ratio(static_cast<double>(c.fmRuns), ops),
      "count");
  put("dependence.assumed", ratio(static_cast<double>(c.assumed), ops),
      "count");

  const auto runs = static_cast<double>(c.poolRuns);
  put("support.tasks", ratio(static_cast<double>(c.tasks), runs), "count");
  put("support.steals", ratio(static_cast<double>(c.steals), runs), "count");
  put("support.idle_ms", ratio(c.idleMs, runs), "ms");

  put("server.attach_ms", perCall("server.attach"), "ms");
  put("server.settle_ms", perCall("server.settle"), "ms");
  put("server.coalesce_ratio",
      ratio(static_cast<double>(c.editsCoalesced),
            static_cast<double>(c.editsQueued)),
      "ratio");
  put("server.dirty_procs_per_settle",
      ratio(static_cast<double>(c.dirtyProcs),
            static_cast<double>(c.settles)),
      "count");

  put("pdb.summary_hit_ratio",
      ratio(static_cast<double>(c.summaryHits),
            static_cast<double>(c.summaryLookups)),
      "ratio");
  put("pdb.graph_hit_ratio",
      ratio(static_cast<double>(c.graphHits),
            static_cast<double>(c.graphLookups)),
      "ratio");
  put("pdb.bytes_read",
      ratio(static_cast<double>(c.bytesRead),
            static_cast<double>(c.attaches)),
      "bytes");
  put("pdb.quarantined", static_cast<double>(c.quarantined), "count");

  put("interp.run_ms", perCall("interp.run"), "ms");
  put("interp.steps_per_s",
      ratio(static_cast<double>(c.interpSteps),
            get("interp.run").inclusiveMs / 1e3),
      "1/s");
  put("interp.trace_events_per_s",
      ratio(static_cast<double>(c.traceEvents),
            get("interp.trace").inclusiveMs / 1e3),
      "1/s");
  // Share of the measured emitOpenMP time spent in relative validation:
  // the serial interpreter run and the shuffled schedules per loop.
  put("interp.emit_share",
      ratio(get("interp.relative").inclusiveMs,
            get("emit.openmp").inclusiveMs),
      "ratio");

  const auto vals = static_cast<double>(c.validations);
  put("validate.ms", perCall("validate.deletions"), "ms");
  put("validate.checked", ratio(static_cast<double>(c.checked), vals),
      "count");
  put("validate.refuted", ratio(static_cast<double>(c.refuted), vals),
      "count");
  put("validate.unvalidated", ratio(static_cast<double>(c.unvalidated), vals),
      "count");

  // The measured emitOpenMP calls' own phases (see decomposeEmission).
  put("emit.plan_ms", perCall("emit.plan"), "ms");
  put("emit.roundtrip_ms", perCall("emit.roundtrip"), "ms");
  put("emit.relative_ms", perCall("interp.relative"), "ms");

  put("trace.overhead_pct", overheadPct, "%");

  out.line("per-layer spans (traced phase): calls, inclusive ms, self ms");
  for (const auto& [name, t] : totals) {
    std::ostringstream os;
    os << "  " << name << "  calls=" << t.calls
       << "  incl=" << fmt(t.inclusiveMs, 2) << "  self=" << fmt(t.selfMs, 2);
    out.line(os.str());
  }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void putEndToEnd(Outcome& out, const Samples& op, const Samples& aux,
                 double throughputPerS, double setupS,
                 const HostSpeed& speed) {
  auto balancedP50 = [](const Samples& s) { return s.balanced(0.50); };
  auto& m = out.endToEnd;
  m["op_ms_p50"] = Metric{op.windowMedian(balancedP50, &speed), "ms"};
  m["aux_ms_p50"] = Metric{aux.windowMedian(balancedP50, &speed), "ms"};
  m["throughput_per_s"] = Metric{throughputPerS, "1/s"};
  m["setup_s"] = Metric{setupS, "s"};
  out.sampleLine("host_reference_ms", speed.medianMs(), "ms", speed.count(),
                 "median of the reference work; gated times are scaled by " +
                     fmt(HostSpeed::kReferenceMs, 3) + " ms / it, per window");
}

double referenceHashes(Outcome& out,
                       std::map<std::string, std::uint64_t>& ref) {
  const bool first = ref.empty();
  const auto t0 = Clock::now();
  for (const auto& w : ps::workloads::all()) {
    ps::DiagnosticEngine diags;
    auto s = ps::ped::Session::load(w.source, diags);
    if (!s || diags.hasErrors()) {
      ++out.attempted;
      out.fail("reference load of " + w.name);
      continue;
    }
    (void)s->analyzeParallel(1);
    const std::uint64_t h = ps::support::xxh64(s->dependenceSnapshot());
    if (first) {
      ref[w.name] = h;
    } else if (ref[w.name] != h) {
      ++out.attempted;
      out.fail("1-thread reference of " + w.name + " not reproducible");
    }
  }
  return msSince(t0) / 1e3;
}

double overheadPct(const Samples& untraced, const Samples& traced) {
  const double base = untraced.percentile(0.50);
  if (base <= 0 || traced.count() == 0) return 0;
  return 100.0 * (traced.percentile(0.50) / base - 1.0);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string fmt(double v, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

}  // namespace perfbench
