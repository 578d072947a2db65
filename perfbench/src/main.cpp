// The repository benchmark program. One process runs one seeded workload for a
// fixed time, checks every output, and prints a human-readable report
// followed by one JSON result line:
//
//   ps_perfbench --workload open-corpus|edit-storm|validate-emit
//                --seed N --seconds S --trace 0|1
//                --expected perfbench/expected_emission.txt
//                --workdir DIR
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of the traced run and DIR/traces/ gets a
// Chrome trace-event file (open it in Perfetto or chrome://tracing).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Metric;

void usage() {
  std::cerr << "usage: ps_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected FILE --workdir DIR\n";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metricsJson(const std::map<std::string, Metric>& ms) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : ms) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.buildType = PERFBENCH_BUILD_TYPE;
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
      haveWorkload = true;
    } else if (k == "--seed") {
      opt.seed = static_cast<unsigned>(std::stoul(v));
    } else if (k == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--expected") {
      opt.expectedPath = v;
    } else if (k == "--workdir") {
      opt.workDir = v;
    } else {
      usage();
      return 2;
    }
  }
  if (!haveWorkload || opt.workDir.empty() || opt.seconds <= 0) {
    usage();
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  opt.nproc = hw == 0 ? 1 : static_cast<int>(hw);
  ::mkdir(opt.workDir.c_str(), 0755);

  perfbench::Tracer tracer;
  perfbench::Outcome out;
  try {
    if (opt.workload == "open-corpus") {
      out = perfbench::runOpenCorpus(opt, tracer);
    } else if (opt.workload == "edit-storm") {
      out = perfbench::runEditStorm(opt, tracer);
    } else if (opt.workload == "validate-emit") {
      out = perfbench::runValidateEmit(opt, tracer);
    } else {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << opt.workload << " threw: " << e.what() << "\n";
    return 1;
  }
  if (out.attempted < 1) {
    std::cerr << "workload attempted no operations\n";
    return 1;
  }

  std::ostringstream config;
  config << "workload=" << opt.workload << " seed=" << opt.seed
         << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
         << " nproc=" << opt.nproc << " build=" << opt.buildType;

  std::string tracePath;
  if (opt.trace) {
    const std::string dir = opt.workDir + "/traces";
    ::mkdir(dir.c_str(), 0755);
    tracePath = dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                ".trace.json";
    if (!tracer.writeChromeTrace(tracePath)) {
      std::cerr << "cannot write " << tracePath << "\n";
      return 1;
    }
  }

  std::cout << "== ps_perfbench " << config.str() << "\n";
  for (const std::string& l : out.report) std::cout << l << "\n";
  std::cout << "  error_rate = "
            << perfbench::fmt(static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted),
                              6)
            << "  (failed " << out.failed << " of " << out.attempted
            << " ops)\n";
  for (const std::string& f : out.failures) {
    std::cout << "  FAILED: " << f << "\n";
  }
  if (opt.trace) {
    std::cout << "  trace: " << tracer.size() << " spans -> " << tracePath
              << "\n  (latency lines above cover the untraced first 30% of "
                 "this traced run)\n";
  }

  const auto& metrics = opt.trace ? out.perLayer : out.endToEnd;
  const bool correct = out.failed == 0;

  // Keep a machine-readable record of every result next to the build.
  {
    const std::string dir = opt.workDir + "/results";
    ::mkdir(dir.c_str(), 0755);
    std::ofstream rec(dir + "/" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + "-trace" +
                      (opt.trace ? "1" : "0") + ".json");
    rec << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"nproc\": " << opt.nproc << ", \"build_type\": \""
        << opt.buildType << "\", \"seconds\": " << number(opt.seconds)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << out.attempted
        << ", \"failed\": " << out.failed
        << ", \"end_to_end\": " << metricsJson(out.endToEnd)
        << ", \"per_layer\": " << metricsJson(out.perLayer) << "}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metricsJson(metrics) << "}" << std::endl;
  return 0;
}
