// perfbench: the repository's benchmark program. One process runs one workload
// and prints, last, one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics from a
// traced pass (--trace 1). Everything before that line is the human report.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--rev <revision>]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Timings from an unoptimised or instrumented build describe the build, not
// the code: such a binary emits no metrics.
const char* BuildDefect() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build (no -O)";
#elif !defined(NDEBUG)
  return "assertions enabled (NDEBUG unset)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--rev <revision>]\nworkloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig c;
  std::string rev = "unknown";
  c.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      c.workload = val;
    } else if (flag == "--seed") {
      c.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      c.seconds = std::atoi(val.c_str());
    } else if (flag == "--trace") {
      c.trace = val == "1";
    } else if (flag == "--out-dir") {
      c.out_dir = val;
    } else if (flag == "--rev") {
      rev = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !IsWorkload(c.workload) || c.seconds < 1) {
    return Usage();
  }
  c.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Half the CPUs run store workers, and the run is restricted to that many
  // CPUs (see ConfineToCpus in workloads.cc); the other half is left to the
  // rest of the host. With a worker per CPU and a generator beside them,
  // the spread between runs grew several-fold.
  c.workers = std::max(1, c.nproc / 2);
  c.clients = 1;

  const std::string meta =
      "{\"workload\": \"" + c.workload + "\", \"seed\": " + std::to_string(c.seed) +
      ", \"seconds\": " + std::to_string(c.seconds) + ", \"trace\": " + (c.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(c.nproc) + ", \"workers\": " +
      std::to_string(c.workers) + ", \"clients\": " + std::to_string(c.clients) + ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
      "\", \"compiler\": \"" + JsonEscape(__VERSION__) + "\", \"revision\": \"" +
      JsonEscape(rev) + "\"}";
  std::printf("# perfbench %s\n", meta.c_str());
  std::fflush(stdout);

  RunOutput out;
  if (!RunWorkload(c, &out)) {
    std::fprintf(stderr, "perfbench: %s set-up failed\n", c.workload.c_str());
    return 1;
  }
  const bool correct = out.violations == 0;
  for (const std::string& v : out.violation_samples) {
    std::printf("violation %s\n", v.c_str());
  }
  std::printf("check outputs: %s (%" PRIu64 " violations over %" PRIu64 " attempted ops)\n",
              correct ? "all correct" : "FAILED", out.violations, out.attempted);
  // Such a build still runs every workload and output check, which is how
  // the benchmark itself is tested under sanitizers; it only withholds the
  // numbers.
  if (const char* defect = BuildDefect()) {
    std::printf("perfbench: no metrics from this build: %s\n", defect);
    return 3;
  }
  for (const Metric& m : out.report) {
    std::printf("metric %-28s %14.4f %-6s samples=%" PRIu64 "\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& n : out.notes) {
    std::printf("note %s\n", n.c_str());
  }

  std::string metrics;
  for (const Metric& m : out.metrics) {
    if (c.trace) {
      std::printf("layer %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(out.attempted) +
                             ", \"failed\": " + std::to_string(out.failed) +
                             ", \"metrics\": {" + metrics + "}}";
  const std::string path = c.out_dir + "/" + c.workload + "-seed" + std::to_string(c.seed) +
                           (c.trace ? "-trace" : "") + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"meta\": %s, \"result\": %s}\n", meta.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
