// The benchmark's workloads and the store they run against.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int nproc = 4;
  int workers = 2;      // store workers: nproc / 2, at least 1
  int clients = 1;      // generator threads
  std::string out_dir;  // spans and result files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // observations behind the value (0 = a single reading)
};

struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t violations = 0;                // failed output checks
  std::vector<std::string> violation_samples;
  std::vector<Metric> metrics;  // BENCHMARK.json's end-to-end or per-layer metrics
  std::vector<Metric> report;   // further figures, printed but not gated
  std::vector<std::string> notes;  // budget tables and check summaries
};

bool IsWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

// Runs one workload; false on a set-up failure (reported on stderr).
bool RunWorkload(const RunConfig& config, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
