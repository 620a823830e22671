// Shared pieces of the benchmark: the deterministic record payload and its
// check, per-window latency logs, exact percentiles, and the correctness
// ledger every workload reports into.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/clock.h"
#include "src/util/slice.h"

namespace perfbench {

using p2kvs::NowNanos;
using p2kvs::Slice;

constexpr size_t kValueSize = 112;

// Record `idx` at `version` (0 = preloaded, n = the n-th update issued for
// that key). The first 9 bytes carry the version in hex so a reader can tell
// which write it observed; the rest is a splitmix stream of (seed, idx,
// version), so a value served for the wrong key or version never matches.
std::string MakePayload(uint64_t seed, uint64_t idx, uint32_t version);

// True when `value` is exactly MakePayload(seed, idx, v) for some v; stores v.
bool CheckPayload(uint64_t seed, uint64_t idx, const Slice& value, uint32_t* version);

// Inverse of ycsb::RecordKey ("user" + 12 digits, which sorts bytewise in
// index order): the record index of `key`, false for keys this benchmark
// never generates.
bool IndexOf(const Slice& key, uint64_t* idx);

// Records the first few correctness violations and counts all of them. A
// violated check fails the run (correct = false) instead of skewing it.
class Checker {
 public:
  void Fail(const std::string& what);
  uint64_t violations() const { return violations_.load(std::memory_order_relaxed); }
  std::vector<std::string> samples() const;

 private:
  std::atomic<uint64_t> violations_{0};
  mutable std::mutex mu_;
  std::vector<std::string> samples_;
};

// Operation classes the benchmark times separately.
enum OpClass : int { kGet = 0, kPut, kScan, kMultiGet, kNumOpClasses };
const char* OpClassName(int op_class);

// One client thread's latencies, bucketed by class and by measurement window
// so every reported figure can be a median over windows.
struct LatencyLog {
  explicit LatencyLog(int windows = 0) { Reset(windows); }
  void Reset(int windows);
  void Add(int op_class, int window, uint64_t nanos) {
    lat[op_class][window].push_back(
        static_cast<uint32_t>(std::min<uint64_t>(nanos, UINT32_MAX)));
  }

  std::vector<std::vector<uint32_t>> lat[kNumOpClasses];  // [class][window] ns
};

// Measured windows are this long.
constexpr double kWindowSeconds = 0.5;

// Exact percentile (nearest-rank) of `v`, in microseconds; reorders `v`.
double PercentileUs(std::vector<uint32_t>* v, double p);
// Linearly interpolated quantile (q in [0, 1]) of `v`.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Latency summary of one op class across a run.
struct ClassSummary {
  uint64_t samples = 0;
  double p50_us = 0;  // median over windows of each window's p50
  double p99_us = 0;  // median over windows of each window's p99
};

// Share of the wall time `threads` spinning threads actually run, averaged
// over the threads: 1 on an idle host, lower when another tenant of a shared
// host takes the CPUs away (steal time is not charged to a thread). Run it
// while nothing else in the process is busy.
double CpuAvailability(int threads, double seconds);

ClassSummary Summarize(const std::vector<LatencyLog>& logs, int windows, int op_class);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
