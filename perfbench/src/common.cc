#include "perfbench/src/common.h"

#include <cinttypes>
#include <cstring>
#include <ctime>
#include <thread>

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr size_t kVersionDigits = 8;

}  // namespace

std::string MakePayload(uint64_t seed, uint64_t idx, uint32_t version) {
  std::string v(kValueSize, '\0');
  std::snprintf(v.data(), kVersionDigits + 1, "%08" PRIx32, version);
  v[kVersionDigits] = ':';
  uint64_t state = seed * 0xff51afd7ed558ccdull ^ idx * 0xc4ceb9fe1a85ec53ull ^ version;
  for (size_t i = kVersionDigits + 1; i < kValueSize; i += 8) {
    uint64_t word = SplitMix(&state);
    for (size_t j = i; j < std::min(i + 8, kValueSize); j++) {
      v[j] = static_cast<char>('a' + (word & 15));
      word >>= 4;
    }
  }
  return v;
}

bool CheckPayload(uint64_t seed, uint64_t idx, const Slice& value, uint32_t* version) {
  if (value.size() != kValueSize || value[kVersionDigits] != ':') {
    return false;
  }
  uint32_t ver = 0;
  for (size_t i = 0; i < kVersionDigits; i++) {
    const char c = value[i];
    const int d = c >= '0' && c <= '9' ? c - '0' : (c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1);
    if (d < 0) {
      return false;
    }
    ver = ver << 4 | static_cast<uint32_t>(d);
  }
  *version = ver;
  const std::string expect = MakePayload(seed, idx, ver);
  return std::memcmp(expect.data(), value.data(), kValueSize) == 0;
}

bool IndexOf(const Slice& key, uint64_t* idx) {
  if (key.size() != 16 || std::memcmp(key.data(), "user", 4) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 16; i++) {
    if (key[i] < '0' || key[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *idx = v;
  return true;
}

void Checker::Fail(const std::string& what) {
  if (violations_.fetch_add(1, std::memory_order_relaxed) < 8) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(what);
  }
}

std::vector<std::string> Checker::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

const char* OpClassName(int op_class) {
  static const char* const kNames[kNumOpClasses] = {"get", "put", "scan", "multiget"};
  return kNames[op_class];
}

void LatencyLog::Reset(int windows) {
  for (auto& per_class : lat) {
    per_class.assign(static_cast<size_t>(windows), {});
  }
}

double PercentileUs(std::vector<uint32_t>* v, double p) {
  if (v->empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v->size()));
  rank = std::min(rank, v->size() - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(rank), v->end());
  return static_cast<double>((*v)[rank]) / 1000.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double CpuAvailability(int threads, double seconds) {
  auto thread_cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
  };
  std::vector<double> share(static_cast<size_t>(threads), 0);
  std::vector<std::thread> spinners;
  for (int i = 0; i < threads; i++) {
    spinners.emplace_back([&, i] {
      const uint64_t wall0 = NowNanos();
      const uint64_t cpu0 = thread_cpu_ns();
      const uint64_t until = wall0 + static_cast<uint64_t>(seconds * 1e9);
      uint64_t now = wall0;
      while (now < until) {
        now = NowNanos();
      }
      share[static_cast<size_t>(i)] =
          static_cast<double>(thread_cpu_ns() - cpu0) / static_cast<double>(now - wall0);
    });
  }
  double sum = 0;
  for (size_t i = 0; i < spinners.size(); i++) {
    spinners[i].join();
    sum += share[i];
  }
  return threads == 0 ? 0 : sum / threads;
}

ClassSummary Summarize(const std::vector<LatencyLog>& logs, int windows, int op_class) {
  ClassSummary out;
  std::vector<double> p50s, p99s;
  for (int w = 0; w < windows; w++) {
    std::vector<uint32_t> pooled;
    for (const LatencyLog& log : logs) {
      const auto& v = log.lat[op_class][static_cast<size_t>(w)];
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
    if (pooled.empty()) {
      continue;
    }
    out.samples += pooled.size();
    p50s.push_back(PercentileUs(&pooled, 50));
    p99s.push_back(PercentileUs(&pooled, 99));
  }
  out.p50_us = Median(p50s);
  out.p99_us = Median(p99s);
  return out;
}

}  // namespace perfbench
