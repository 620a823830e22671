#include "perfbench/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <ctime>
#include <thread>

#include "perfbench/src/analysis.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/core/p2kvs.h"
#include "src/io/io_stats.h"
#include "src/io/mem_env.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/random.h"
#include "src/util/resource_usage.h"
#include "src/ycsb/workload.h"

namespace perfbench {
namespace {

using p2kvs::Env;
using p2kvs::IoPurpose;
using p2kvs::IoStats;
using p2kvs::IoStatsSnapshot;
using p2kvs::P2KVS;
using p2kvs::P2kvsStats;
using p2kvs::Random64;
using p2kvs::Status;
using p2kvs::ycsb::RecordKey;

// --- Data sets ---
// get-cached: 100k x 112 B (~13 MB with keys) fits the 8 MiB block cache of
// each of 2 workers plus memtables, so reads never reach the files.
constexpr uint64_t kCachedRecords = 100000;
// ycsb-a-large: 2M x 112 B (~256 MB), 16x the block caches of 2 workers, so
// reads go to the files and writes drive flushes and compactions.
constexpr uint64_t kLargeRecords = 2000000;

// Set-up (open + preload + flush + wait for background work) runs several
// times per run; setup_s is the median, and the last store is the one
// measured. The 100k-record set-up takes about 0.2 s of CPU, so it repeats
// often enough to be steady.
int SetupRepeats(uint64_t records) { return records >= kLargeRecords ? 3 : 15; }
constexpr uint64_t kPreloadBatch = 1000;
// Every run has this long of warm-up before the measured windows start, so
// block caches fill.
constexpr double kWarmupSeconds = 1.0;
constexpr int kMaxScanLength = 100;
constexpr int kMultiGetKeys = 16;
// Keys read back and checked after every run.
constexpr int kSweepKeys = 4096;

// Ops the generator keeps in flight per store worker: enough that every
// worker's queue holds several full OBM batches (max_batch_size 32) and
// does not drain while the generator waits for a CPU. At 64 per worker,
// get-cached's throughput spread twice as wide.
constexpr int kInFlightPerWorker = 256;

// wire-pipelined: connections, requests in flight on each (under the
// server's default per-connection max_pipeline of 1024) and how many
// responses are read before that many new requests go out in one write.
constexpr int kWireConnections = 4;
constexpr int kWireWindow = 768;
constexpr int kWireRefill = 64;
constexpr double kWirePutShare = 0.10;

constexpr double kMiB = 1024.0 * 1024.0;

// The benches' DefaultLsmOptions (bench/bench_common.cc), frozen here so a
// change to the paper-figure benches cannot move this benchmark.
p2kvs::Options LsmOptions(Env* env) {
  p2kvs::Options options;
  options.env = env;
  options.write_buffer_size = 4 * 1024 * 1024;
  options.target_file_size = 2 * 1024 * 1024;
  options.max_bytes_for_level_base = 10 * 1024 * 1024;
  return options;
}

// One store and the environment stack under it:
//   engine -> [TracingEnv] -> MemEnv
// No device model sits in between. The bounded metrics are CPU time, which
// a modeled device does not change: it only makes the engine sleep, and on
// a virtual machine the CPU cost of those sleeps and wake-ups varies (with
// the NVMe profile, ycsb-a-large's CPU per op moved 26.5-32.7 us between
// two periods of the same day; without it, 20.6-21.2 us under heavier
// steal). Members are destroyed in reverse order, so the store closes
// before its environments go. Replace a Store through its unique_ptr, never
// by assignment (which would reset `mem` first).
struct Store {
  std::unique_ptr<Env> mem;
  std::unique_ptr<Env> tracing;  // traced runs only
  std::shared_ptr<CountingListener> listener;  // traced runs only
  std::unique_ptr<P2KVS> db;
};

// Opens a store and preloads `records` records at version 0 through
// MultiWrite from one loader thread per worker.
bool OpenStore(const RunConfig& c, uint64_t records, bool traced, Store* s) {
  s->mem = p2kvs::NewMemEnv();
  Env* env = s->mem.get();
  p2kvs::P2kvsOptions o;
  if (traced) {
    s->tracing = std::make_unique<TracingEnv>(env);
    env = s->tracing.get();
    s->listener = std::make_shared<CountingListener>();
    o.listener = s->listener;
  }
  o.num_workers = c.workers;
  // Unpinned: on a shared host the pinned configuration is bimodal (see
  // perfbench/README.md), so it cannot carry a metric with a tight bound.
  o.pin_workers = false;
  o.enable_obm = true;
  o.max_batch_size = 32;
  o.enable_stats = true;
  o.env = env;
  o.engine_factory = p2kvs::MakeRocksLiteFactory(LsmOptions(env));
  if (traced) {
    o.engine_factory = WrapEngineFactory(o.engine_factory);
  }
  Status st = P2KVS::Open(o, "/perfbench-store", &s->db);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return false;
  }
  std::atomic<uint64_t> next{0};
  std::atomic<bool> load_ok{true};
  std::vector<std::thread> loaders;
  for (int t = 0; t < c.workers; t++) {
    loaders.emplace_back([&] {
      for (;;) {
        const uint64_t begin = next.fetch_add(kPreloadBatch, std::memory_order_relaxed);
        if (begin >= records) {
          return;
        }
        p2kvs::WriteBatch batch;
        for (uint64_t i = begin; i < std::min(records, begin + kPreloadBatch); i++) {
          batch.Put(RecordKey(i), MakePayload(c.seed, i, 0));
        }
        if (!s->db->MultiWrite(&batch).ok()) {
          load_ok.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : loaders) {
    t.join();
  }
  // The preload is flushed and its compactions finish before set-up ends,
  // so background work in the measured windows is the workload's own, not
  // debt left by the preload (which varied ycsb-a-large's CPU per op with
  // the number of ops it was spread over).
  st = s->db->FlushAll();
  if (st.ok()) st = s->db->WaitIdle();
  if (!load_ok.load(std::memory_order_relaxed) || !st.ok()) {
    std::fprintf(stderr, "preload failed\n");
    return false;
  }
  return true;
}

// Sets the store up SetupRepeats() times (or once when `repeats` is false)
// and keeps the last one. Returns the median CPU time and the median wall
// time of the set-ups.
bool SetUp(const RunConfig& c, uint64_t records, bool traced, bool repeats,
           std::unique_ptr<Store>* s, double* setup_cpu_s, double* setup_wall_s) {
  std::vector<double> cpu, wall;
  for (int i = 0; i < (repeats ? SetupRepeats(records) : 1); i++) {
    s->reset();  // the previous set-up closes before the next one is timed
    *s = std::make_unique<Store>();
    const uint64_t t0 = NowNanos();
    const uint64_t cpu0 = p2kvs::ProcessCpuNanos();
    if (!OpenStore(c, records, traced, s->get())) {
      return false;
    }
    cpu.push_back(static_cast<double>(p2kvs::ProcessCpuNanos() - cpu0) / 1e9);
    wall.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  *setup_cpu_s = Median(cpu);
  *setup_wall_s = Median(wall);
  return true;
}

// Shared state every op of a run can see.
struct RunState {
  const RunConfig* c = nullptr;
  P2KVS* db = nullptr;
  uint64_t records = 0;
  Checker checker;
  // Updates issued per key (version numbers), for workloads that write.
  std::unique_ptr<std::atomic<uint32_t>[]> issued;

  uint32_t MaxVersion(uint64_t idx) const {
    return issued ? issued[idx].load(std::memory_order_acquire) : 0;
  }
  // The version the next update of `idx` writes.
  uint32_t NextVersion(uint64_t idx) {
    return issued[idx].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  // A read value must be the payload of its key at a version already issued.
  void CheckValue(uint64_t idx, const std::string& value) {
    uint32_t version = 0;
    if (!CheckPayload(c->seed, idx, value, &version)) {
      checker.Fail("value mismatch for " + RecordKey(idx));
    } else if (version > MaxVersion(idx)) {
      checker.Fail("version never written for " + RecordKey(idx));
    }
  }
  void CheckRead(uint64_t idx, const Status& s, const std::string& value) {
    if (s.ok()) {
      CheckValue(idx, value);
    } else {
      checker.Fail("read of preloaded " + RecordKey(idx) + ": " + s.ToString());
    }
  }
};

// The measured stretch of a run: `windows` windows of kWindowSeconds after
// the warm-up.
struct Timeline {
  uint64_t start = 0;
  uint64_t window_ns = 0;
  int windows = 0;

  uint64_t end() const { return start + window_ns * static_cast<uint64_t>(windows); }
  // The window an op issued at `t0` counts in; -1 for the warm-up and the
  // drain after the last window.
  int WindowOf(uint64_t t0) const {
    if (t0 < start || t0 >= end()) return -1;
    return static_cast<int>((t0 - start) / window_ns);
  }
};

// Per-generator-thread results.
struct ThreadResult {
  LatencyLog log;
  std::vector<uint64_t> ok_by_window;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops[kNumOpClasses] = {};
  uint64_t scan_pairs = 0;    // pairs returned to scans
  uint64_t multiget_keys = 0;
  uint64_t fanout_parts = 0;  // partitions touched by fan-out ops
  uint64_t user_bytes = 0;    // key + value bytes written
  uint64_t gen_ns = 0;        // time spent issuing and checking ops

  // Counts one finished op issued at `t0` that completed at `t1`.
  void Record(const Timeline& tl, int op_class, uint64_t t0, uint64_t t1, bool ok) {
    const int w = tl.WindowOf(t0);
    if (w < 0) return;
    attempted++;
    ops[op_class]++;
    log.Add(op_class, w, t1 - t0);
    if (ok) {
      ok_by_window[static_cast<size_t>(w)]++;
    } else {
      failed++;
    }
  }
};

// A request in flight. The generator thread fills a slot and issues the
// async call; the callback, on a worker thread, stores the outcome, stamps
// the completion time and sets `done`; the generator then checks the
// outcome, counts it and reuses the slot.
struct Slot {
  std::atomic<bool> done{false};
  bool busy = false;
  int op_class = kGet;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  uint64_t idx[kMultiGetKeys] = {};  // Get / Put: idx[0]; MultiGet: all; Scan: the first
  uint64_t len = 0;                  // Scan: requested length
  uint64_t fanout_parts = 0;
  uint64_t user_bytes = 0;
  Status status;
  std::string value;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<Status> statuses;
  std::vector<std::string> values;

  void Complete() {
    t1 = NowNanos();
    done.store(true, std::memory_order_release);
  }
};

// Fills `slot` and issues its async call; the callback ends with
// slot->Complete().
using IssueFn = std::function<void(int tid, Random64& rng, Slot* slot)>;

constexpr SpanKind kFacadeKind[kNumOpClasses] = {SpanKind::kFacadeGet, SpanKind::kFacadePut,
                                                 SpanKind::kFacadeScan,
                                                 SpanKind::kFacadeMultiGet};

// Checks a completed op and counts it into `r`.
void FinishOp(RunState* st, const Timeline& tl, Slot* s, ThreadResult* r) {
  bool ok = s->status.ok();
  switch (s->op_class) {
    case kGet:
      st->CheckRead(s->idx[0], s->status, s->value);
      break;
    case kPut:
      if (!ok) st->checker.Fail("put " + RecordKey(s->idx[0]) + ": " + s->status.ToString());
      break;
    case kScan: {
      // Sorted, contiguous and of the requested length.
      bool shape_ok = ok && s->pairs.size() == s->len;
      for (size_t i = 0; shape_ok && i < s->pairs.size(); i++) {
        shape_ok = s->pairs[i].first == RecordKey(s->idx[0] + i);
        if (shape_ok) st->CheckValue(s->idx[0] + i, s->pairs[i].second);
      }
      if (!shape_ok) {
        st->checker.Fail("scan from " + RecordKey(s->idx[0]) + " len " + std::to_string(s->len) +
                         " returned " + std::to_string(s->pairs.size()) +
                         " pairs out of order or short");
      }
      break;
    }
    case kMultiGet:
      ok = s->statuses.size() == kMultiGetKeys && s->values.size() == kMultiGetKeys;
      if (!ok) {
        st->checker.Fail("multiget returned " + std::to_string(s->statuses.size()) +
                         " statuses");
      }
      for (size_t i = 0; ok && i < kMultiGetKeys; i++) {
        ok = s->statuses[i].ok();
        st->CheckRead(s->idx[i], s->statuses[i], s->values[i]);
      }
      break;
  }
  if (tl.WindowOf(s->t0) >= 0) {
    r->scan_pairs += s->pairs.size();
    r->multiget_keys += s->op_class == kMultiGet ? kMultiGetKeys : 0;
    r->fanout_parts += s->fanout_parts;
    r->user_bytes += s->user_bytes;
    if (SpanRecorder::Instance().enabled()) {
      uint64_t keys[kMultiGetKeys];
      const uint32_t n = s->op_class == kMultiGet ? kMultiGetKeys : 1;
      for (uint32_t i = 0; i < n; i++) keys[i] = KeyHash(RecordKey(s->idx[i]));
      RecordSpan(kFacadeKind[s->op_class], s->t0, s->t1, keys, n, 0);
    }
  }
  r->Record(tl, s->op_class, s->t0, s->t1, ok);
  s->pairs.clear();
  s->values.clear();
  s->statuses.clear();
}

// The framework's stage and batch totals (GetStats) now. The telemetry drain
// runs through the worker queues; it is taken at the edges of the measured
// windows only.
p2kvs::WorkerStatsSnapshot CoreNow(P2KVS* db) {
  P2kvsStats stats;
  if (!db->GetStats(&stats).ok()) {
    return {};
  }
  return stats.totals;
}

// The stage and batch counters of `end` minus those of `begin`.
p2kvs::WorkerStatsSnapshot CoreSince(const p2kvs::WorkerStatsSnapshot& end,
                                     const p2kvs::WorkerStatsSnapshot& begin) {
  p2kvs::WorkerStatsSnapshot d;
  d.write_batches = end.write_batches - begin.write_batches;
  d.writes_batched = end.writes_batched - begin.writes_batched;
  d.read_batches = end.read_batches - begin.read_batches;
  d.reads_batched = end.reads_batched - begin.reads_batched;
  d.singles = end.singles - begin.singles;
  d.queue_wait_nanos = end.queue_wait_nanos - begin.queue_wait_nanos;
  d.batch_build_nanos = end.batch_build_nanos - begin.batch_build_nanos;
  d.execute_nanos = end.execute_nanos - begin.execute_nanos;
  d.complete_nanos = end.complete_nanos - begin.complete_nanos;
  return d;
}

struct LoopResult {
  std::vector<ThreadResult> threads;
  Timeline tl;
  IoStatsSnapshot io;  // measured windows only
  p2kvs::WorkerStatsSnapshot core;  // measured windows only
  // CPU time over the measured windows of the whole process and of the
  // generator threads.
  uint64_t process_cpu_ns = 0;
  uint64_t generator_cpu_ns = 0;
  double Throughput() const {
    std::vector<double> per_window;
    for (int w = 0; w < tl.windows; w++) {
      uint64_t ok = 0;
      for (const ThreadResult& t : threads) {
        ok += t.ok_by_window[static_cast<size_t>(w)];
      }
      per_window.push_back(static_cast<double>(ok) / (static_cast<double>(tl.window_ns) / 1e9));
    }
    return Median(per_window);
  }
  uint64_t Sum(uint64_t ThreadResult::*field) const {
    uint64_t n = 0;
    for (const ThreadResult& t : threads) {
      n += t.*field;
    }
    return n;
  }
  uint64_t Ops(int op_class) const {
    uint64_t n = 0;
    for (const ThreadResult& t : threads) {
      n += t.ops[op_class];
    }
    return n;
  }
  std::vector<LatencyLog> Logs() const {
    std::vector<LatencyLog> logs;
    for (const ThreadResult& t : threads) {
      logs.push_back(t.log);
    }
    return logs;
  }
  // Share of the measured time the generators spent issuing and checking
  // ops rather than waiting for completions; near 1 means the generator,
  // not the store, limits throughput.
  double GenBusy() const {
    return static_cast<double>(Sum(&ThreadResult::gen_ns)) /
           (static_cast<double>(tl.end() - tl.start) * static_cast<double>(threads.size()));
  }
};

// Runs `body` on `clients` generator threads through a warm-up and then
// --seconds of measured windows. `body` keeps issuing ops until the
// timeline ends, then drains what it has in flight. `traced` records spans
// during the measured windows only.
using BodyFn = std::function<void(int tid, const Timeline& tl, ThreadResult* r)>;
LoopResult RunMeasured(RunState* st, int clients, bool traced, const BodyFn& body) {
  P2KVS* db = st->db;
  LoopResult out;
  out.tl.windows = static_cast<int>(st->c->seconds / kWindowSeconds);
  out.tl.window_ns = static_cast<uint64_t>(kWindowSeconds * 1e9);
  out.threads.resize(static_cast<size_t>(clients));
  for (ThreadResult& t : out.threads) {
    t.log.Reset(out.tl.windows);
    t.ok_by_window.assign(static_cast<size_t>(out.tl.windows), 0);
  }
  out.tl.start = NowNanos() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  // Generators stay alive until their CPU clocks have been read at the end
  // of the measured windows, even when they have drained by then.
  std::atomic<bool> sampled{false};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < clients; tid++) {
    threads.emplace_back([&, tid] {
      body(tid, out.tl, &out.threads[static_cast<size_t>(tid)]);
      while (!sampled.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (NowNanos() < out.tl.start) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<clockid_t> gen_clocks(threads.size());
  for (size_t i = 0; i < threads.size(); i++) {
    pthread_getcpuclockid(threads[i].native_handle(), &gen_clocks[i]);
  }
  auto gen_cpu = [&] {
    uint64_t ns = 0;
    for (clockid_t id : gen_clocks) {
      timespec ts{};
      clock_gettime(id, &ts);
      ns += static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
    }
    return ns;
  };
  const p2kvs::WorkerStatsSnapshot core0 = CoreNow(db);
  const IoStatsSnapshot io0 = IoStats::Instance().Snapshot();
  const uint64_t process0 = p2kvs::ProcessCpuNanos();
  const uint64_t gen0 = gen_cpu();
  SpanRecorder::Instance().SetEnabled(traced);
  while (NowNanos() < out.tl.end()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.generator_cpu_ns = gen_cpu() - gen0;
  out.process_cpu_ns = p2kvs::ProcessCpuNanos() - process0;
  sampled.store(true, std::memory_order_release);
  out.io = IoStats::Instance().Snapshot().Since(io0);
  out.core = CoreSince(CoreNow(db), core0);
  for (std::thread& t : threads) {
    t.join();
  }
  SpanRecorder::Instance().SetEnabled(false);
  return out;
}

// Closed loop through the async API: each generator thread keeps `window`
// ops in flight, issuing the next one as soon as one completes, and polls
// for completions instead of parking, yielding its CPU while none has come
// in. The workers' queues stay full, so no thread of the store sleeps and
// wakes per op; on a virtual machine such wake-ups cost a different amount
// from one minute to the next, and a blocking closed loop (nproc threads
// each calling Get) spent 15-30 us of CPU per op depending on the minute.
LoopResult RunPipelinedLoop(RunState* st, int clients, int window, bool traced,
                            const IssueFn& issue, const std::function<void(int tid)>& init) {
  return RunMeasured(st, clients, traced,
                     [&](int tid, const Timeline& tl, ThreadResult* r) {
    if (init) init(tid);
    Random64 rng(st->c->seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(tid) + 1);
    std::unique_ptr<Slot[]> slots(new Slot[static_cast<size_t>(window)]);
    for (;;) {
      bool in_flight = false;
      bool progressed = false;
      const bool issuing = NowNanos() < tl.end();
      for (int i = 0; i < window; i++) {
        Slot& s = slots[static_cast<size_t>(i)];
        if (s.busy && !s.done.load(std::memory_order_acquire)) {
          in_flight = true;
          continue;
        }
        if (!s.busy && !issuing) continue;
        const uint64_t g0 = NowNanos();
        progressed = true;
        if (s.busy) {
          s.busy = false;
          s.done.store(false, std::memory_order_relaxed);
          FinishOp(st, tl, &s, r);
        }
        if (issuing) {
          s.busy = true;
          in_flight = true;
          issue(tid, rng, &s);
        }
        if (tl.WindowOf(g0) >= 0) r->gen_ns += NowNanos() - g0;
      }
      if (!in_flight) break;
      if (!progressed) std::this_thread::yield();
    }
  });
}

// Issues one Get of a uniform key.
void IssueGet(RunState* st, Random64& rng, Slot* s) {
  s->op_class = kGet;
  s->idx[0] = rng.Uniform(st->records);
  s->fanout_parts = 0;
  s->user_bytes = 0;
  s->t0 = NowNanos();
  st->db->GetAsync(RecordKey(s->idx[0]), [s](const Status& status, std::string value) {
    s->status = status;
    s->value = std::move(value);
    s->Complete();
  });
}

// The op mix of each closed-loop workload.
IssueFn MakeIssue(const std::string& workload, RunState* st,
                  std::vector<std::unique_ptr<p2kvs::ycsb::OperationStream>>* streams) {
  if (workload == "get-cached") {
    return [st](int, Random64& rng, Slot* s) { IssueGet(st, rng, s); };
  }
  if (workload == "ycsb-a-large") {
    return [st, streams](int tid, Random64&, Slot* s) {
      const p2kvs::ycsb::Operation op = (*streams)[static_cast<size_t>(tid)]->Next();
      uint64_t idx = 0;
      if (!IndexOf(op.key, &idx)) {
        st->checker.Fail("generated key " + op.key + " outside the data set");
      }
      s->idx[0] = idx;
      s->fanout_parts = 0;
      s->user_bytes = 0;
      if (op.type == p2kvs::ycsb::OpType::kUpdate) {
        s->op_class = kPut;
        const std::string value = MakePayload(st->c->seed, idx, st->NextVersion(idx));
        s->user_bytes = op.key.size() + value.size();
        s->t0 = NowNanos();
        st->db->PutAsync(op.key, value, [s](const Status& status) {
          s->status = status;
          s->Complete();
        });
      } else {
        s->op_class = kGet;
        s->t0 = NowNanos();
        st->db->GetAsync(op.key, [s](const Status& status, std::string value) {
          s->status = status;
          s->value = std::move(value);
          s->Complete();
        });
      }
    };
  }
  // scan-fanout: half scans, half 16-key MultiGets, both uniform.
  return [st](int, Random64& rng, Slot* s) {
    P2KVS* db = st->db;
    s->user_bytes = 0;
    if (rng.Uniform(2) == 0) {
      s->op_class = kScan;
      s->len = 1 + rng.Uniform(kMaxScanLength);
      s->idx[0] = rng.Uniform(st->records - s->len + 1);
      s->fanout_parts = static_cast<uint64_t>(db->num_workers());
      s->t0 = NowNanos();
      db->ScanAsync(RecordKey(s->idx[0]), s->len,
                    [s](const Status& status,
                        std::vector<std::pair<std::string, std::string>> pairs) {
                      s->status = status;
                      s->pairs = std::move(pairs);
                      s->Complete();
                    });
      return;
    }
    s->op_class = kMultiGet;
    std::vector<std::string> keys(kMultiGetKeys);
    uint64_t parts_mask = 0;
    for (int i = 0; i < kMultiGetKeys; i++) {
      s->idx[i] = rng.Uniform(st->records);
      keys[static_cast<size_t>(i)] = RecordKey(s->idx[i]);
      parts_mask |= 1ull << (db->PartitionOf(keys[static_cast<size_t>(i)]) & 63);
    }
    s->fanout_parts = static_cast<uint64_t>(__builtin_popcountll(parts_mask));
    s->t0 = NowNanos();
    db->MultiGetAsync(std::move(keys),
                      [s](std::vector<Status> statuses, std::vector<std::string> values) {
                        s->status = Status::OK();
                        s->statuses = std::move(statuses);
                        s->values = std::move(values);
                        s->Complete();
                      });
  };
}

// Reads back a fixed sample of keys and runs the framework's own invariant
// check; every violation fails the run.
void FinalChecks(RunState* st) {
  Random64 rng(st->c->seed ^ 0x5eedull);
  for (int i = 0; i < kSweepKeys; i++) {
    const uint64_t idx = rng.Uniform(st->records);
    std::string value;
    const Status s = st->db->Get(RecordKey(idx), &value);
    st->CheckRead(idx, s, value);
  }
  Status s = st->db->WaitIdle();
  P2kvsStats stats;
  if (s.ok()) s = st->db->GetStats(&stats);
  if (s.ok()) s = stats.SelfCheck();
  if (!s.ok()) {
    st->checker.Fail("P2kvsStats::SelfCheck: " + s.ToString());
  }
}

Metric M(const std::string& name, double value, const std::string& unit, uint64_t samples = 0) {
  return Metric{name, value, unit, samples};
}

double PerOp(double x, double ops) { return ops == 0 ? 0 : x / ops; }

// Library stage figures per request over the measured windows (GetStats),
// the "core" per-layer rows.
void AddCoreStats(const p2kvs::WorkerStatsSnapshot& t, std::vector<Metric>* m) {
  const double reqs = static_cast<double>(t.requests_executed());
  m->push_back(M("core.queue_wait_us", PerOp(t.queue_wait_nanos / 1e3, reqs), "us"));
  m->push_back(M("core.batch_build_us", PerOp(t.batch_build_nanos / 1e3, reqs), "us"));
  m->push_back(M("core.execute_us", PerOp(t.execute_nanos / 1e3, reqs), "us"));
  m->push_back(M("core.complete_us", PerOp(t.complete_nanos / 1e3, reqs), "us"));
  m->push_back(M("core.read_batch_size",
                 PerOp(static_cast<double>(t.reads_batched), static_cast<double>(t.read_batches)),
                 "count"));
  m->push_back(M("core.write_batch_size",
                 PerOp(static_cast<double>(t.writes_batched), static_cast<double>(t.write_batches)),
                 "count"));
  m->push_back(M("core.singles_frac", PerOp(static_cast<double>(t.singles), reqs), "frac"));
}

// --- wire-pipelined ---

// Serves the store on loopback to kWireConnections pipelined connections,
// all driven by one generator thread. Each connection keeps kWireWindow
// requests in flight: the generator reads kWireRefill responses from one
// connection, sends as many new requests on it in one write, and moves on
// to the next.
struct WireRun {
  LoopResult loop;
  p2kvs::server::ServerStatsSnapshot server;
  uint64_t received = 0;  // every response, warm-up and drain included
};

bool RunWire(RunState* st, bool traced, WireRun* out) {
  p2kvs::server::Server server(st->db, p2kvs::server::ServerOptions{});
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return false;
  }

  struct Pending {
    uint64_t id, t0, idx;
    bool put;
    uint64_t user_bytes;
  };
  struct Conn {
    p2kvs::server::Client client;
    std::deque<Pending> pending;
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < kWireConnections; i++) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->client.Connect("127.0.0.1", server.port()).ok()) {
      std::fprintf(stderr, "connect failed\n");
      server.Stop();
      return false;
    }
  }
  out->loop = RunMeasured(st, 1, traced,
                          [&](int, const Timeline& tl, ThreadResult* r) {
    Random64 rng(st->c->seed * 0x2545f4914f6cdd1dull + 1);
    auto send = [&](Conn* c, int n) {
      for (int i = 0; i < n; i++) {
        const bool put = rng.NextDouble() < kWirePutShare;
        const uint64_t idx = rng.Uniform(st->records);
        const std::string key = RecordKey(idx);
        const uint64_t t0 = NowNanos();
        if (put) {
          const std::string value = MakePayload(st->c->seed, idx, st->NextVersion(idx));
          c->pending.push_back(
              {c->client.SendPut(key, value), t0, idx, true, key.size() + value.size()});
        } else {
          c->pending.push_back({c->client.SendGet(key), t0, idx, false, 0});
        }
      }
      if (!c->client.Flush().ok()) {
        st->checker.Fail("wire send failed");
      }
    };
    // Reads one response from `c` and checks and counts it; false when the
    // connection is lost.
    auto receive = [&](Conn* c) {
      p2kvs::server::Response resp;
      if (!c->client.ReadResponse(&resp).ok()) {
        st->checker.Fail("wire connection lost");
        r->failed += c->pending.size();
        c->pending.clear();
        return false;
      }
      const uint64_t t1 = NowNanos();
      out->received++;
      const Pending p = c->pending.front();
      c->pending.pop_front();
      const Status s = resp.ToStatus();
      if (resp.request_id != p.id) {
        st->checker.Fail("wire response " + std::to_string(resp.request_id) +
                         " out of order, expected " + std::to_string(p.id));
      } else if (!s.ok()) {
        st->checker.Fail("wire " + std::string(p.put ? "put " : "get ") + RecordKey(p.idx) +
                         ": " + s.ToString());
      } else if (!p.put) {
        st->CheckValue(p.idx, resp.payload);
      }
      if (tl.WindowOf(p.t0) >= 0) {
        r->user_bytes += p.user_bytes;
        if (SpanRecorder::Instance().enabled()) {
          const uint64_t key = KeyHash(RecordKey(p.idx));
          RecordSpan(p.put ? SpanKind::kWirePut : SpanKind::kWireGet, p.t0, t1, &key, 1, 0);
        }
        r->gen_ns += NowNanos() - t1;
      }
      r->Record(tl, p.put ? kPut : kGet, p.t0, t1, s.ok() && resp.request_id == p.id);
      return true;
    };
    for (auto& c : conns) send(c.get(), kWireWindow);
    for (bool in_flight = true; in_flight;) {
      in_flight = false;
      for (auto& c : conns) {
        for (int i = 0; i < kWireRefill && !c->pending.empty(); i++) {
          if (!receive(c.get())) break;
        }
        if (NowNanos() < tl.end() && !c->pending.empty()) {
          send(c.get(), kWireWindow - static_cast<int>(c->pending.size()));
        }
        in_flight |= !c->pending.empty();
      }
    }
  });
  conns.clear();
  server.Stop();  // joins the loop and waits for every store callback
  out->server = server.Stats();
  // Door accounting: every response the clients read was sent, and every
  // request the server handed to the store came back classified.
  if (out->server.responses_sent != out->received) {
    st->checker.Fail("server sent " + std::to_string(out->server.responses_sent) +
                     " responses, clients received " + std::to_string(out->received));
  }
  if (out->server.submitted_to_store + out->server.pipeline_rejections != out->received) {
    st->checker.Fail("server submitted " + std::to_string(out->server.submitted_to_store) +
                     " to the store, clients classified " + std::to_string(out->received));
  }
  return true;
}

// Inputs generated per op, timed apart from the store: the benchmark's own
// cost per operation.
double GenNsPerOp(const std::string& workload, uint64_t records, uint64_t seed) {
  constexpr int kOps = 20000;
  Random64 rng(seed);
  p2kvs::ycsb::KeySpace ks(records);
  std::unique_ptr<p2kvs::ycsb::OperationStream> stream;
  if (workload == "ycsb-a-large") {
    stream = std::make_unique<p2kvs::ycsb::OperationStream>(p2kvs::ycsb::WorkloadSpec::A(), &ks,
                                                            seed);
  }
  size_t sink = 0;
  const uint64_t t0 = NowNanos();
  for (int i = 0; i < kOps; i++) {
    if (stream) {
      const p2kvs::ycsb::Operation op = stream->Next();
      sink += op.key.size();
      if (op.type == p2kvs::ycsb::OpType::kUpdate) sink += MakePayload(seed, i, 1).size();
    } else if (workload == "scan-fanout" && rng.Uniform(2) == 1) {
      for (int k = 0; k < kMultiGetKeys; k++) sink += RecordKey(rng.Uniform(records)).size();
    } else {
      sink += RecordKey(rng.Uniform(records)).size();
      if (workload == "wire-pipelined" && rng.NextDouble() < kWirePutShare) {
        sink += MakePayload(seed, i, 1).size();
      }
    }
  }
  const double ns = static_cast<double>(NowNanos() - t0) / kOps;
  return sink == 0 ? 0 : ns;
}

// Samples the store's memory every window after the warm-up while the
// workload runs. The median smooths out the memtables' fill-and-flush
// sawtooth, which a single reading at the end lands anywhere on.
class MemorySampler {
 public:
  explicit MemorySampler(P2KVS* db)
      : thread_([this, db] {
          std::unique_lock<std::mutex> lock(mu_);
          auto next = std::chrono::steady_clock::now() +
                      std::chrono::duration<double>(kWarmupSeconds + kWindowSeconds);
          while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
            mb_.push_back(static_cast<double>(db->ApproximateMemoryUsage()) / kMiB);
            next += std::chrono::duration<double>(kWindowSeconds);
          }
        }) {}
  ~MemorySampler() { Stop(); }
  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;

  // Stops sampling; the median of the samples, in MiB.
  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
    return Median(mb_);
  }
  // Readings taken; valid after Stop().
  uint64_t samples() const { return mb_.size(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> mb_;
  std::thread thread_;  // declared last: starts after the members it uses
};

// Everything one set-up-and-measure pass produces.
struct Phase {
  double setup_s = 0;       // median CPU time of the set-ups
  double setup_wall_s = 0;  // median wall time of the set-ups
  uint64_t setup_repeats = 0;
  double mem_mb = 0;  // median of the run's samples
  uint64_t mem_samples = 0;
  LoopResult loop;
  bool wire = false;
  p2kvs::server::ServerStatsSnapshot server;  // wire-pipelined
  uint64_t flushes = 0, compaction_bytes = 0, stall_us = 0;  // traced only
  uint64_t violations = 0;
  std::vector<std::string> violation_samples;

  uint64_t Attempted() const { return loop.Sum(&ThreadResult::attempted); }
  // CPU time per op of every thread but the generators': the store's
  // workers, the engines' flushes and compactions and, on wire-pipelined,
  // the server.
  double CpuUsPerOp() const {
    return PerOp(static_cast<double>(loop.process_cpu_ns - loop.generator_cpu_ns) / 1e3,
                 static_cast<double>(Attempted()));
  }
  uint64_t Failed() const { return loop.Sum(&ThreadResult::failed); }
  uint64_t UserBytes() const { return loop.Sum(&ThreadResult::user_bytes); }
};

bool RunPhase(const RunConfig& c, bool traced, bool repeat_setup, Phase* out) {
  out->wire = c.workload == "wire-pipelined";
  const uint64_t records = c.workload == "ycsb-a-large" ? kLargeRecords : kCachedRecords;
  std::unique_ptr<Store> store;
  if (!SetUp(c, records, traced, repeat_setup, &store, &out->setup_s, &out->setup_wall_s)) {
    return false;
  }
  out->setup_repeats = repeat_setup ? SetupRepeats(records) : 1;
  RunState st;
  st.c = &c;
  st.db = store->db.get();
  st.records = records;
  if (c.workload == "ycsb-a-large" || out->wire) {
    st.issued.reset(new std::atomic<uint32_t>[records]());
  }
  SpanRecorder::Instance().Clear();
  MemorySampler memory(st.db);
  if (out->wire) {
    WireRun wire;
    if (!RunWire(&st, traced, &wire)) {
      return false;
    }
    out->loop = std::move(wire.loop);
    out->server = wire.server;
  } else {
    // One YCSB stream per generator thread, built on that thread (the
    // zipfian set-up sums over every record).
    p2kvs::ycsb::KeySpace key_space(records);
    std::vector<std::unique_ptr<p2kvs::ycsb::OperationStream>> streams(
        static_cast<size_t>(c.clients));
    const IssueFn issue = MakeIssue(c.workload, &st, &streams);
    auto init = [&](int tid) {
      if (c.workload == "ycsb-a-large") {
        streams[static_cast<size_t>(tid)] = std::make_unique<p2kvs::ycsb::OperationStream>(
            p2kvs::ycsb::WorkloadSpec::A(), &key_space,
            c.seed * 0x100000001b3ull + static_cast<uint64_t>(tid));
      }
    };
    out->loop = RunPipelinedLoop(&st, c.clients, kInFlightPerWorker * c.workers / c.clients,
                                 traced, issue, init);
  }
  out->mem_mb = memory.Stop();
  out->mem_samples = memory.samples();
  FinalChecks(&st);
  if (store->listener) {
    out->flushes = store->listener->flushes.load(std::memory_order_relaxed);
    out->compaction_bytes = store->listener->compaction_bytes.load(std::memory_order_relaxed);
    out->stall_us = store->listener->stall_us.load(std::memory_order_relaxed);
  }
  out->violations = st.checker.violations();
  out->violation_samples = st.checker.samples();
  store.reset();  // joins every engine and worker thread before spans are read
  return true;
}

// The bounded metrics are CPU time and memory. On a shared virtual machine
// the CPUs are taken away for stretches (steal of 25-40% was seen during
// runs), and wall-clock throughput, latency and set-up time moved 3x
// between runs of the same code; CPU time is not charged while a CPU is
// taken away. The wall-clock figures are printed in the report.
void EndToEnd(Phase& ph, RunOutput* out) {
  const uint64_t ops = ph.Attempted();
  out->metrics.push_back(M("setup_s", ph.setup_s, "s", ph.setup_repeats));
  out->metrics.push_back(M("cpu_us_per_op", ph.CpuUsPerOp(), "us", ops));
  out->metrics.push_back(M("mem_mb", ph.mem_mb, "MB", ph.mem_samples));

  out->report = out->metrics;
  const uint64_t windows = static_cast<uint64_t>(ph.loop.tl.windows);
  out->report.push_back(M("setup_wall_s", ph.setup_wall_s, "s", ph.setup_repeats));
  out->report.push_back(M("throughput_ops", ph.loop.Throughput(), "ops/s", windows));
  // Latencies per operation, on the workloads that run each one.
  const std::vector<LatencyLog> logs = ph.loop.Logs();
  for (int cls = 0; cls < kNumOpClasses; cls++) {
    const ClassSummary s = Summarize(logs, ph.loop.tl.windows, cls);
    if (s.samples == 0) continue;
    const std::string n = std::string(ph.wire ? "wire_" : "") + OpClassName(cls) + "_p";
    out->report.push_back(M(n + "50_us", s.p50_us, "us", s.samples));
    out->report.push_back(M(n + "99_us", s.p99_us, "us", s.samples));
  }
  out->report.push_back(M("failed_frac", PerOp(static_cast<double>(ph.Failed()),
                                               static_cast<double>(ops)),
                          "frac", ops));
  if (ph.UserBytes() > 0) {
    out->report.push_back(M("write_amp", PerOp(static_cast<double>(ph.loop.io.TotalWritten()),
                                               static_cast<double>(ph.UserBytes())),
                            "x", 1));
  }
  out->report.push_back(M("gen_cpu_us_per_op",
                          PerOp(static_cast<double>(ph.loop.generator_cpu_ns) / 1e3,
                                static_cast<double>(ops)),
                          "us", ops));
  out->report.push_back(M("gen_busy_frac", ph.loop.GenBusy(), "frac", windows));
}

// Per-layer figures from an untraced reference pass and a traced pass of the
// same workload.
void PerLayer(const RunConfig& c, Phase& ref, Phase& traced, RunOutput* out) {
  const std::vector<ThreadSpans*> threads = SpanRecorder::Instance().All();
  const TraceAnalysis a = Analyze(threads);
  auto& m = out->metrics;
  AddCoreStats(ref.loop.core, &m);

  auto k = [](SpanKind kind) { return static_cast<int>(kind); };
  auto mean_us = [&](std::initializer_list<SpanKind> kinds) {
    double ns = 0, n = 0;
    for (SpanKind kind : kinds) {
      ns += a.ns[k(kind)];
      n += static_cast<double>(a.count[k(kind)]);
    }
    return PerOp(ns / 1000.0, n);
  };
  auto pooled = [&](std::initializer_list<SpanKind> kinds, double ClassBudget::*field) {
    double ns = 0, n = 0;
    for (SpanKind kind : kinds) {
      ns += a.budget[k(kind)].*field;
      n += static_cast<double>(a.budget[k(kind)].linked);
    }
    return PerOp(ns / 1000.0, n);
  };
  const auto kClient = {SpanKind::kFacadeGet, SpanKind::kFacadePut, SpanKind::kFacadeScan,
                        SpanKind::kFacadeMultiGet, SpanKind::kWireGet, SpanKind::kWirePut};
  const auto kFanout = {SpanKind::kFacadeScan, SpanKind::kFacadeMultiGet};
  const auto kWire = {SpanKind::kWireGet, SpanKind::kWirePut};

  m.push_back(M("core.handoff_us", pooled(kClient, &ClassBudget::handoff_ns), "us"));
  m.push_back(M("core.wake_us", pooled(kClient, &ClassBudget::tail_ns), "us"));

  const uint64_t fanout_ops = traced.loop.Ops(kScan) + traced.loop.Ops(kMultiGet);
  m.push_back(M("core.fanout_parts_per_op",
                PerOp(static_cast<double>(traced.loop.Sum(&ThreadResult::fanout_parts)),
                      static_cast<double>(fanout_ops)),
                "count"));
  m.push_back(M("core.fanout_overscan_ratio",
                PerOp(static_cast<double>(a.extra[k(SpanKind::kLsmScan)]),
                      static_cast<double>(traced.loop.Sum(&ThreadResult::scan_pairs))),
                "ratio"));
  m.push_back(M("core.fanout_merge_us", pooled(kFanout, &ClassBudget::tail_ns), "us"));
  m.push_back(M("core.fanout_straggler_us", pooled(kFanout, &ClassBudget::straggler_ns), "us"));

  m.push_back(M("lsm.write_us", mean_us({SpanKind::kLsmWrite, SpanKind::kLsmPut}), "us"));
  m.push_back(M("lsm.get_us", mean_us({SpanKind::kLsmGet}), "us"));
  m.push_back(M("lsm.multiget_us", mean_us({SpanKind::kLsmMultiGet}), "us"));
  m.push_back(M("lsm.iter_next_per_scan",
                PerOp(static_cast<double>(a.extra[k(SpanKind::kLsmScan)]),
                      static_cast<double>(a.count[k(SpanKind::kLsmScan)])),
                "count"));
  const double write_calls = static_cast<double>(a.count[k(SpanKind::kLsmWrite)] +
                                                 a.count[k(SpanKind::kLsmPut)]);
  m.push_back(M("lsm.keys_per_write_call",
                PerOp(static_cast<double>(a.keys[k(SpanKind::kLsmWrite)] +
                                          a.keys[k(SpanKind::kLsmPut)]),
                      write_calls),
                "count"));
  m.push_back(M("lsm.keys_per_multiget_call",
                PerOp(static_cast<double>(a.keys[k(SpanKind::kLsmMultiGet)]),
                      static_cast<double>(a.count[k(SpanKind::kLsmMultiGet)])),
                "count"));
  m.push_back(M("lsm.flushes", static_cast<double>(traced.flushes), "count"));
  m.push_back(M("lsm.compaction_bytes", static_cast<double>(traced.compaction_bytes), "B"));
  m.push_back(M("lsm.stall_us", static_cast<double>(traced.stall_us), "us"));

  // Client operations by kind, for the per-op io ratios.
  const double reads = static_cast<double>(traced.loop.Ops(kGet) + traced.loop.Ops(kScan) +
                                           traced.loop.Sum(&ThreadResult::multiget_keys));
  const double writes = static_cast<double>(traced.loop.Ops(kPut));
  const IoStatsSnapshot& io = traced.loop.io;
  const int user = static_cast<int>(IoPurpose::kUser);
  const int flush = static_cast<int>(IoPurpose::kFlush);
  const int comp = static_cast<int>(IoPurpose::kCompaction);
  m.push_back(M("io.user_reads_per_get", PerOp(static_cast<double>(io.read_ops[user]), reads),
                "count"));
  // IoStats tags no io as kWal in this tree (WAL appends count as kUser), so
  // WAL traffic is what the EnvWrapper sees under engine write calls.
  m.push_back(M("io.wal_syncs_per_put",
                PerOp(static_cast<double>(a.io_fg[k(SpanKind::kIoSync)]), writes), "count"));
  m.push_back(M("io.wal_bytes",
                PerOp(static_cast<double>(a.io_fg_bytes[k(SpanKind::kIoAppend)]), writes),
                "B/op"));
  m.push_back(M("io.flush_bytes", PerOp(static_cast<double>(io.bytes_written[flush]), writes),
                "B/op"));
  m.push_back(M("io.compaction_bytes",
                PerOp(static_cast<double>(io.bytes_written[comp]), writes), "B/op"));
  m.push_back(M("io.read_us", mean_us({SpanKind::kIoRead}), "us"));
  m.push_back(M("io.sync_us", mean_us({SpanKind::kIoSync}), "us"));
  m.push_back(M("io.background_ms", a.io_bg_ns / 1e6, "ms"));
  m.push_back(M("io.write_amp", PerOp(static_cast<double>(io.TotalWritten()),
                                      static_cast<double>(traced.UserBytes())),
                "x"));

  const p2kvs::server::ServerStatsSnapshot& ss = traced.server;
  double wire_us = 0;
  {
    double ns = 0, n = 0;
    for (SpanKind kind : kWire) {
      const ClassBudget& b = a.budget[k(kind)];
      ns += b.handoff_ns + b.tail_ns;
      n += static_cast<double>(b.linked);
    }
    wire_us = PerOp(ns / 1000.0, n);
  }
  m.push_back(M("server.wire_us", wire_us, "us"));
  m.push_back(M("server.bytes_per_frame",
                PerOp(static_cast<double>(ss.bytes_received + ss.bytes_sent),
                      static_cast<double>(ss.frames_decoded + ss.responses_sent)),
                "B"));
  m.push_back(M("server.protocol_errors", static_cast<double>(ss.protocol_errors), "count"));
  m.push_back(M("server.pipeline_rejections", static_cast<double>(ss.pipeline_rejections),
                "count"));

  m.push_back(M("bench.gen_busy_frac", ref.loop.GenBusy(), "frac"));
  const uint64_t records = c.workload == "ycsb-a-large" ? kLargeRecords : kCachedRecords;
  m.push_back(M("bench.gen_ns_per_op", GenNsPerOp(c.workload, records, c.seed), "ns"));
  // The CPU per op that tracing adds.
  m.push_back(M("bench.trace_overhead", PerOp(traced.CpuUsPerOp(), ref.CpuUsPerOp()) - 1.0,
                "frac"));

  // Budget closure per request class.
  double worst = 0;
  const double worker_us = PerOp(static_cast<double>(ref.loop.core.stage_nanos_sum()) / 1e3,
                                static_cast<double>(ref.loop.core.requests_executed()));
  for (SpanKind kind : kClient) {
    const ClassBudget& b = a.budget[k(kind)];
    if (b.n == 0) continue;
    worst = std::max(worst, b.UnattributedFrac());
    char line[512];
    std::snprintf(line, sizeof(line),
                  "budget %-15s n=%-8" PRIu64 " linked=%5.1f%% span %8.2f us = handoff %7.2f"
                  " + lsm self %7.2f + io %6.2f + tail %7.2f (linked means) | unattributed "
                  "%.2f us/op = %.2f%% of span time (tolerance %.0f%%: %s)",
                  SpanKindName(kind), b.n, 100.0 * static_cast<double>(b.linked) / b.n,
                  b.Mean(b.span_ns), b.LinkedMean(b.handoff_ns), b.LinkedMean(b.lsm_self_ns),
                  b.LinkedMean(b.io_ns), b.LinkedMean(b.tail_ns), b.Mean(b.unattributed_ns),
                  100.0 * b.UnattributedFrac(), 100.0 * kBudgetTolerance,
                  b.UnattributedFrac() <= kBudgetTolerance ? "closes" : "DOES NOT CLOSE");
    out->notes.push_back(line);
  }
  {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "library stages (untraced pass): queue wait + batch build + execute + "
                  "complete = %.2f us per request",
                  worker_us);
    out->notes.push_back(line);
  }
  m.push_back(M("bench.budget_unattributed", worst, "frac"));

  // Decorator transparency: foreground io per client op, traced vs untraced.
  auto per_op = [&](Phase& ph, int purpose, bool reads_side) {
    const IoStatsSnapshot& s = ph.loop.io;
    return PerOp(static_cast<double>(reads_side ? s.read_ops[purpose] : s.write_ops[purpose]),
                 static_cast<double>(ph.Attempted()));
  };
  double dev = 0;
  for (const auto& [purpose, reads_side, name] :
       {std::tuple<int, bool, const char*>{user, true, "user read ops/op"},
        std::tuple<int, bool, const char*>{user, false, "user write ops/op"}}) {
    const double u = per_op(ref, purpose, reads_side);
    const double t = per_op(traced, purpose, reads_side);
    char line[256];
    std::snprintf(line, sizeof(line), "transparency %-17s untraced %.4f traced %.4f", name, u,
                  t);
    out->notes.push_back(line);
    // Rarer io (a read after a flush) is timing, not a code path.
    if (u > 1e-2 || t > 1e-2) dev = std::max(dev, std::abs(t - u) / std::max(u, t));
  }
  m.push_back(M("bench.io_transparency", dev, "frac"));
  m.push_back(M("bench.spans", static_cast<double>(a.spans), "count"));
  m.push_back(M("bench.spans_dropped", static_cast<double>(a.dropped), "count"));

  // The first second is enough to inspect and keeps the file to tens of MB.
  const std::string spans_path = c.out_dir + "/" + c.workload + ".spans.tsv";
  if (WriteSpans(spans_path, threads, 1.0)) {
    out->notes.push_back("spans written to " + spans_path);
  } else {
    out->notes.push_back("could not write " + spans_path);
  }
  SpanRecorder::Instance().Clear();
}

// Restricts the calling thread, and so every thread it starts from now on
// (workers, engine background threads, generator, server), to the first `n`
// CPUs it may run on. With a CPU to spare for each thread, every handoff
// between them (queue push, completion, socket, eventfd) woke an idle CPU,
// and on a virtual machine what that costs changes from one minute to the
// next: unrestricted, wire-pipelined's capacity spread 64k-156k requests/s
// over ten runs, and CPU per op rose with the host's steal (get-cached
// 6.0-6.9 us, ycsb-a-large's workers 11-14 us; restricted to two CPUs in
// the same hour, 4.9-5.3 us and 9.1-10.5 us). With the CPUs shared they stay
// busy, and the run measures the work rather than the wake-ups.
bool ConfineToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  cpu_set_t keep;
  CPU_ZERO(&keep);
  for (int cpu = 0, kept = 0; cpu < CPU_SETSIZE && kept < n; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &keep);
      kept++;
    }
  }
  return sched_setaffinity(0, sizeof(keep), &keep) == 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"get-cached", "ycsb-a-large", "scan-fanout",
                                                 "wire-pipelined"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& n = WorkloadNames();
  return std::find(n.begin(), n.end(), name) != n.end();
}

bool RunWorkload(const RunConfig& c, RunOutput* out) {
  // Recorded with every result, so a run taken while the shared host was
  // short of CPU can be recognised; nothing else is running yet.
  const double cpu_available = CpuAvailability(c.nproc, 0.2);
  if (!ConfineToCpus(c.workers)) {
    std::fprintf(stderr, "could not restrict the run to %d CPUs\n", c.workers);
    return false;
  }
  std::vector<Phase> phases(c.trace ? 2 : 1);
  for (size_t i = 0; i < phases.size(); i++) {
    if (!RunPhase(c, /*traced=*/i == 1, /*repeat_setup=*/!c.trace, &phases[i])) {
      return false;
    }
    out->attempted += phases[i].Attempted();
    out->failed += phases[i].Failed();
    out->violations += phases[i].violations;
    for (const std::string& v : phases[i].violation_samples) {
      out->violation_samples.push_back(v);
    }
  }
  if (c.trace) {
    PerLayer(c, phases[0], phases[1], out);
    out->metrics.push_back(M("bench.cpu_available", cpu_available, "frac"));
  } else {
    EndToEnd(phases[0], out);
  }
  out->report.push_back(M("cpu_available", cpu_available, "frac", c.nproc));
  return true;
}

}  // namespace perfbench
