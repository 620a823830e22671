// Tracing for the benchmark's traced runs. Spans are recorded from the
// benchmark's own code around each call into a layer: the client threads
// around P2KVS / wire calls (facade.* / wire.*), a KVStore decorator around
// every engine call (lsm.*), and an EnvWrapper around every file operation
// (io.*). Spans live in per-thread buffers and are written out when the run
// ends. Nothing here is installed in untraced runs.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/event_listener.h"
#include "src/core/kv_store.h"
#include "src/io/env_wrapper.h"
#include "src/io/io_stats.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kFacadeGet,
  kFacadePut,
  kFacadeScan,
  kFacadeMultiGet,
  kWireGet,
  kWirePut,
  kLsmGet,
  kLsmPut,
  kLsmDelete,
  kLsmWrite,
  kLsmMultiGet,
  kLsmScan,
  kIoRead,
  kIoSeqRead,
  kIoAppend,
  kIoFlush,
  kIoSync,
  kIoWrite,
  kIoClose,
  kNumKinds,
};
const char* SpanKindName(SpanKind kind);
inline bool IsLsm(SpanKind k) { return k >= SpanKind::kLsmGet && k <= SpanKind::kLsmScan; }
inline bool IsIo(SpanKind k) { return k >= SpanKind::kIoRead && k < SpanKind::kNumKinds; }
// Client and engine kinds that write.
inline bool IsWrite(SpanKind k) {
  return k == SpanKind::kFacadePut || k == SpanKind::kWirePut || k == SpanKind::kLsmPut ||
         k == SpanKind::kLsmDelete || k == SpanKind::kLsmWrite;
}

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = kNoParent;  // index in the same thread's buffer
  uint32_t key_off = 0;         // first key hash in the thread's key buffer
  uint32_t key_count = 0;
  uint32_t extra = 0;  // lsm.scan: entries visited; io: bytes
  SpanKind kind = SpanKind::kNumKinds;
};

// One thread's spans. Only its owner thread writes it while recording is on;
// readers look only after recording is switched off and threads are joined
// or quiescent.
struct ThreadSpans {
  int tid = 0;
  std::vector<Span> spans;
  std::vector<uint64_t> keys;
  std::vector<uint32_t> open;  // stack of open span indices
  uint64_t dropped = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& Instance();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // The calling thread's buffer (registered on first use).
  ThreadSpans* Local();
  // Every buffer registered so far. Call only while recording is off and
  // every thread that recorded has finished its open spans.
  std::vector<ThreadSpans*> All();
  // Empties every buffer (buffers stay registered: threads keep pointers).
  void Clear();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;  // never shrinks
};

uint64_t KeyHash(const p2kvs::Slice& key);

// RAII span on the calling thread; a no-op while recording is off. Spans
// opened while another is open on the same thread become its children.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void AddKey(uint64_t hash);
  void SetExtra(uint32_t extra);
  bool active() const { return buf_ != nullptr; }

 private:
  ThreadSpans* buf_ = nullptr;
  uint32_t idx_ = 0;
};

// Appends a closed span with explicit times (requests issued on one thread
// and completed on another) carrying `key_count` key hashes. No parent.
void RecordSpan(SpanKind kind, uint64_t start_ns, uint64_t end_ns, const uint64_t* key_hashes,
                uint32_t key_count, uint32_t extra);

// --- Decorators ---

// Wraps an engine factory so each instance is a TracingStore over the real
// engine.
p2kvs::EngineFactory WrapEngineFactory(p2kvs::EngineFactory inner);

// EnvWrapper that wraps every file it opens so each file call is an io span.
// Forwards every Env virtual, including the ones EnvWrapper leaves at Env's
// defaults, so the engine sees the same environment as without it.
class TracingEnv : public p2kvs::EnvWrapper {
 public:
  explicit TracingEnv(p2kvs::Env* target) : EnvWrapper(target) {}

  p2kvs::Status NewSequentialFile(const std::string& f,
                                  std::unique_ptr<p2kvs::SequentialFile>* r) override;
  p2kvs::Status NewRandomAccessFile(const std::string& f,
                                    std::unique_ptr<p2kvs::RandomAccessFile>* r) override;
  p2kvs::Status NewWritableFile(const std::string& f,
                                std::unique_ptr<p2kvs::WritableFile>* r) override;
  p2kvs::Status NewAppendableFile(const std::string& f,
                                  std::unique_ptr<p2kvs::WritableFile>* r) override;
  p2kvs::Status NewRandomWritableFile(const std::string& f,
                                      std::unique_ptr<p2kvs::RandomWritableFile>* r) override;
  p2kvs::Status RemoveDirRecursively(const std::string& d) override {
    return target()->RemoveDirRecursively(d);
  }
  void SleepForMicroseconds(int micros) override { target()->SleepForMicroseconds(micros); }
};

// Counts flush / compaction / stall events from every partition that
// complete while spans are being recorded.
class CountingListener : public p2kvs::EventListener {
 public:
  void OnFlushCompleted(int worker_id, const p2kvs::FlushEventInfo& info) override;
  void OnCompactionCompleted(int worker_id, const p2kvs::CompactionEventInfo& info) override;
  void OnWriteStalled(int worker_id, const p2kvs::StallEventInfo& info) override;

  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> flush_bytes{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_bytes{0};
  std::atomic<uint64_t> stalls{0};
  std::atomic<uint64_t> stall_us{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
