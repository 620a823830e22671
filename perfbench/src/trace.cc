#include "perfbench/src/trace.h"

#include "src/util/clock.h"
#include "src/util/hash.h"

namespace perfbench {

using p2kvs::Env;
using p2kvs::Iterator;
using p2kvs::KVStore;
using p2kvs::KvWriteOptions;
using p2kvs::NowNanos;
using p2kvs::Slice;
using p2kvs::Status;

namespace {

// Per-thread cap so a long traced run cannot exhaust memory; overflow is
// counted in ThreadSpans::dropped and reported.
constexpr size_t kMaxSpansPerThread = 4u << 20;

thread_local ThreadSpans* t_spans = nullptr;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[] = {
      "facade.get", "facade.put", "facade.scan", "facade.multiget", "wire.get",
      "wire.put",   "lsm.get",    "lsm.put",     "lsm.delete",      "lsm.write",
      "lsm.multiget", "lsm.scan", "io.read",     "io.seq_read",     "io.append",
      "io.flush",   "io.sync",    "io.write",    "io.close"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(SpanKind::kNumKinds));
  return kNames[static_cast<size_t>(kind)];
}

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder* recorder = new SpanRecorder();  // outlives every thread
  return *recorder;
}

ThreadSpans* SpanRecorder::Local() {
  if (t_spans == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadSpans>());
    threads_.back()->tid = static_cast<int>(threads_.size());
    t_spans = threads_.back().get();
  }
  return t_spans;
}

std::vector<ThreadSpans*> SpanRecorder::All() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSpans*> out;
  for (const auto& t : threads_) {
    out.push_back(t.get());
  }
  return out;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    t->spans.clear();
    t->keys.clear();
    t->open.clear();
    t->dropped = 0;
  }
}

uint64_t KeyHash(const Slice& key) { return p2kvs::Hash64(key); }

SpanScope::SpanScope(SpanKind kind) {
  SpanRecorder& rec = SpanRecorder::Instance();
  if (!rec.enabled()) {
    return;
  }
  ThreadSpans* t = rec.Local();
  if (t->spans.size() >= kMaxSpansPerThread) {
    t->dropped++;
    return;
  }
  Span s;
  s.kind = kind;
  s.parent = t->open.empty() ? kNoParent : t->open.back();
  s.key_off = static_cast<uint32_t>(t->keys.size());
  idx_ = static_cast<uint32_t>(t->spans.size());
  t->open.push_back(idx_);
  buf_ = t;
  s.start_ns = NowNanos();
  t->spans.push_back(s);
}

SpanScope::~SpanScope() {
  if (buf_ == nullptr) {
    return;
  }
  const uint64_t now = NowNanos();
  if (idx_ < buf_->spans.size()) {
    buf_->spans[idx_].end_ns = now;
  }
  // Scopes close in LIFO order on one thread; an iterator destroyed out of
  // order is removed wherever it sits.
  for (size_t i = buf_->open.size(); i-- > 0;) {
    if (buf_->open[i] == idx_) {
      buf_->open.erase(buf_->open.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

void SpanScope::AddKey(uint64_t hash) {
  if (buf_ != nullptr && idx_ < buf_->spans.size()) {
    buf_->keys.push_back(hash);
    buf_->spans[idx_].key_count++;
  }
}

void SpanScope::SetExtra(uint32_t extra) {
  if (buf_ != nullptr && idx_ < buf_->spans.size()) {
    buf_->spans[idx_].extra = extra;
  }
}

void RecordSpan(SpanKind kind, uint64_t start_ns, uint64_t end_ns, const uint64_t* key_hashes,
                uint32_t key_count, uint32_t extra) {
  SpanRecorder& rec = SpanRecorder::Instance();
  if (!rec.enabled()) {
    return;
  }
  ThreadSpans* t = rec.Local();
  if (t->spans.size() >= kMaxSpansPerThread) {
    t->dropped++;
    return;
  }
  Span s;
  s.kind = kind;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.key_off = static_cast<uint32_t>(t->keys.size());
  s.key_count = key_count;
  s.extra = extra;
  t->keys.insert(t->keys.end(), key_hashes, key_hashes + key_count);
  t->spans.push_back(s);
}

namespace {

// --- KVStore decorator ---

// Keeps an lsm.scan span open for the iterator's lifetime; the seek key links
// it to the façade scan it served, and every entry it visits is counted.
class TracingIterator : public Iterator {
 public:
  explicit TracingIterator(Iterator* inner) : span_(SpanKind::kLsmScan), inner_(inner) {}
  ~TracingIterator() override { span_.SetExtra(visited_); }

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override {
    inner_->SeekToFirst();
    Visit();
  }
  void SeekToLast() override {
    inner_->SeekToLast();
    Visit();
  }
  void Seek(const Slice& target) override {
    span_.AddKey(KeyHash(target));
    inner_->Seek(target);
    Visit();
  }
  void Next() override {
    inner_->Next();
    Visit();
  }
  void Prev() override {
    inner_->Prev();
    Visit();
  }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status status() const override { return inner_->status(); }

 private:
  void Visit() { visited_ += inner_->Valid() ? 1 : 0; }

  SpanScope span_;  // declared first: closes after the inner iterator is gone
  std::unique_ptr<Iterator> inner_;
  uint32_t visited_ = 0;
};

class KeyCollector : public p2kvs::WriteBatch::Handler {
 public:
  explicit KeyCollector(SpanScope* span) : span_(span) {}
  void Put(const Slice& key, const Slice&) override { span_->AddKey(KeyHash(key)); }
  void Delete(const Slice& key) override { span_->AddKey(KeyHash(key)); }

 private:
  SpanScope* span_;
};

class TracingStore : public KVStore {
 public:
  explicit TracingStore(std::unique_ptr<KVStore> inner) : inner_(std::move(inner)) {}

  p2kvs::EngineCaps caps() const override { return inner_->caps(); }

  Status Put(const Slice& key, const Slice& value, const KvWriteOptions& o) override {
    SpanScope span(SpanKind::kLsmPut);
    span.AddKey(KeyHash(key));
    return inner_->Put(key, value, o);
  }
  Status Delete(const Slice& key, const KvWriteOptions& o) override {
    SpanScope span(SpanKind::kLsmDelete);
    span.AddKey(KeyHash(key));
    return inner_->Delete(key, o);
  }
  Status Write(p2kvs::WriteBatch* batch, const KvWriteOptions& o) override {
    SpanScope span(SpanKind::kLsmWrite);
    if (span.active()) {
      KeyCollector keys(&span);
      batch->Iterate(&keys).IgnoreError();
    }
    return inner_->Write(batch, o);
  }
  Status Get(const Slice& key, std::string* value) override {
    SpanScope span(SpanKind::kLsmGet);
    span.AddKey(KeyHash(key));
    return inner_->Get(key, value);
  }
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    SpanScope span(SpanKind::kLsmMultiGet);
    if (span.active()) {
      for (const Slice& k : keys) {
        span.AddKey(KeyHash(k));
      }
    }
    return inner_->MultiGet(keys, values);
  }
  Iterator* NewIterator() override {
    if (!SpanRecorder::Instance().enabled()) {
      return inner_->NewIterator();
    }
    return new TracingIterator(inner_->NewIterator());
  }
  const p2kvs::Snapshot* GetSnapshot() override { return inner_->GetSnapshot(); }
  void ReleaseSnapshot(const p2kvs::Snapshot* s) override { inner_->ReleaseSnapshot(s); }
  Status GetAtSnapshot(const Slice& key, std::string* value,
                       const p2kvs::Snapshot* s) override {
    SpanScope span(SpanKind::kLsmGet);
    span.AddKey(KeyHash(key));
    return inner_->GetAtSnapshot(key, value, s);
  }
  void InstallEventHooks(const p2kvs::EngineEventHooks& hooks) override {
    inner_->InstallEventHooks(hooks);
  }
  Status Flush() override { return inner_->Flush(); }
  Status Resume() override { return inner_->Resume(); }
  void WaitIdle() override { inner_->WaitIdle(); }
  size_t ApproximateMemoryUsage() const override { return inner_->ApproximateMemoryUsage(); }

 private:
  std::unique_ptr<KVStore> inner_;
};

// --- File decorators ---

class TracingSequentialFile : public p2kvs::SequentialFile {
 public:
  explicit TracingSequentialFile(std::unique_ptr<p2kvs::SequentialFile> f) : f_(std::move(f)) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    SpanScope span(SpanKind::kIoSeqRead);
    span.SetExtra(static_cast<uint32_t>(n));
    return f_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override { return f_->Skip(n); }

 private:
  std::unique_ptr<p2kvs::SequentialFile> f_;
};

class TracingRandomAccessFile : public p2kvs::RandomAccessFile {
 public:
  explicit TracingRandomAccessFile(std::unique_ptr<p2kvs::RandomAccessFile> f)
      : f_(std::move(f)) {}
  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
    SpanScope span(SpanKind::kIoRead);
    span.SetExtra(static_cast<uint32_t>(n));
    return f_->Read(offset, n, result, scratch);
  }
  int raw_fd() const override { return f_->raw_fd(); }

 private:
  std::unique_ptr<p2kvs::RandomAccessFile> f_;
};

class TracingWritableFile : public p2kvs::WritableFile {
 public:
  explicit TracingWritableFile(std::unique_ptr<p2kvs::WritableFile> f) : f_(std::move(f)) {}
  Status Append(const Slice& data) override {
    SpanScope span(SpanKind::kIoAppend);
    span.SetExtra(static_cast<uint32_t>(data.size()));
    return f_->Append(data);
  }
  Status Flush() override {
    SpanScope span(SpanKind::kIoFlush);
    return f_->Flush();
  }
  Status Sync() override {
    SpanScope span(SpanKind::kIoSync);
    return f_->Sync();
  }
  Status Close() override {
    SpanScope span(SpanKind::kIoClose);
    return f_->Close();
  }

 private:
  std::unique_ptr<p2kvs::WritableFile> f_;
};

class TracingRandomWritableFile : public p2kvs::RandomWritableFile {
 public:
  explicit TracingRandomWritableFile(std::unique_ptr<p2kvs::RandomWritableFile> f)
      : f_(std::move(f)) {}
  Status Write(uint64_t offset, const Slice& data) override {
    SpanScope span(SpanKind::kIoWrite);
    span.SetExtra(static_cast<uint32_t>(data.size()));
    return f_->Write(offset, data);
  }
  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
    SpanScope span(SpanKind::kIoRead);
    span.SetExtra(static_cast<uint32_t>(n));
    return f_->Read(offset, n, result, scratch);
  }
  Status Sync() override {
    SpanScope span(SpanKind::kIoSync);
    return f_->Sync();
  }
  Status Truncate(uint64_t size) override { return f_->Truncate(size); }
  Status Close() override {
    SpanScope span(SpanKind::kIoClose);
    return f_->Close();
  }
  int raw_fd() const override { return f_->raw_fd(); }

 private:
  std::unique_ptr<p2kvs::RandomWritableFile> f_;
};

template <typename Wrapper, typename File>
Status Wrap(Status s, std::unique_ptr<File>* r) {
  if (s.ok() && *r != nullptr) {
    *r = std::make_unique<Wrapper>(std::move(*r));
  }
  return s;
}

}  // namespace

p2kvs::EngineFactory WrapEngineFactory(p2kvs::EngineFactory inner) {
  return [inner = std::move(inner)](const std::string& path,
                                    std::function<bool(uint64_t)> recovery_filter,
                                    std::unique_ptr<KVStore>* out) {
    std::unique_ptr<KVStore> engine;
    Status s = inner(path, std::move(recovery_filter), &engine);
    if (s.ok()) {
      *out = std::make_unique<TracingStore>(std::move(engine));
    }
    return s;
  };
}

Status TracingEnv::NewSequentialFile(const std::string& f,
                                     std::unique_ptr<p2kvs::SequentialFile>* r) {
  return Wrap<TracingSequentialFile>(target()->NewSequentialFile(f, r), r);
}
Status TracingEnv::NewRandomAccessFile(const std::string& f,
                                       std::unique_ptr<p2kvs::RandomAccessFile>* r) {
  return Wrap<TracingRandomAccessFile>(target()->NewRandomAccessFile(f, r), r);
}
Status TracingEnv::NewWritableFile(const std::string& f,
                                   std::unique_ptr<p2kvs::WritableFile>* r) {
  return Wrap<TracingWritableFile>(target()->NewWritableFile(f, r), r);
}
Status TracingEnv::NewAppendableFile(const std::string& f,
                                     std::unique_ptr<p2kvs::WritableFile>* r) {
  return Wrap<TracingWritableFile>(target()->NewAppendableFile(f, r), r);
}
Status TracingEnv::NewRandomWritableFile(const std::string& f,
                                         std::unique_ptr<p2kvs::RandomWritableFile>* r) {
  return Wrap<TracingRandomWritableFile>(target()->NewRandomWritableFile(f, r), r);
}

void CountingListener::OnFlushCompleted(int, const p2kvs::FlushEventInfo& info) {
  if (!SpanRecorder::Instance().enabled()) {
    return;
  }
  flushes.fetch_add(1, std::memory_order_relaxed);
  flush_bytes.fetch_add(info.bytes_written, std::memory_order_relaxed);
}

void CountingListener::OnCompactionCompleted(int, const p2kvs::CompactionEventInfo& info) {
  if (!SpanRecorder::Instance().enabled()) {
    return;
  }
  compactions.fetch_add(1, std::memory_order_relaxed);
  compaction_bytes.fetch_add(info.bytes_written, std::memory_order_relaxed);
}

void CountingListener::OnWriteStalled(int, const p2kvs::StallEventInfo& info) {
  if (!SpanRecorder::Instance().enabled()) {
    return;
  }
  stalls.fetch_add(1, std::memory_order_relaxed);
  stall_us.fetch_add(info.stall_micros, std::memory_order_relaxed);
}

}  // namespace perfbench
