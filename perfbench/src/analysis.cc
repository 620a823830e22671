#include "perfbench/src/analysis.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

struct EngineRef {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t io_ns;  // nested io time on the same thread
};

}  // namespace

TraceAnalysis Analyze(const std::vector<ThreadSpans*>& threads) {
  TraceAnalysis a;
  std::vector<EngineRef> engine;
  // Engine spans by key, reads and writes apart: a read is served by an
  // engine read of its key, never by a write of the same key that happened
  // to run inside its window.
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_key[2];

  for (const ThreadSpans* t : threads) {
    a.dropped += t->dropped;
    a.spans += t->spans.size();
    // Nested io time per lsm span on this thread.
    std::vector<uint64_t> child_io(t->spans.size(), 0);
    for (const Span& s : t->spans) {
      const int k = static_cast<int>(s.kind);
      const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      a.count[k]++;
      a.ns[k] += static_cast<double>(dur);
      a.extra[k] += s.extra;
      if (IsLsm(s.kind)) {
        a.keys[k] += s.key_count;
      }
      if (!IsIo(s.kind)) {
        continue;
      }
      if (s.parent != kNoParent && IsLsm(t->spans[s.parent].kind)) {
        a.io_fg[k]++;
        a.io_fg_bytes[k] += s.extra;
        child_io[s.parent] += dur;
      } else {
        a.io_bg_ns += static_cast<double>(dur);
      }
    }
    for (size_t i = 0; i < t->spans.size(); i++) {
      const Span& s = t->spans[i];
      if (!IsLsm(s.kind)) {
        continue;
      }
      const uint32_t id = static_cast<uint32_t>(engine.size());
      engine.push_back({s.start_ns, s.end_ns, child_io[i]});
      auto& index = by_key[IsWrite(s.kind)];
      for (uint32_t j = 0; j < s.key_count; j++) {
        index[t->keys[s.key_off + j]].push_back(id);
      }
    }
  }
  for (auto& index : by_key) {
    for (auto& [key, ids] : index) {
      std::sort(ids.begin(), ids.end(),
                [&](uint32_t x, uint32_t y) { return engine[x].start_ns < engine[y].start_ns; });
    }
  }

  std::vector<uint32_t> matched;
  for (const ThreadSpans* t : threads) {
    for (const Span& s : t->spans) {
      const int k = static_cast<int>(s.kind);
      if (k >= TraceAnalysis::kClientKinds) {
        continue;
      }
      ClassBudget& b = a.budget[k];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      b.n++;
      b.span_ns += dur;
      // A scan is served by one engine scan per partition, all with the same
      // seek key; a point op by the first engine span carrying its key.
      const bool take_all = s.kind == SpanKind::kFacadeScan;
      matched.clear();
      const auto& index = by_key[IsWrite(s.kind)];
      for (uint32_t j = 0; j < s.key_count; j++) {
        auto it = index.find(t->keys[s.key_off + j]);
        if (it == index.end()) {
          continue;
        }
        const std::vector<uint32_t>& ids = it->second;
        auto pos = std::lower_bound(ids.begin(), ids.end(), s.start_ns,
                                    [&](uint32_t id, uint64_t ts) {
                                      return engine[id].start_ns < ts;
                                    });
        for (; pos != ids.end() && engine[*pos].start_ns <= s.end_ns; ++pos) {
          if (engine[*pos].end_ns <= s.end_ns) {
            matched.push_back(*pos);
            if (!take_all) {
              break;
            }
          }
        }
      }
      if (matched.empty()) {
        b.unattributed_ns += dur;
        continue;
      }
      std::sort(matched.begin(), matched.end());
      matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
      uint32_t crit = matched[0];
      uint64_t first_end = engine[crit].end_ns;
      for (uint32_t id : matched) {
        if (engine[id].end_ns > engine[crit].end_ns) {
          crit = id;
        }
        first_end = std::min(first_end, engine[id].end_ns);
      }
      const EngineRef& e = engine[crit];
      const double engine_ns = static_cast<double>(e.end_ns - e.start_ns);
      b.linked++;
      b.handoff_ns += static_cast<double>(e.start_ns - s.start_ns);
      b.io_ns += static_cast<double>(e.io_ns);
      b.lsm_self_ns += engine_ns - static_cast<double>(e.io_ns);
      b.tail_ns += static_cast<double>(s.end_ns - e.end_ns);
      b.straggler_ns += static_cast<double>(e.end_ns - first_end);
    }
  }
  return a;
}

bool WriteSpans(const std::string& path, const std::vector<ThreadSpans*>& threads,
                double seconds) {
  uint64_t first = UINT64_MAX;
  for (const ThreadSpans* t : threads) {
    for (const Span& s : t->spans) {
      first = std::min(first, s.start_ns);
    }
  }
  const uint64_t until = first + static_cast<uint64_t>(seconds * 1e9);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id\tparent\tname\ttid\tstart_ns\tend_ns\tkeys\textra\n");
  for (const ThreadSpans* t : threads) {
    for (size_t i = 0; i < t->spans.size(); i++) {
      const Span& s = t->spans[i];
      if (s.start_ns >= until) {
        continue;
      }
      char parent[32] = "-";
      if (s.parent != kNoParent) {
        std::snprintf(parent, sizeof(parent), "%d.%" PRIu32, t->tid, s.parent);
      }
      std::fprintf(f, "%d.%zu\t%s\t%s\t%d\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu32 "\t%" PRIu32 "\n",
                   t->tid, i, parent, SpanKindName(s.kind), t->tid, s.start_ns, s.end_ns,
                   s.key_count, s.extra);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
