// Turns the spans of a traced run into per-layer self times and a budget per
// request class that must add up to what the client observed.
//
// A client span (facade.* from issue to completion of an async call, wire.*
// from send to receipt) is linked to the engine spans (lsm.*, on worker threads) that
// served it by key and time window: an engine span serves a client span when
// it carries one of its keys, is of the same direction (read or write) and
// lies inside its window. Of the linked engine
// spans the one that ended last is the critical one, and the client span
// splits into
//
//   handoff  = critical start - client start     (submit, queue, batch build)
//   lsm self = critical duration - its io children
//   io       = io spans nested under the critical span on its thread
//   tail     = client end - critical end         (completion, wake-up, merge)
//
// which sum to the client span. A client span with no linked engine span is
// unattributed as a whole; the budget reports that remainder per class.

#ifndef PERFBENCH_SRC_ANALYSIS_H_
#define PERFBENCH_SRC_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"

namespace perfbench {

// Largest unattributed share of a class's total span time that still closes
// the budget.
constexpr double kBudgetTolerance = 0.05;

struct ClassBudget {
  uint64_t n = 0;
  uint64_t linked = 0;
  double span_ns = 0;  // sums over all n spans
  double handoff_ns = 0;
  double lsm_self_ns = 0;
  double io_ns = 0;
  double tail_ns = 0;
  double straggler_ns = 0;  // fan-out: last part end - first part end
  double unattributed_ns = 0;

  double Mean(double total_ns) const { return n == 0 ? 0 : total_ns / 1000.0 / n; }
  double LinkedMean(double total_ns) const {
    return linked == 0 ? 0 : total_ns / 1000.0 / linked;
  }
  double UnattributedFrac() const { return span_ns == 0 ? 0 : unattributed_ns / span_ns; }
};

struct TraceAnalysis {
  static constexpr int kClientKinds = static_cast<int>(SpanKind::kLsmGet);
  ClassBudget budget[kClientKinds];  // indexed by client SpanKind

  static constexpr int kKinds = static_cast<int>(SpanKind::kNumKinds);
  uint64_t count[kKinds] = {};
  double ns[kKinds] = {};        // total duration
  uint64_t keys[kKinds] = {};    // keys carried (lsm spans)
  uint64_t extra[kKinds] = {};   // summed `extra` (scan: entries visited)
  uint64_t io_fg[kKinds] = {};   // io spans nested under an lsm span
  uint64_t io_fg_bytes[kKinds] = {};  // their summed `extra` (bytes)
  double io_bg_ns = 0;  // io spans with no open lsm span on their thread
  uint64_t spans = 0;
  uint64_t dropped = 0;
};

TraceAnalysis Analyze(const std::vector<ThreadSpans*>& threads);

// Writes the spans that start in the first `seconds` of the recording, one
// tab-separated line each:
//   id  parent  name  tid  start_ns  end_ns  keys  extra
// ids are "<tid>.<index>"; parent is "-" for a root span.
bool WriteSpans(const std::string& path, const std::vector<ThreadSpans*>& threads,
                double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ANALYSIS_H_
