// Distributed trace identity and the remote-span buffer.
//
// A TraceContext travels with a request through the cluster wire protocol
// (an optional trailing field on kApply frames, see cluster/wire.hpp): the
// frontend mints one trace id per sampled request, workers stamp it on the
// spans they record, and a later kTraceDump exchange returns those spans to
// the frontend for merging (trace_merge.hpp). The context is independent of
// the process-wide Tracer: request tracing is a per-request sampling
// decision, so merged timelines work whether or not the Tracer is enabled.
//
// RemoteSpan timestamps are raw steady_clock nanoseconds of the *recording*
// process; they only become comparable after the merger applies the
// NTP-style per-worker clock offset.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tlrwse::obs {

/// Identity of one distributed request trace. trace_id 0 means "no trace";
/// sampled gates span recording so unsampled requests pay nothing beyond
/// carrying the three fields.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  bool sampled = false;

  [[nodiscard]] bool active() const noexcept {
    return trace_id != 0 && sampled;
  }
};

/// One completed span as recorded by a (possibly remote) process, stamped
/// with its local steady clock.
struct RemoteSpan {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t ts_ns = 0;   // local steady_clock, ns since an arbitrary epoch
  std::uint64_t dur_ns = 0;
};

/// Raw steady_clock now in nanoseconds — the clock RemoteSpan timestamps
/// and the wire-level worker_recv/send stamps are taken from.
[[nodiscard]] inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Bounded, mutex-guarded store of completed spans keyed by trace id.
/// Workers record into it during a sampled apply and hand the spans back on
/// kTraceDump; take() removes the trace so the buffer never accumulates
/// traces the frontend stopped caring about beyond the FIFO cap. Overflow
/// (too many traces, or too many spans in one trace) is counted per trace
/// and surfaced in the dump so the merger can mark lossy timelines.
class RemoteSpanBuffer {
 public:
  explicit RemoteSpanBuffer(std::size_t max_traces = 64,
                            std::size_t max_spans_per_trace = 4096)
      : max_traces_(max_traces ? max_traces : 1),
        max_spans_(max_spans_per_trace ? max_spans_per_trace : 1) {}

  /// Process-unique (per buffer) span id; 0 is never returned.
  [[nodiscard]] std::uint64_t next_span_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(RemoteSpan span) {
    if (span.trace_id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = traces_.find(span.trace_id);
    if (it == traces_.end()) {
      while (traces_.size() >= max_traces_ && !order_.empty()) {
        traces_.erase(order_.front());
        order_.pop_front();
      }
      order_.push_back(span.trace_id);
      it = traces_.emplace(span.trace_id, Entry{}).first;
    }
    Entry& e = it->second;
    if (e.spans.size() >= max_spans_) {
      ++e.dropped;
      return;
    }
    e.spans.push_back(std::move(span));
  }

  struct Dump {
    std::vector<RemoteSpan> spans;
    std::uint64_t dropped = 0;
  };

  /// Removes and returns the trace's spans (empty Dump for unknown ids).
  [[nodiscard]] Dump take(std::uint64_t trace_id) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = traces_.find(trace_id);
    if (it == traces_.end()) return {};
    Dump out{std::move(it->second.spans), it->second.dropped};
    traces_.erase(it);
    for (auto o = order_.begin(); o != order_.end(); ++o) {
      if (*o == trace_id) {
        order_.erase(o);
        break;
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t trace_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return traces_.size();
  }

 private:
  struct Entry {
    std::vector<RemoteSpan> spans;
    std::uint64_t dropped = 0;
  };

  const std::size_t max_traces_;
  const std::size_t max_spans_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> traces_;
  std::deque<std::uint64_t> order_;  // insertion order, for FIFO eviction
};

}  // namespace tlrwse::obs
