// Scoped-span tracer emitting chrome://tracing JSON.
//
// Spans are recorded into fixed-capacity per-thread ring buffers (no locks,
// no allocation on the hot path once a thread's buffer exists), merged and
// sorted only when the trace is dumped. The fast path when tracing is not
// enabled is a single relaxed atomic load.
//
// Span names and categories must be string literals (or otherwise outlive
// the tracer): events store the pointers, not copies.
//
// Output loads directly in chrome://tracing / https://ui.perfetto.dev:
// complete ("ph":"X") events carry start + duration in microseconds, and
// counter ("ph":"C") events plot series such as the LSQR residual.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tlrwse::obs {

class MetricsRegistry;

/// Global recording flag; inline so the enabled() check inlines to one
/// relaxed load at every instrumentation site.
inline std::atomic<bool> g_trace_enabled{false};

/// Detail tier: fine-grained spans (per-frequency MVMs, per-tile
/// compressions) record only when this is also set. They are ~64x more
/// events than the coarse tier, so detail is opt-in — coarse tracing stays
/// within the <2% overhead budget (bench_obs_overhead) while `tlrwse_cli
/// --trace-out` turns detail on for full-fidelity timelines.
inline std::atomic<bool> g_trace_detail{false};

struct TraceEvent {
  const char* name = nullptr;  // string literal
  const char* cat = nullptr;   // string literal
  std::uint64_t ts_ns = 0;     // start, ns since the tracer epoch
  std::uint64_t dur_ns = 0;    // 'X' events only
  double value = 0.0;          // 'C' events only
  char ph = 'X';
};

class Tracer {
 public:
  static Tracer& instance();

  [[nodiscard]] static bool enabled() noexcept {
    return g_trace_enabled.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static bool detail_enabled() noexcept {
    return g_trace_detail.load(std::memory_order_relaxed) &&
           g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Clears previous events and starts recording. `capacity` is the ring
  /// size per thread; when a thread records more, the oldest events are
  /// overwritten (and counted as dropped in the dump's metadata). `detail`
  /// additionally records the fine-grained tier (see g_trace_detail).
  void enable(std::size_t capacity = kDefaultCapacity, bool detail = false);
  void disable() {
    g_trace_enabled.store(false, std::memory_order_relaxed);
    g_trace_detail.store(false, std::memory_order_relaxed);
  }
  /// Drops all recorded events (buffers of finished threads included).
  void clear();

  /// Hot-path entry points; no-ops unless enabled().
  void complete(const char* name, const char* cat, std::uint64_t ts_ns,
                std::uint64_t dur_ns) noexcept {
    push(TraceEvent{name, cat, ts_ns, dur_ns, 0.0, 'X'});
  }
  void counter(const char* name, double value) noexcept {
    push(TraceEvent{name, "counter", now_ns(), 0, value, 'C'});
  }

  /// Labels the calling thread in the emitted thread_name metadata.
  void set_thread_name(const char* name);

  /// ns since the tracer epoch (process start of the tracing clock).
  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch())
            .count());
  }

  /// Merged chrome://tracing JSON ({"traceEvents":[...]}). Call after the
  /// traced work has finished (events are read without synchronising with
  /// in-flight writers).
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Events currently held across all thread buffers (post-overwrite).
  [[nodiscard]] std::size_t event_count() const;
  /// Events lost to ring overwrite since enable().
  [[nodiscard]] std::uint64_t dropped_count() const;

  /// Per-thread drop accounting — which thread's ring overflowed, not just
  /// the process total — so a lossy trace is diagnosable to the thread
  /// that needs a bigger ring (or less detail).
  struct ThreadDrops {
    std::uint32_t tid = 0;
    std::string name;  // "thread-<tid>" when unnamed
    std::uint64_t dropped = 0;
  };
  [[nodiscard]] std::vector<ThreadDrops> dropped_by_thread() const;
  /// Publishes one gauge per thread ("trace.dropped_spans.<name>") plus
  /// the process total ("trace.dropped_spans.total") into `reg`, so the
  /// snapshot shows per-thread losses alongside the global counter.
  void publish_drop_gauges(MetricsRegistry& reg) const;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  struct ThreadBuffer {
    std::vector<TraceEvent> ring;
    std::uint64_t pushed = 0;  // total push() calls; ring holds the tail
    std::uint32_t tid = 0;
    std::string name;
  };

  void push(TraceEvent e) noexcept;
  ThreadBuffer& local();
  static std::chrono::steady_clock::time_point epoch();

  mutable std::mutex mu_;  // buffer registry + dump; never on the hot path
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::size_t capacity_ = kDefaultCapacity;
  /// Bumped by enable()/clear(); thread-local buffer handles cache it so
  /// the hot path revalidates with one atomic load instead of the mutex.
  std::atomic<std::uint64_t> generation_{1};
};

/// RAII span: captures the start time on construction when tracing is
/// enabled, records a complete event on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "tlrwse") noexcept {
    if (Tracer::enabled()) {
      name_ = name;
      cat_ = cat;
      start_ = Tracer::now_ns();
    }
  }
  /// Detail-tier constructor (used via TLRWSE_TRACE_SPAN_DETAIL): records
  /// only when detail tracing is on.
  ScopedSpan(const char* name, const char* cat, bool detail_gate) noexcept {
    if (detail_gate ? Tracer::detail_enabled() : Tracer::enabled()) {
      name_ = name;
      cat_ = cat;
      start_ = Tracer::now_ns();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (name_ != nullptr && Tracer::enabled()) {
      Tracer::instance().complete(name_, cat_, start_,
                                  Tracer::now_ns() - start_);
    }
  }

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace tlrwse::obs

// ------------------------------------------------------------------------
// Instrumentation macros. TLRWSE_TRACE_SPAN opens a span covering the rest
// of the enclosing scope; TLRWSE_TRACE_COUNTER plots a named series value.
#define TLRWSE_OBS_CONCAT2(a, b) a##b
#define TLRWSE_OBS_CONCAT(a, b) TLRWSE_OBS_CONCAT2(a, b)

#define TLRWSE_TRACE_SPAN(name, cat)             \
  ::tlrwse::obs::ScopedSpan TLRWSE_OBS_CONCAT(   \
      tlrwse_span_, __LINE__)(name, cat)
#define TLRWSE_TRACE_SPAN_DETAIL(name, cat)      \
  ::tlrwse::obs::ScopedSpan TLRWSE_OBS_CONCAT(   \
      tlrwse_span_, __LINE__)(name, cat, /*detail_gate=*/true)
#define TLRWSE_TRACE_COUNTER(name, value)                     \
  do {                                                        \
    if (::tlrwse::obs::Tracer::enabled()) {                   \
      ::tlrwse::obs::Tracer::instance().counter(name, value); \
    }                                                         \
  } while (0)
