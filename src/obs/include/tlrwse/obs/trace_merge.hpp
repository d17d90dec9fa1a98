// Merging per-process span dumps into one chrome://tracing timeline.
//
// The frontend and each worker record RemoteSpans against their own
// steady_clock; before they can share a timeline, every worker's clock must
// be expressed in frontend time. Each RPC exchange yields one NTP-style
// sample — the frontend's send (t0) / receive (t3) stamps bracket the
// worker's receive (t1) / send (t2) stamps — giving
//
//   offset = ((t1 - t0) + (t2 - t3)) / 2
//
// the worker clock minus the frontend clock, exact when the network delay
// is symmetric. Among a request's samples the one with the smallest
// round-trip residual (t3-t0) - (t2-t1) bounds the error tightest, so the
// merger uses the min-RTT sample per worker (the classic NTP filter).
// Aligned spans are additionally clamped into the frontend's request
// window, which keeps the merged timeline monotone with non-negative
// overlap even under offset estimation error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tlrwse/obs/stage_breakdown.hpp"
#include "tlrwse/obs/trace_context.hpp"

namespace tlrwse::obs {

/// One RPC's four timestamps, all raw steady_clock ns: t0/t3 on the
/// frontend clock, t1/t2 on the worker clock.
struct ClockSample {
  std::uint64_t local_send_ns = 0;   // t0
  std::uint64_t remote_recv_ns = 0;  // t1
  std::uint64_t remote_send_ns = 0;  // t2
  std::uint64_t local_recv_ns = 0;   // t3
};

/// Round-trip time minus the worker's processing time — the uncertainty of
/// the sample's offset estimate.
[[nodiscard]] std::int64_t clock_sample_rtt_ns(const ClockSample& s) noexcept;

/// Offset of the remote clock relative to the local clock (remote = local
/// + offset), from the minimum-RTT sample. Returns 0 for an empty set.
[[nodiscard]] std::int64_t estimate_clock_offset_ns(
    std::span<const ClockSample> samples) noexcept;

/// Per-request observability state threaded through one solve. Stage times
/// are always accumulated (they feed the per-stage latency histograms and
/// the response's StageBreakdown); spans and clock samples are only
/// collected when `ctx.sampled` — the cost of a full distributed timeline
/// is opt-in per request.
struct RequestTrace {
  TraceContext ctx;
  StageBreakdown stages;
  /// Frontend-side spans (raw steady-clock ns), bounded; overflow counts
  /// into `dropped` so the merged timeline can be marked lossy.
  std::vector<RemoteSpan> spans;
  std::uint64_t dropped = 0;
  /// RPC send/recv timestamp pairs per fleet index, for NTP-style clock
  /// alignment of that worker's spans against the frontend clock.
  std::vector<std::vector<ClockSample>> clock_samples;
  /// Fleet indices that served at least one exchange of this request.
  std::vector<std::size_t> workers;

  static constexpr std::size_t kMaxSpans = 4096;

  std::uint64_t new_span_id() { return next_span_id_++; }
  void note_worker(std::size_t w) {
    for (const std::size_t seen : workers) {
      if (seen == w) return;
    }
    workers.push_back(w);
  }
  void add_span(std::string name, std::uint64_t span_id,
                std::uint64_t parent_span_id, std::uint64_t ts_ns,
                std::uint64_t dur_ns) {
    if (spans.size() >= kMaxSpans) {
      ++dropped;
      return;
    }
    RemoteSpan s;
    s.name = std::move(name);
    s.trace_id = ctx.trace_id;
    s.span_id = span_id;
    s.parent_span_id = parent_span_id;
    s.ts_ns = ts_ns;
    s.dur_ns = dur_ns;
    spans.push_back(std::move(s));
  }

 private:
  std::uint64_t next_span_id_ = 1;
};

/// One worker's contribution to a merged trace.
struct WorkerTrace {
  std::string name;                 // process label in the timeline
  std::int64_t offset_ns = 0;       // worker clock minus frontend clock
  std::vector<RemoteSpan> spans;    // worker-clock timestamps
  std::uint64_t dropped_spans = 0;  // buffer overflow during recording
};

struct MergedTraceInput {
  std::uint64_t trace_id = 0;
  std::string frontend_name = "frontend";
  std::vector<RemoteSpan> frontend_spans;  // frontend-clock timestamps
  std::uint64_t frontend_dropped = 0;
  std::vector<WorkerTrace> workers;
};

/// One chrome://tracing JSON object: pid 0 is the frontend, pid i+1 worker
/// i, all timestamps aligned to the frontend clock, normalised so the
/// earliest frontend span starts at ts=0, worker spans clamped into the
/// frontend window, events sorted by start time. Top-level keys "traceId"
/// and "droppedSpans" carry the identity and the total loss so validators
/// (tools/check_trace_json.py) and lossy-timeline marking need no parsing
/// of event args.
[[nodiscard]] std::string merge_trace_json(const MergedTraceInput& input);

}  // namespace tlrwse::obs
