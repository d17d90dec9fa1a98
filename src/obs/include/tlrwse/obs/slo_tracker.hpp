// Rolling-window SLO tracking with slow-request exemplars.
//
// A ring of time-sliced log2 histograms (the same octave buckets as
// obs::Histogram) gives windowed p50/p95/p99 without keeping per-request
// samples: each slot covers window_s / slots seconds and is lazily reset
// when its epoch comes around again, so record() is a mutex + a handful of
// integer ops regardless of traffic. The window view merges only slots
// whose epoch is still inside the window.
//
// Error-budget burn rate follows the SRE convention: the fraction of
// requests in the window that violated the objective (errors for the
// availability objective, latency breaches for the latency objective),
// divided by the allowed fraction (1 - availability_objective). A burn
// rate of 1.0 consumes the budget exactly as fast as it refills; above
// that, the budget is burning down.
//
// Exemplars: when a request breaches the latency objective the caller can
// persist its merged trace via persist_exemplar(); writes go to a
// per-process temp name followed by an atomic rename, and the directory is
// bounded by max_exemplars (oldest evicted), so concurrent ctest shards
// never collide and a misbehaving service can't fill the disk.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tlrwse/obs/metrics_registry.hpp"

namespace tlrwse::obs {

struct SloConfig {
  /// Latency objective in seconds; requests slower than this breach the
  /// SLO. 0 disables latency breach accounting (the window percentiles
  /// still work).
  double latency_objective_s = 0.0;
  /// Availability objective as a success fraction (0.999 = "three nines");
  /// 1 - availability_objective is the error budget.
  double availability_objective = 0.999;
  double window_s = 60.0;  // rolling window covered by the slot ring
  int slots = 6;           // ring granularity (window_s / slots per slot)
  /// Directory for slow-request exemplar traces; empty disables persisting.
  std::string exemplar_dir;
  std::size_t max_exemplars = 32;  // directory bound (oldest evicted)
};

/// The window gauges of one metric prefix (<prefix>.slo.p50_us/.p95_us/
/// .p99_us microseconds, <prefix>.slo.burn_rate_milli in 1/1000ths,
/// <prefix>.slo.window_count/.window_breaches/.window_errors), resolved
/// once so that publishing a window takes no registry lock.
struct SloGauges {
  SloGauges(MetricsRegistry& reg, std::string_view prefix);
  Gauge& p50_us;
  Gauge& p95_us;
  Gauge& p99_us;
  Gauge& burn_rate_milli;
  Gauge& window_count;
  Gauge& window_breaches;
  Gauge& window_errors;
};

class SloTracker {
 public:
  explicit SloTracker(SloConfig cfg = {});
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Records one finished request (now = steady clock).
  void record(double latency_s, bool ok);
  /// Test seam: record at an explicit time in seconds.
  void record_at(double now_s, double latency_s, bool ok);

  struct Window {
    std::uint64_t count = 0;
    std::uint64_t errors = 0;    // !ok requests
    std::uint64_t breaches = 0;  // latency objective violations
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
    double max_s = 0.0;
    /// Bad-request fraction over the allowed fraction; 0 when the window
    /// is empty.
    double burn_rate = 0.0;

    /// {"count","errors","breaches","p50_s","p95_s","p99_s","max_s",
    /// "burn_rate"}: the "slo" block of every health document.
    [[nodiscard]] std::string to_json() const;
  };
  [[nodiscard]] Window window() const;
  [[nodiscard]] Window window_at(double now_s) const;

  [[nodiscard]] const SloConfig& config() const noexcept { return cfg_; }
  /// True when the latency breached the configured objective (false when
  /// no objective is set).
  [[nodiscard]] bool breaches_objective(double latency_s) const noexcept {
    return cfg_.latency_objective_s > 0.0 &&
           latency_s > cfg_.latency_objective_s;
  }

  /// Writes `json` as an exemplar for `request_id`: temp file named with
  /// the pid + a process-local sequence, then an atomic rename to
  /// exemplar_<request_id>.json. Evicts the oldest exemplars beyond
  /// max_exemplars. Returns the final path, or "" when the directory is
  /// unset or the write failed (exemplars are best-effort; persistence
  /// failures never fail a request).
  std::string persist_exemplar(std::uint64_t request_id,
                               const std::string& json);

  /// Publishes the current window into `gauges`.
  void publish(const SloGauges& gauges) const;

 private:
  struct Slot {
    std::int64_t epoch = -1;  // slot_span index; -1 = never used
    std::uint64_t count = 0;
    std::uint64_t errors = 0;
    std::uint64_t breaches = 0;
    double max_s = 0.0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };

  [[nodiscard]] double now_s() const;
  [[nodiscard]] Window merge_window(double now_s) const;  // mu_ held

  SloConfig cfg_;
  double slot_span_s_ = 10.0;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::uint64_t exemplar_seq_ = 0;
};

}  // namespace tlrwse::obs
