// Order-statistics helpers for a run's own latencies (p50/p95/p99).
//
// Nearest-rank percentiles over small sample sets: a load driver (the CLI's
// serve command, bench_serve_throughput) summarises the latencies of the
// responses it already holds (a few thousand samples at most), so an exact
// sort beats a streaming sketch in both code and fidelity. The service
// itself keeps no samples; its registry has octave histograms.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "tlrwse/common/error.hpp"

namespace tlrwse {

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample set.
/// Returns 0 for an empty set so metric dumps stay total.
[[nodiscard]] inline double percentile(std::span<const double> samples,
                                       double q) {
  TLRWSE_REQUIRE(q >= 0.0 && q <= 100.0, "percentile out of range: ", q);
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return sorted[rank == 0 ? 0 : rank - 1];
}

/// The latency digest every service/bench report carries.
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

[[nodiscard]] inline LatencySummary summarize_latencies(
    std::span<const double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = percentile(samples, 50.0);
  s.p95 = percentile(samples, 95.0);
  s.p99 = percentile(samples, 99.0);
  return s;
}

}  // namespace tlrwse
