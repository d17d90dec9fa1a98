// Fabric flight recorder: per-PE accounting of simulated kernel launches.
//
// Every simulated launch records one PeSample per PE (cycles, relative and
// absolute memory accesses, flops, SRAM footprint) tagged with the kernel
// phase it belongs to: V-MVM / shuffle / U-MVM for the 3-phase BSP layout,
// or the single fused column phase of the CS-2 layout (which removes the
// shuffle entirely, Sec. 5.2). The recorder aggregates in a streaming
// fashion — a 48-system run launches ~35M PE samples, so nothing per-PE is
// ever stored. What survives is exactly what the paper reports:
//
//   * per-phase occupancy statistics (max/min/mean cycles, the worst PE,
//     load-imbalance factor max/mean),
//   * per-system worst cycles and traffic, so sustained bandwidth can be
//     reported per system as well as aggregate,
//   * the per-phase critical path (phases are barrier-separated in the
//     BSP layout, so the pass time is the sum of per-phase maxima; the
//     fused layout has one phase and the sum degenerates to its max),
//   * downsampled PE-grid heatmaps per phase (fabric coordinates binned
//     into a fixed grid, accumulated across systems).
//
// record() is plain non-atomic accumulation: the simulators that feed it
// are single-threaded chunk streams. Attach one recorder per run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tlrwse/common/types.hpp"

namespace tlrwse::obs {

/// Kernel phases of the two TLR-MVM layouts (Secs. 5.2/5.3).
enum class Phase : int {
  kVMvm = 0,        // 3-phase layout: V-batch superstep
  kShuffle = 1,     // 3-phase layout: the inter-phase memory shuffle
  kUMvm = 2,        // 3-phase layout: U-batch superstep
  kFusedColumn = 3, // CS-2 layout: fused per-tile-column kernel
};
inline constexpr int kNumPhases = 4;
[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// One simulated PE's contribution to a launch.
struct PeSample {
  double cycles = 0.0;
  double relative_bytes = 0.0;
  double absolute_bytes = 0.0;
  double flops = 0.0;
  double sram_bytes = 0.0;
};

struct FlightRecorderConfig {
  /// PEs per CS-2 system; 0 folds every PE into one system entry.
  index_t pes_per_system = 0;
  /// PEs per fabric row. Heatmaps need both this and pes_per_system to
  /// place a linear PE index on the fabric; when either is 0 the heatmap
  /// grids stay empty (stats and bandwidths are unaffected).
  index_t fabric_cols = 0;
  index_t heat_rows = 32;  // heatmap bins along the fabric rows
  index_t heat_cols = 32;  // heatmap bins along the fabric columns
  double clock_hz = 850e6;
};

/// Streaming occupancy statistics of one phase.
struct PhaseStats {
  std::uint64_t samples = 0;
  double total_cycles = 0.0;
  double max_cycles = 0.0;
  double min_cycles = 0.0;  // 0 when the phase is empty
  index_t worst_pe = -1;    // PE index of max_cycles
  double relative_bytes = 0.0;
  double absolute_bytes = 0.0;
  double flops = 0.0;
  double max_sram_bytes = 0.0;

  [[nodiscard]] double mean_cycles() const noexcept {
    return samples > 0 ? total_cycles / static_cast<double>(samples) : 0.0;
  }
  /// Load-imbalance factor: worst PE over mean PE (1.0 = perfectly flat).
  [[nodiscard]] double imbalance() const noexcept {
    const double mean = mean_cycles();
    return mean > 0.0 ? max_cycles / mean : 0.0;
  }
};

/// Worst-case PE and traffic of one CS-2 system (all phases folded).
struct SystemStats {
  std::uint64_t samples = 0;
  double worst_cycles = 0.0;
  index_t worst_pe = -1;
  double relative_bytes = 0.0;
  double absolute_bytes = 0.0;
  double flops = 0.0;

  /// Sustained bandwidth of this system alone (its traffic over its own
  /// worst PE), following the paper's accounting.
  [[nodiscard]] double relative_bw(double clock_hz) const noexcept {
    return worst_cycles > 0.0 ? relative_bytes * clock_hz / worst_cycles : 0.0;
  }
  [[nodiscard]] double absolute_bw(double clock_hz) const noexcept {
    return worst_cycles > 0.0 ? absolute_bytes * clock_hz / worst_cycles : 0.0;
  }
};

/// One downsampled heatmap bin (accumulated across systems).
struct HeatCell {
  std::uint64_t samples = 0;
  double cycles_sum = 0.0;
  double cycles_max = 0.0;
  double relative_bytes = 0.0;
};

/// Immutable aggregation produced by FlightRecorder::report().
struct FlightReport {
  double clock_hz = 850e6;
  std::uint64_t launches = 0;  // record() calls
  index_t pes = 0;             // highest PE index seen + 1
  std::array<PhaseStats, kNumPhases> phases{};
  std::vector<SystemStats> systems;

  index_t heat_rows = 0;
  index_t heat_cols = 0;
  index_t fabric_rows = 0;
  index_t fabric_cols = 0;
  /// Row-major heat_rows x heat_cols grid per phase; empty when the
  /// config could not place PEs on the fabric (see FlightRecorderConfig).
  std::array<std::vector<HeatCell>, kNumPhases> heatmaps{};

  /// Sum of per-phase worst cycles: the barrier-separated pass time of
  /// the 3-phase layout; equal to the single phase's max for the fused
  /// layout.
  [[nodiscard]] double critical_path_cycles() const noexcept;
  /// Worst single-PE cycle count over all phases.
  [[nodiscard]] double worst_cycles() const noexcept;
  [[nodiscard]] double total_relative_bytes() const noexcept;
  [[nodiscard]] double total_absolute_bytes() const noexcept;
  [[nodiscard]] double total_flops() const noexcept;

  /// Aggregate sustained metrics over the critical path (paper Sec. 6.5:
  /// total bytes accessed * clock / worst cycle count).
  [[nodiscard]] double relative_bw() const noexcept;
  [[nodiscard]] double absolute_bw() const noexcept;
  [[nodiscard]] double flops_rate() const noexcept;
  [[nodiscard]] double time_us() const noexcept;

  /// Full report as one JSON object: aggregate metrics, per-phase stats,
  /// per-system stats. Heatmaps are serialised separately (they are bulky).
  [[nodiscard]] std::string to_json() const;
  /// One phase's PE-grid heatmap as a JSON object with row-major dense
  /// arrays: {"phase","rows","cols","fabric_rows","fabric_cols",
  /// "samples":[...],"cycles_max":[...],"cycles_mean":[...],
  /// "relative_bytes":[...]}.
  [[nodiscard]] std::string heatmap_json(Phase p) const;
  /// {"heatmaps":[...]} over every phase that recorded samples.
  [[nodiscard]] std::string heatmaps_json() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig cfg = {});

  /// Streaming accumulation of one PE's sample. Not thread-safe.
  void record(Phase phase, index_t pe, const PeSample& s) noexcept {
    record_span(phase, pe, 1, s);
  }

  /// Bulk form: `count` contiguous PEs starting at `pe`, all carrying the
  /// identical sample `s` (a scattered launch whose PEs are balanced by
  /// construction). One call amortises the aggregation over the whole
  /// span; boundary crossings (system, heat bin) are split internally.
  void record_span(Phase phase, index_t pe, index_t count,
                   const PeSample& s) noexcept;

  /// Drops all recorded samples; the config is kept.
  void clear();

  [[nodiscard]] FlightReport report() const;
  [[nodiscard]] const FlightRecorderConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return launches_; }

 private:
  FlightRecorderConfig cfg_;
  std::uint64_t launches_ = 0;
  index_t max_pe_ = -1;
  std::array<PhaseStats, kNumPhases> phases_{};
  std::vector<SystemStats> systems_;
  index_t fabric_rows_ = 0;  // derived from cfg: ceil(pps / fabric_cols)
  std::array<std::vector<HeatCell>, kNumPhases> heat_;
};

/// Exports the report's headline numbers as chrome://tracing counter
/// tracks through the process Tracer (no-op when tracing is disabled):
/// per-phase worst/mean cycles and imbalance, plus the aggregate critical
/// path and sustained bandwidths.
void export_flight_counters(const FlightReport& report);

}  // namespace tlrwse::obs

/// Hook-site macro: records into `rec` (a FlightRecorder*) when one is
/// attached. The sample argument must be parenthesised by the caller when
/// it contains commas.
#define TLRWSE_FLIGHT_RECORD(rec, phase, pe, sample)   \
  do {                                                 \
    if ((rec) != nullptr) {                            \
      (rec)->record((phase), (pe), (sample));          \
    }                                                  \
  } while (0)
