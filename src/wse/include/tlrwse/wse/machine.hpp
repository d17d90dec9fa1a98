// Cluster-level simulation: maps a TLR dataset onto one or more CS-2
// systems and reports the paper's metrics (PEs used, occupancy, worst
// cycle count, relative/absolute memory accesses and bandwidths, PFlop/s).
//
// Bandwidth reporting follows the paper exactly (Secs. 6.5/7.3): the
// workload is embarrassingly parallel, so the aggregate bandwidth is
//   total bytes accessed * clock / worst cycle count over all PEs.
#pragma once

#include "tlrwse/obs/flight_recorder.hpp"
#include "tlrwse/wse/chunking.hpp"
#include "tlrwse/wse/wse_spec.hpp"

namespace tlrwse::wse {

/// Strong-scaling strategies of Sec. 6.7.
enum class Strategy {
  kSplitStackWidth = 1,  // all 8 real MVMs on one PE; scale by splitting sw
  kScatterRealMvms = 2,  // 8 real MVMs scattered onto 8 PEs (replicated bases)
};

struct ClusterConfig {
  WseSpec spec;
  CostModelParams cost;
  index_t stack_width = 64;
  Strategy strategy = Strategy::kSplitStackWidth;
  /// 0 = derive the system count from the PE demand; otherwise fixed.
  index_t systems = 0;
  /// When set, every simulated PE launch is recorded (phase kFusedColumn,
  /// one sample per PE). Null costs nothing.
  obs::FlightRecorder* recorder = nullptr;
};

/// Recorder configuration matching a WseSpec: per-system PE count, fabric
/// placement for the PE-grid heatmaps, and the clock for bandwidths.
[[nodiscard]] obs::FlightRecorderConfig flight_config_for(const WseSpec& spec);

struct ClusterReport {
  index_t chunks = 0;
  index_t pes_used = 0;
  index_t systems = 0;
  double occupancy = 0.0;  // pes_used / (systems * usable_pes)

  double worst_cycles = 0.0;
  double relative_bytes = 0.0;  // summed over all PEs
  double absolute_bytes = 0.0;
  double flops = 0.0;

  double max_sram_bytes = 0.0;
  bool fits_sram = true;

  double time_us = 0.0;
  double relative_bw = 0.0;  // bytes/s
  double absolute_bw = 0.0;
  double flops_rate = 0.0;   // flop/s

  /// worst-PE cycles of a reference report divided by (PE ratio * cycles):
  /// parallel efficiency vs. the reference configuration.
  [[nodiscard]] double parallel_efficiency_vs(const ClusterReport& ref) const {
    if (pes_used == 0 || worst_cycles <= 0.0) return 0.0;
    const double speedup = ref.worst_cycles / worst_cycles;
    const double pe_ratio =
        static_cast<double>(pes_used) / static_cast<double>(ref.pes_used);
    return speedup / pe_ratio;
  }
};

/// Runs the mapping + cost model over every chunk of the dataset.
[[nodiscard]] ClusterReport simulate_cluster(const RankSource& source,
                                             const ClusterConfig& cfg);

/// Smallest stack width whose PE demand fits within `systems` CS-2s —
/// maximises occupancy, the paper's Table 1 tuning rule. Returns 0 when
/// even the largest width (max_width) does not fit.
[[nodiscard]] index_t choose_stack_width(const RankSource& source,
                                         const WseSpec& spec, index_t systems,
                                         Strategy strategy,
                                         index_t max_width = 512);

/// Time-shared execution on a FIXED, possibly undersized machine: chunks
/// are packed onto the available PEs with a longest-processing-time greedy
/// (each PE executes its chunks back to back; bases are streamed between
/// chunks by the host, so SRAM holds one chunk at a time). Models the
/// "fewer than six systems" regime the paper's sizing claim implies, where
/// the kernel stops being single-pass.
struct PackedReport {
  index_t chunks = 0;
  index_t pes = 0;             // PEs actually used (min(chunks, capacity))
  double worst_pe_cycles = 0.0;  // makespan
  double mean_pe_cycles = 0.0;
  double imbalance = 0.0;      // worst / mean (1.0 = perfect)
  double relative_bw = 0.0;
  double absolute_bw = 0.0;
};
[[nodiscard]] PackedReport simulate_packed_cluster(const RankSource& source,
                                                   const ClusterConfig& cfg,
                                                   index_t systems);

/// Largest stack width whose per-PE data footprint (worst chunk, including
/// split-real bases, vectors and alignment padding) still fits the 48 kB
/// SRAM under the given strategy. Returns 0 if even width 1 overflows.
[[nodiscard]] index_t max_stack_width_for_sram(const RankSource& source,
                                               const WseSpec& spec,
                                               Strategy strategy,
                                               index_t max_width = 512);

/// The minimum number of CS-2 systems able to host the dataset: chunks at
/// the SRAM-limited stack width, one PE per chunk (strategy 1) or eight
/// (strategy 2). Reproduces the paper's Sec. 6.5 statement that
/// "accommodating the full compressed matrix in CS-2 SRAM requires a
/// minimum of six CS-2 systems".
[[nodiscard]] index_t minimum_systems(const RankSource& source,
                                      const WseSpec& spec, Strategy strategy);

/// Fig. 14 synthetic: every usable PE runs eight real N x N MVMs
/// (a complex batched MVM with constant matrix size). Returns the
/// aggregate relative/absolute bandwidth over one CS-2.
struct ConstantBatchPoint {
  index_t n = 0;
  double relative_bw = 0.0;
  double absolute_bw = 0.0;
};
[[nodiscard]] ConstantBatchPoint simulate_constant_batch(
    const WseSpec& spec, const CostModelParams& cost, index_t n);

}  // namespace tlrwse::wse
