// Tests for the fabric flight recorder: streaming aggregation semantics
// (record vs record_span equivalence, boundary splitting), agreement with
// the cluster simulator's own totals under both strategies, the BSP
// 3-phase critical path, per-system accounting, and the heatmap JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "tlrwse/obs/flight_recorder.hpp"
#include "tlrwse/wse/bsp.hpp"
#include "tlrwse/wse/machine.hpp"

namespace tlrwse::wse {
namespace {

using obs::FlightRecorder;
using obs::FlightRecorderConfig;
using obs::PeSample;
using obs::Phase;

class GridSource final : public RankSource {
 public:
  GridSource(index_t rows, index_t cols, index_t nb, index_t nf, index_t rank)
      : grid_(rows, cols, nb), nf_(nf), rank_(rank) {}
  [[nodiscard]] index_t num_freqs() const override { return nf_; }
  [[nodiscard]] const tlr::TileGrid& grid() const override { return grid_; }
  [[nodiscard]] std::vector<index_t> tile_ranks(index_t q) const override {
    std::vector<index_t> ranks(static_cast<std::size_t>(grid_.num_tiles()));
    for (index_t j = 0; j < grid_.nt(); ++j) {
      for (index_t i = 0; i < grid_.mt(); ++i) {
        // Vary ranks with (i, j, q) so phases see a real spread.
        const index_t r = 1 + (rank_ + i + 2 * j + q) % rank_;
        ranks[static_cast<std::size_t>(grid_.tile_index(i, j))] = std::min(
            r, std::min(grid_.tile_rows(i), grid_.tile_cols(j)));
      }
    }
    return ranks;
  }

 private:
  tlr::TileGrid grid_;
  index_t nf_;
  index_t rank_;
};

PeSample sample(double cycles, double rel, double abs_b, double fl,
                double sram) {
  PeSample s;
  s.cycles = cycles;
  s.relative_bytes = rel;
  s.absolute_bytes = abs_b;
  s.flops = fl;
  s.sram_bytes = sram;
  return s;
}

TEST(FlightRecorder, RecordSpanEqualsPerPeRecord) {
  FlightRecorderConfig cfg;
  cfg.pes_per_system = 10;  // spans below cross system boundaries
  cfg.fabric_cols = 5;      // and heat-bin boundaries
  cfg.heat_rows = 2;
  cfg.heat_cols = 2;
  FlightRecorder loop(cfg);
  FlightRecorder bulk(cfg);

  const PeSample a = sample(100.0, 32.0, 96.0, 50.0, 1024.0);
  const PeSample b = sample(250.0, 16.0, 48.0, 25.0, 2048.0);
  // Span [3, 20): crosses the system boundary at 10 and several heat bins.
  for (index_t pe = 3; pe < 20; ++pe) {
    loop.record(Phase::kFusedColumn, pe, a);
  }
  bulk.record_span(Phase::kFusedColumn, 3, 17, a);
  // A second phase with a different span keeps the comparison honest.
  for (index_t pe = 0; pe < 7; ++pe) {
    loop.record(Phase::kVMvm, pe, b);
  }
  bulk.record_span(Phase::kVMvm, 0, 7, b);

  const auto rl = loop.report();
  const auto rb = bulk.report();
  EXPECT_EQ(rl.launches, rb.launches);
  EXPECT_EQ(rl.pes, rb.pes);
  for (int p = 0; p < obs::kNumPhases; ++p) {
    const auto& pl = rl.phases[static_cast<std::size_t>(p)];
    const auto& pb = rb.phases[static_cast<std::size_t>(p)];
    EXPECT_EQ(pl.samples, pb.samples) << "phase " << p;
    EXPECT_DOUBLE_EQ(pl.total_cycles, pb.total_cycles);
    EXPECT_DOUBLE_EQ(pl.max_cycles, pb.max_cycles);
    EXPECT_DOUBLE_EQ(pl.min_cycles, pb.min_cycles);
    EXPECT_DOUBLE_EQ(pl.relative_bytes, pb.relative_bytes);
    EXPECT_DOUBLE_EQ(pl.absolute_bytes, pb.absolute_bytes);
    EXPECT_DOUBLE_EQ(pl.flops, pb.flops);
    EXPECT_DOUBLE_EQ(pl.max_sram_bytes, pb.max_sram_bytes);
  }
  ASSERT_EQ(rl.systems.size(), rb.systems.size());
  for (std::size_t s = 0; s < rl.systems.size(); ++s) {
    EXPECT_EQ(rl.systems[s].samples, rb.systems[s].samples) << "system " << s;
    EXPECT_DOUBLE_EQ(rl.systems[s].worst_cycles, rb.systems[s].worst_cycles);
    EXPECT_DOUBLE_EQ(rl.systems[s].relative_bytes,
                     rb.systems[s].relative_bytes);
    EXPECT_DOUBLE_EQ(rl.systems[s].absolute_bytes,
                     rb.systems[s].absolute_bytes);
    EXPECT_DOUBLE_EQ(rl.systems[s].flops, rb.systems[s].flops);
  }
  for (int p = 0; p < obs::kNumPhases; ++p) {
    const auto& hl = rl.heatmaps[static_cast<std::size_t>(p)];
    const auto& hb = rb.heatmaps[static_cast<std::size_t>(p)];
    ASSERT_EQ(hl.size(), hb.size());
    for (std::size_t c = 0; c < hl.size(); ++c) {
      EXPECT_EQ(hl[c].samples, hb[c].samples) << "phase " << p << " cell " << c;
      EXPECT_DOUBLE_EQ(hl[c].cycles_sum, hb[c].cycles_sum);
      EXPECT_DOUBLE_EQ(hl[c].cycles_max, hb[c].cycles_max);
      EXPECT_DOUBLE_EQ(hl[c].relative_bytes, hb[c].relative_bytes);
    }
  }
}

TEST(FlightRecorder, SpanSplitsAcrossSystemBoundary) {
  FlightRecorderConfig cfg;
  cfg.pes_per_system = 4;
  FlightRecorder rec(cfg);
  rec.record_span(Phase::kFusedColumn, 2, 4, sample(10, 1, 3, 2, 8));
  const auto rep = rec.report();
  ASSERT_EQ(rep.systems.size(), 2u);
  EXPECT_EQ(rep.systems[0].samples, 2u);  // PEs 2, 3
  EXPECT_EQ(rep.systems[1].samples, 2u);  // PEs 4, 5
  EXPECT_DOUBLE_EQ(rep.systems[0].relative_bytes, 2.0);
  EXPECT_DOUBLE_EQ(rep.systems[1].relative_bytes, 2.0);
}

// The recorder must reproduce the cluster simulator's own aggregate
// accounting exactly — the paper benches derive every Table 3 number from
// the recorder instead of ClusterReport, so disagreement is data loss.
TEST(FlightRecorder, AgreesWithClusterReportStrategy1) {
  GridSource src(700, 500, 50, 4, 8);
  ClusterConfig cfg;
  cfg.stack_width = 32;
  cfg.strategy = Strategy::kSplitStackWidth;
  FlightRecorder rec(flight_config_for(cfg.spec));
  cfg.recorder = &rec;
  const auto rep = simulate_cluster(src, cfg);
  const auto flight = rec.report();
  const auto& fused =
      flight.phases[static_cast<std::size_t>(Phase::kFusedColumn)];
  EXPECT_EQ(static_cast<index_t>(fused.samples), rep.pes_used);
  EXPECT_DOUBLE_EQ(fused.max_cycles, rep.worst_cycles);
  EXPECT_DOUBLE_EQ(fused.relative_bytes, rep.relative_bytes);
  EXPECT_DOUBLE_EQ(fused.absolute_bytes, rep.absolute_bytes);
  EXPECT_DOUBLE_EQ(fused.flops, rep.flops);
  EXPECT_DOUBLE_EQ(fused.max_sram_bytes, rep.max_sram_bytes);
  // Single-phase layout: the critical path degenerates to the phase max,
  // so the recorder's bandwidths equal the simulator's.
  EXPECT_DOUBLE_EQ(flight.critical_path_cycles(), rep.worst_cycles);
  EXPECT_NEAR(flight.relative_bw(), rep.relative_bw,
              1e-9 * rep.relative_bw);
  EXPECT_NEAR(flight.absolute_bw(), rep.absolute_bw,
              1e-9 * rep.absolute_bw);
  EXPECT_GE(fused.imbalance(), 1.0);
}

TEST(FlightRecorder, AgreesWithClusterReportStrategy2) {
  GridSource src(700, 500, 50, 4, 8);
  ClusterConfig cfg;
  cfg.stack_width = 32;
  cfg.strategy = Strategy::kScatterRealMvms;
  FlightRecorder rec(flight_config_for(cfg.spec));
  cfg.recorder = &rec;
  const auto rep = simulate_cluster(src, cfg);
  const auto flight = rec.report();
  const auto& fused =
      flight.phases[static_cast<std::size_t>(Phase::kFusedColumn)];
  // Eight PEs per chunk, recorded as one span each.
  EXPECT_EQ(static_cast<index_t>(fused.samples), rep.pes_used);
  EXPECT_EQ(rep.pes_used, 8 * rep.chunks);
  EXPECT_DOUBLE_EQ(fused.max_cycles, rep.worst_cycles);
  // The per-chunk traffic is split 1/8 over the scatter PEs; the sum must
  // come back to the simulator's totals up to FP accumulation order.
  EXPECT_NEAR(fused.relative_bytes, rep.relative_bytes,
              1e-9 * rep.relative_bytes);
  EXPECT_NEAR(fused.absolute_bytes, rep.absolute_bytes,
              1e-9 * rep.absolute_bytes);
  EXPECT_NEAR(fused.flops, rep.flops, 1e-9 * rep.flops);
  // Per-system traffic partitions the total.
  double sys_rel = 0.0;
  std::uint64_t sys_samples = 0;
  for (const auto& s : flight.systems) {
    sys_rel += s.relative_bytes;
    sys_samples += s.samples;
  }
  EXPECT_EQ(static_cast<index_t>(sys_samples), rep.pes_used);
  EXPECT_NEAR(sys_rel, rep.relative_bytes, 1e-9 * rep.relative_bytes);
}

TEST(FlightRecorder, BspThreePhaseCriticalPathMatchesTotalSec) {
  GridSource src(700, 500, 50, 4, 8);
  const IpuSpec ipu;
  FlightRecorderConfig cfg;
  cfg.clock_hz = ipu.clock_hz;
  cfg.pes_per_system = ipu.tiles;
  FlightRecorder rec(cfg);
  const auto rep = simulate_bsp_3phase(src, ipu, &rec);
  const auto flight = rec.report();
  for (Phase p : {Phase::kVMvm, Phase::kShuffle, Phase::kUMvm}) {
    EXPECT_EQ(
        static_cast<index_t>(
            flight.phases[static_cast<std::size_t>(p)].samples),
        rep.devices)
        << phase_name(p);
  }
  EXPECT_EQ(flight.phases[static_cast<std::size_t>(Phase::kFusedColumn)]
                .samples,
            0u);
  // Barrier-separated supersteps: the per-phase critical path (barriers
  // folded into each phase) reproduces the report's wall time.
  EXPECT_NEAR(flight.critical_path_cycles() / ipu.clock_hz, rep.total_sec,
              1e-9 * rep.total_sec);
}

TEST(FlightRecorder, HeatmapJsonHasDeclaredShape) {
  FlightRecorderConfig cfg;
  cfg.pes_per_system = 100;
  cfg.fabric_cols = 10;
  cfg.heat_rows = 4;
  cfg.heat_cols = 4;
  FlightRecorder rec(cfg);
  rec.record_span(Phase::kFusedColumn, 0, 100, sample(5, 2, 6, 4, 16));
  const auto rep = rec.report();
  const std::string js = rep.heatmap_json(Phase::kFusedColumn);
  EXPECT_NE(js.find("\"phase\":\"fused_column\""), std::string::npos) << js;
  EXPECT_NE(js.find("\"rows\":4"), std::string::npos);
  EXPECT_NE(js.find("\"cols\":4"), std::string::npos);
  EXPECT_NE(js.find("\"samples\":["), std::string::npos);
  EXPECT_NE(js.find("\"cycles_max\":["), std::string::npos);
  // All 100 PEs land somewhere: cell sample counts sum to the phase's.
  const auto& cells =
      rep.heatmaps[static_cast<std::size_t>(Phase::kFusedColumn)];
  std::uint64_t total = 0;
  for (const auto& c : cells) total += c.samples;
  EXPECT_EQ(total, 100u);
  // Aggregate document lists only phases that recorded samples.
  const std::string all = rep.heatmaps_json();
  EXPECT_NE(all.find("fused_column"), std::string::npos);
  EXPECT_EQ(all.find("v_mvm"), std::string::npos);
}

TEST(FlightRecorder, ClearDropsSamplesKeepsConfig) {
  FlightRecorderConfig cfg;
  cfg.pes_per_system = 8;
  FlightRecorder rec(cfg);
  rec.record(Phase::kUMvm, 3, sample(7, 1, 2, 3, 4));
  EXPECT_EQ(rec.samples(), 1u);
  rec.clear();
  EXPECT_EQ(rec.samples(), 0u);
  EXPECT_EQ(rec.config().pes_per_system, 8);
  const auto rep = rec.report();
  EXPECT_EQ(rep.launches, 0u);
  EXPECT_TRUE(rep.systems.empty());
}

TEST(FlightRecorder, HookMacroCompilesInEveryBuild) {
  FlightRecorder rec;
  FlightRecorder* recp = &rec;
  TLRWSE_FLIGHT_RECORD(recp, Phase::kFusedColumn, 0,
                       (sample(1, 1, 1, 1, 1)));
  EXPECT_EQ(rec.samples(), 1u);
  // Null recorder is always a safe no-op.
  FlightRecorder* null_rec = nullptr;
  TLRWSE_FLIGHT_RECORD(null_rec, Phase::kFusedColumn, 0,
                       (sample(1, 1, 1, 1, 1)));
}

TEST(FlightRecorder, ReportJsonCarriesAggregateAndPerSystem) {
  FlightRecorderConfig cfg;
  cfg.pes_per_system = 4;
  FlightRecorder rec(cfg);
  rec.record_span(Phase::kFusedColumn, 0, 8, sample(100, 10, 30, 20, 64));
  const std::string js = rec.report().to_json();
  EXPECT_NE(js.find("\"critical_path_cycles\""), std::string::npos) << js;
  EXPECT_NE(js.find("\"relative_bw\""), std::string::npos);
  EXPECT_NE(js.find("\"systems\":["), std::string::npos);
  EXPECT_NE(js.find("\"phases\""), std::string::npos);
}

}  // namespace
}  // namespace tlrwse::wse
