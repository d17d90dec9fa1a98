// Consistency of the three byte/flop accountings that must agree for the
// roofline figures to be honest: the roofline module's arithmetic
// intensities, RealMvmShape's per-MVM bytes/flops, and the flight
// recorder's aggregate totals — including the ragged U-batch case where
// mn < m*n (rank rows drawn from several tiles of different heights).
#include <gtest/gtest.h>

#include "tlrwse/obs/flight_recorder.hpp"
#include "tlrwse/roofline/roofline.hpp"
#include "tlrwse/wse/chunking.hpp"
#include "tlrwse/wse/machine.hpp"

namespace tlrwse::wse {
namespace {

TEST(CostConsistency, RooflineIntensityMatchesShapeAccounting) {
  RealMvmShape s;
  s.m = 70.0;
  s.n = 70.0;
  s.mn = s.m * s.n;
  EXPECT_DOUBLE_EQ(roofline::tlr_mvm_intensity_relative(s.mn, s.m, s.n),
                   s.flops() / s.relative_bytes());
  EXPECT_DOUBLE_EQ(roofline::tlr_mvm_intensity_absolute(s.mn, s.n),
                   s.flops() / s.absolute_bytes());
  // The asymptotic limits the paper quotes: ~0.5 relative, ~1/6 absolute.
  RealMvmShape big;
  big.m = 1e6;
  big.n = 1e6;
  big.mn = big.m * big.n;
  EXPECT_NEAR(big.flops() / big.relative_bytes(), 0.5, 1e-5);
  EXPECT_NEAR(big.flops() / big.absolute_bytes(), 1.0 / 6.0, 1e-6);
}

TEST(CostConsistency, RaggedUBatchHasMnBelowMTimesN) {
  // A chunk whose rank rows come from two tiles of different heights: the
  // U batch is ragged, so its element count mn is strictly less than the
  // bounding m*n product, and all byte/flop accounting must use mn.
  Chunk c;
  c.nb = 40;
  c.h = 10;
  c.segments.push_back({/*tile_row=*/0, /*rank_begin=*/0, /*count=*/6,
                        /*mb=*/32});
  c.segments.push_back({/*tile_row=*/1, /*rank_begin=*/0, /*count=*/4,
                        /*mb=*/24});
  const auto shapes = chunk_mvm_shapes(c);
  ASSERT_EQ(shapes.size(), 8u);
  const auto& v = shapes.front();
  EXPECT_DOUBLE_EQ(v.m, 10.0);
  EXPECT_DOUBLE_EQ(v.n, 40.0);
  EXPECT_DOUBLE_EQ(v.mn, 400.0);  // V is dense: mn == m*n
  const auto& u = shapes.back();
  EXPECT_DOUBLE_EQ(u.m, 32.0 + 24.0);
  EXPECT_DOUBLE_EQ(u.n, 10.0);
  EXPECT_DOUBLE_EQ(u.mn, 6.0 * 32.0 + 4.0 * 24.0);
  EXPECT_LT(u.mn, u.m * u.n);  // the ragged case
  // Roofline intensities keyed on (mn, m, n) still agree with the shape.
  EXPECT_DOUBLE_EQ(roofline::tlr_mvm_intensity_relative(u.mn, u.m, u.n),
                   u.flops() / u.relative_bytes());
  EXPECT_DOUBLE_EQ(roofline::tlr_mvm_intensity_absolute(u.mn, u.n),
                   u.flops() / u.absolute_bytes());
  // Ragged-aware bytes are strictly cheaper than the dense bound.
  RealMvmShape dense = u;
  dense.mn = u.m * u.n;
  EXPECT_LT(u.relative_bytes(), dense.relative_bytes());
  EXPECT_LT(u.flops(), dense.flops());
}

class RaggedSource final : public RankSource {
 public:
  RaggedSource() : grid_(96, 80, 40) {}
  [[nodiscard]] index_t num_freqs() const override { return 2; }
  [[nodiscard]] const tlr::TileGrid& grid() const override { return grid_; }
  [[nodiscard]] std::vector<index_t> tile_ranks(index_t q) const override {
    std::vector<index_t> ranks(static_cast<std::size_t>(grid_.num_tiles()));
    for (index_t j = 0; j < grid_.nt(); ++j) {
      for (index_t i = 0; i < grid_.mt(); ++i) {
        const index_t r = 1 + (i + 3 * j + q) % 7;
        ranks[static_cast<std::size_t>(grid_.tile_index(i, j))] = std::min(
            r, std::min(grid_.tile_rows(i), grid_.tile_cols(j)));
      }
    }
    return ranks;
  }

 private:
  tlr::TileGrid grid_;
};

// The recorder's aggregate arithmetic intensity (fed per-PE from the same
// shapes) must equal flops/bytes of the simulator totals — this is the
// identity bench_fig15_roofline relies on to place the TLR-MVM point.
TEST(CostConsistency, RecorderAggregateIntensityMatchesSimulator) {
  RaggedSource src;
  for (Strategy strategy :
       {Strategy::kSplitStackWidth, Strategy::kScatterRealMvms}) {
    ClusterConfig cfg;
    cfg.stack_width = 8;
    cfg.strategy = strategy;
    obs::FlightRecorder rec(flight_config_for(cfg.spec));
    cfg.recorder = &rec;
    const auto rep = simulate_cluster(src, cfg);
    const auto flight = rec.report();
    ASSERT_GT(flight.total_relative_bytes(), 0.0);
    const double ai_rec =
        flight.total_flops() / flight.total_relative_bytes();
    const double ai_sim = rep.flops / rep.relative_bytes;
    EXPECT_NEAR(ai_rec, ai_sim, 1e-12 * ai_sim);
    const double ai_abs_rec =
        flight.total_flops() / flight.total_absolute_bytes();
    const double ai_abs_sim = rep.flops / rep.absolute_bytes;
    EXPECT_NEAR(ai_abs_rec, ai_abs_sim, 1e-12 * ai_abs_sim);
    // TLR-MVM intensities live between the ragged extremes the paper
    // quotes: below the dense 0.5 / above 0 relative, and under 1/6 + eps
    // absolute.
    EXPECT_GT(ai_rec, 0.0);
    EXPECT_LT(ai_rec, 0.5);
    EXPECT_LT(ai_abs_rec, 1.0 / 6.0 + 1e-3);
  }
}

}  // namespace
}  // namespace tlrwse::wse
