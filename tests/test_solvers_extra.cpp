// Tests for the CGLS solver, NMO stack, multi-source MDD driver, and the
// variable per-tile tolerance map.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "test_helpers.hpp"
#include "tlrwse/la/blas.hpp"
#include "tlrwse/mdd/cgls.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/mdd/multi_source.hpp"
#include "tlrwse/mdd/nmo.hpp"

namespace tlrwse::mdd {
namespace {

class DenseOp final : public mdc::LinearOperator {
 public:
  explicit DenseOp(la::MatrixF a) : a_(std::move(a)) {}
  [[nodiscard]] index_t rows() const override { return a_.rows(); }
  [[nodiscard]] index_t cols() const override { return a_.cols(); }
  void apply(std::span<const float> x, std::span<float> y) const override {
    la::gemv(a_, x, y);
  }
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override {
    la::gemv_adjoint(a_, y, x);
  }

 private:
  la::MatrixF a_;
};

la::MatrixF well_conditioned(Rng& rng, index_t m, index_t n) {
  la::MatrixF a(m, n);
  fill_normal(rng, a.data(), static_cast<std::size_t>(a.size()));
  for (index_t i = 0; i < std::min(m, n); ++i) a(i, i) += 5.0f;
  return a;
}

TEST(Cgls, SolvesSquareSystem) {
  Rng rng(3);
  DenseOp op(well_conditioned(rng, 12, 12));
  std::vector<float> x_true(12);
  for (auto& v : x_true) v = static_cast<float>(rng.normal());
  std::vector<float> b(12);
  op.apply(x_true, std::span<float>(b));
  const auto res = cgls_solve(op, b, {.max_iters = 100, .tol = 1e-10});
  for (std::size_t i = 0; i < x_true.size(); ++i) {
    EXPECT_NEAR(res.x[i], x_true[i], 5e-3);
  }
}

TEST(Cgls, AgreesWithLsqr) {
  Rng rng(5);
  DenseOp op(well_conditioned(rng, 20, 10));
  std::vector<float> b(20);
  for (auto& v : b) v = static_cast<float>(rng.normal());
  const auto cg = cgls_solve(op, b, {.max_iters = 50, .tol = 1e-12});
  LsqrConfig lc;
  lc.max_iters = 50;
  lc.atol = lc.btol = 1e-12;
  const auto ls = lsqr_solve(op, b, lc);
  for (std::size_t i = 0; i < cg.x.size(); ++i) {
    EXPECT_NEAR(cg.x[i], ls.x[i], 2e-2);
  }
}

TEST(Cgls, ZeroRhs) {
  Rng rng(7);
  DenseOp op(well_conditioned(rng, 6, 6));
  std::vector<float> b(6, 0.0f);
  const auto res = cgls_solve(op, b);
  for (float v : res.x) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Cgls, ResidualDecreases) {
  Rng rng(9);
  DenseOp op(well_conditioned(rng, 16, 16));
  std::vector<float> b(16);
  for (auto& v : b) v = static_cast<float>(rng.normal());
  const auto res = cgls_solve(op, b, {.max_iters = 20, .tol = 0.0});
  EXPECT_LT(res.residual_history.back(), res.residual_history.front());
}

TEST(Nmo, ZeroOffsetIsIdentityInsideMute) {
  std::vector<float> trace(64);
  for (std::size_t t = 0; t < trace.size(); ++t) {
    trace[t] = std::sin(0.3f * static_cast<float>(t));
  }
  NmoConfig cfg;
  const auto out = nmo_correct(std::span<const float>(trace), 0.0, cfg);
  // At zero offset t == t0 everywhere: identity except the final sample
  // (interpolation window).
  for (std::size_t t = 0; t + 1 < trace.size(); ++t) {
    EXPECT_NEAR(out[t], trace[t], 1e-5);
  }
}

TEST(Nmo, FlattensHyperbola) {
  // Synthetic reflection at t0 = 0.4 s observed at t = sqrt(t0^2+(h/v)^2):
  // after NMO the event moves (close) to t0 for every offset.
  NmoConfig cfg;
  cfg.velocity = 2000.0;
  cfg.dt = 0.004;
  const index_t nt = 256;
  const double t0 = 0.4;
  for (double offset : {0.0, 200.0, 400.0}) {
    std::vector<float> trace(static_cast<std::size_t>(nt), 0.0f);
    const double t_evt =
        std::sqrt(t0 * t0 + (offset / cfg.velocity) * (offset / cfg.velocity));
    const auto k = static_cast<std::size_t>(std::lround(t_evt / cfg.dt));
    trace[k] = 1.0f;
    const auto out = nmo_correct(std::span<const float>(trace), offset, cfg);
    // Peak of the corrected trace sits within one sample of t0.
    std::size_t argmax = 0;
    for (std::size_t t = 1; t < out.size(); ++t) {
      if (std::abs(out[t]) > std::abs(out[argmax])) argmax = t;
    }
    EXPECT_NEAR(static_cast<double>(argmax) * cfg.dt, t0, 2.5 * cfg.dt)
        << "offset " << offset;
  }
}

TEST(Nmo, StackImprovesSnr) {
  // n noisy copies of the same event at different offsets: the stack's
  // noise floor drops while the event survives.
  NmoConfig cfg;
  cfg.velocity = 2000.0;
  const index_t nt = 256;
  const double t0 = 0.5;
  Rng rng(11);
  std::vector<std::vector<float>> gather;
  std::vector<double> offsets;
  for (int k = 0; k < 8; ++k) {
    const double offset = 50.0 * k;
    const double t_evt =
        std::sqrt(t0 * t0 + (offset / cfg.velocity) * (offset / cfg.velocity));
    std::vector<float> tr(static_cast<std::size_t>(nt));
    for (auto& v : tr) v = 0.2f * static_cast<float>(rng.normal());
    tr[static_cast<std::size_t>(std::lround(t_evt / cfg.dt))] += 1.0f;
    gather.push_back(std::move(tr));
    offsets.push_back(offset);
  }
  const auto stack = nmo_stack(gather, offsets, cfg);
  const auto peak_idx = static_cast<std::size_t>(std::lround(t0 / cfg.dt));
  // Event at t0 preserved...
  float peak = 0.0f;
  for (std::size_t t = peak_idx - 2; t <= peak_idx + 2; ++t) {
    peak = std::max(peak, std::abs(stack[t]));
  }
  EXPECT_GT(peak, 0.5f);
  // ...and the off-event noise beaten down below a single trace's noise.
  double noise = 0.0;
  int count = 0;
  for (std::size_t t = 20; t + 20 < stack.size(); ++t) {
    if (t > peak_idx + 6 || t + 6 < peak_idx) {
      noise += std::abs(stack[t]);
      ++count;
    }
  }
  EXPECT_LT(noise / count, 0.12);
}

TEST(Nmo, ValidatesConfig) {
  std::vector<float> t(8, 0.0f);
  NmoConfig bad;
  bad.velocity = 0.0;
  EXPECT_THROW(nmo_correct(std::span<const float>(t), 10.0, bad),
               std::invalid_argument);
  EXPECT_THROW(nmo_stack({{1.0f, 2.0f}}, {0.0, 1.0}, NmoConfig{}),
               std::invalid_argument);
}

TEST(MultiSource, SolvesLineAndScores) {
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(10, 8, 8, 6);
  cfg.nt = 128;
  cfg.f_min = 4.0;
  cfg.f_max = 40.0;
  const auto data = seismic::build_dataset(cfg);

  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-4;
  const auto op = make_mdc_operator(data, KernelBackend::kTlr, cc);

  const auto line = virtual_source_line(data, data.num_receivers() / 2, 4);
  ASSERT_EQ(line.size(), 4u);
  LsqrConfig lsqr;
  lsqr.max_iters = 40;
  const auto res = solve_mdd_multi(data, *op, line, lsqr);
  ASSERT_EQ(res.solutions.size(), 4u);
  for (double n : res.nmse_vs_truth) {
    EXPECT_LT(n, 0.6);
  }
  EXPECT_LE(res.mean_nmse, res.worst_nmse);
  EXPECT_GT(res.mean_nmse, 0.0);
}

TEST(MultiSource, LineClampsToReceiverRange) {
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(6, 5, 5, 4);
  cfg.nt = 64;
  cfg.f_min = 5.0;
  cfg.f_max = 40.0;
  const auto data = seismic::build_dataset(cfg);
  const auto line = virtual_source_line(data, data.num_receivers() - 2, 10);
  EXPECT_EQ(line.size(), 2u);
  EXPECT_THROW(virtual_source_line(data, data.num_receivers() + 5, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace tlrwse::mdd

namespace tlrwse::tlr {
namespace {

TEST(VariableAccuracy, AccMapControlsPerTileRank) {
  const auto a = tlrwse::testing::oscillatory_matrix<cf32>(64, 64, 14.0);
  CompressionConfig uniform;
  uniform.nb = 16;
  uniform.acc = 1e-6;

  // Loose accuracy away from the diagonal, tight on it (the "user expert"
  // relaxation of Sec. 8).
  CompressionConfig mapped = uniform;
  mapped.acc_map = [](index_t i, index_t j, const TileGrid&) {
    return (i == j) ? 1e-6 : 1e-1;
  };

  const auto tu = compress_tlr(a, uniform);
  const auto tm = compress_tlr(a, mapped);
  EXPECT_LT(tm.compressed_bytes(), tu.compressed_bytes());
  // Diagonal tiles keep the uniform rank; off-diagonal shrink.
  for (index_t d = 0; d < tm.grid().mt(); ++d) {
    EXPECT_EQ(tm.rank(d, d), tu.rank(d, d));
  }
  bool any_smaller = false;
  for (index_t j = 0; j < tm.grid().nt(); ++j) {
    for (index_t i = 0; i < tm.grid().mt(); ++i) {
      if (i != j && tm.rank(i, j) < tu.rank(i, j)) any_smaller = true;
    }
  }
  EXPECT_TRUE(any_smaller);
}

TEST(VariableAccuracy, NegativeMapFallsBackToUniform) {
  const auto a = tlrwse::testing::oscillatory_matrix<cf32>(32, 32, 8.0);
  CompressionConfig uniform;
  uniform.nb = 16;
  uniform.acc = 1e-4;
  CompressionConfig mapped = uniform;
  mapped.acc_map = [](index_t, index_t, const TileGrid&) { return -1.0; };
  const auto tu = compress_tlr(a, uniform);
  const auto tm = compress_tlr(a, mapped);
  for (index_t j = 0; j < tu.grid().nt(); ++j) {
    for (index_t i = 0; i < tu.grid().mt(); ++i) {
      EXPECT_EQ(tm.rank(i, j), tu.rank(i, j));
    }
  }
}

}  // namespace
}  // namespace tlrwse::tlr
