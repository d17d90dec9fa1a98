// Tests for operator combinators and the time-gated MDD preconditioner.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/la/blas.hpp"
#include "tlrwse/mdc/combinators.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/mdd/preconditioner.hpp"

namespace tlrwse::mdc {
namespace {

class DenseOp final : public LinearOperator {
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

std::shared_ptr<DenseOp> random_op(Rng& rng, index_t m, index_t n) {
  return std::make_shared<DenseOp>(
      tlrwse::testing::random_matrix<float>(rng, m, n));
}

void dot_test(const LinearOperator& op, Rng& rng, double tol = 1e-3) {
  std::vector<float> x(static_cast<std::size_t>(op.cols()));
  std::vector<float> y(static_cast<std::size_t>(op.rows()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  std::vector<float> ax(y.size()), aty(x.size());
  op.apply(x, std::span<float>(ax));
  op.apply_adjoint(y, std::span<float>(aty));
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += double(ax[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * aty[i];
  EXPECT_NEAR(lhs, rhs, tol * (std::abs(lhs) + std::abs(rhs) + 1.0));
}

TEST(Chain, MatchesManualComposition) {
  Rng rng(3);
  auto a = random_op(rng, 7, 5);
  auto b = random_op(rng, 5, 9);
  const auto c = chain(a, b);
  EXPECT_EQ(c->rows(), 7);
  EXPECT_EQ(c->cols(), 9);
  std::vector<float> x(9);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> mid(5), y1(7), y2(7);
  b->apply(x, std::span<float>(mid));
  a->apply(mid, std::span<float>(y1));
  c->apply(x, std::span<float>(y2));
  for (std::size_t i = 0; i < 7; ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  dot_test(*c, rng);
}

TEST(Chain, RejectsDimensionMismatch) {
  Rng rng(5);
  EXPECT_THROW(ChainedOperator(random_op(rng, 7, 5), random_op(rng, 4, 9)),
               std::invalid_argument);
}

TEST(Sum, AddsActions) {
  Rng rng(7);
  auto a = random_op(rng, 6, 4);
  auto b = random_op(rng, 6, 4);
  const auto s = sum(a, b);
  std::vector<float> x(4);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> ya(6), yb(6), ys(6);
  a->apply(x, std::span<float>(ya));
  b->apply(x, std::span<float>(yb));
  s->apply(x, std::span<float>(ys));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(ys[i], ya[i] + yb[i], 1e-5);
  dot_test(*s, rng);
}

TEST(Sum, RejectsShapeMismatch) {
  Rng rng(9);
  EXPECT_THROW(SumOperator(random_op(rng, 6, 4), random_op(rng, 6, 5)),
               std::invalid_argument);
}

TEST(Scaled, ScalesBothDirections) {
  Rng rng(11);
  auto a = random_op(rng, 5, 5);
  const auto s = scaled(a, -2.5f);
  std::vector<float> x(5);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> ya(5), ys(5);
  a->apply(x, std::span<float>(ya));
  s->apply(x, std::span<float>(ys));
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(ys[i], -2.5f * ya[i]);
  dot_test(*s, rng);
}

TEST(Diagonal, MasksAndIsSelfAdjoint) {
  DiagonalOperator d({1.0f, 0.0f, 2.0f});
  std::vector<float> x{3.0f, 4.0f, 5.0f}, y(3);
  d.apply(x, std::span<float>(y));
  EXPECT_EQ(y, (std::vector<float>{3.0f, 0.0f, 10.0f}));
  Rng rng(13);
  dot_test(d, rng, 1e-6);
}

TEST(Identity, PassesThrough) {
  IdentityOperator id(4);
  std::vector<float> x{1, 2, 3, 4}, y(4);
  id.apply(x, std::span<float>(y));
  EXPECT_EQ(x, y);
  EXPECT_THROW(IdentityOperator(0), std::invalid_argument);
}

TEST(Combinators, NestedCompositeIsConsistent) {
  // (2A + I*B-chain) style composite still passes the dot test.
  Rng rng(17);
  auto a = random_op(rng, 6, 6);
  auto b = random_op(rng, 6, 6);
  const auto composite = sum(scaled(a, 2.0f), chain(a, b));
  dot_test(*composite, rng);
}

}  // namespace
}  // namespace tlrwse::mdc

namespace tlrwse::mdd {
namespace {

const seismic::SeismicDataset& gate_dataset() {
  static const seismic::SeismicDataset data = [] {
    seismic::DatasetConfig cfg;
    cfg.geometry = seismic::AcquisitionGeometry::small_scale(10, 8, 8, 6);
    // 2 s window: the deepest primary (~1.2 s two-way) must fit, or its
    // circular-FFT wraparound lands before the causality gate opens.
    cfg.nt = 512;
    cfg.f_min = 4.0;
    cfg.f_max = 35.0;
    cfg.water_multiples = 2;
    return seismic::build_dataset(cfg);
  }();
  return data;
}

TEST(CausalityGate, ZeroEarlyOneLate) {
  const auto& data = gate_dataset();
  const index_t v = data.num_receivers() / 2;
  const auto gate = causality_gate(data, v);
  ASSERT_EQ(gate.size(),
            static_cast<std::size_t>(data.config.nt * data.num_receivers()));
  // At t = 0 the gate is closed everywhere; at the end it is open.
  const index_t nt = data.config.nt;
  for (index_t r = 0; r < data.num_receivers(); ++r) {
    EXPECT_EQ(gate[static_cast<std::size_t>(r * nt)], 0.0f);
    EXPECT_EQ(gate[static_cast<std::size_t>(r * nt + nt - 1)], 1.0f);
    // Monotone non-decreasing ramp.
    for (index_t t = 1; t < nt; ++t) {
      EXPECT_GE(gate[static_cast<std::size_t>(r * nt + t)],
                gate[static_cast<std::size_t>(r * nt + t - 1)] - 1e-6f);
    }
  }
}

TEST(CausalityGate, OpensLaterAtLargerOffset) {
  const auto& data = gate_dataset();
  const index_t v = 0;
  const auto gate = causality_gate(data, v);
  const index_t nt = data.config.nt;
  auto open_time = [&](index_t r) {
    for (index_t t = 0; t < nt; ++t) {
      if (gate[static_cast<std::size_t>(r * nt + t)] > 0.0f) return t;
    }
    return nt;
  };
  // The most distant receiver opens no earlier than the virtual source
  // itself.
  index_t far = 0;
  double dmax = -1.0;
  for (index_t r = 0; r < data.num_receivers(); ++r) {
    const double d = seismic::horizontal_distance(
        data.receiver_pos[static_cast<std::size_t>(v)],
        data.receiver_pos[static_cast<std::size_t>(r)]);
    if (d > dmax) {
      dmax = d;
      far = r;
    }
  }
  EXPECT_GE(open_time(far), open_time(v));
}

TEST(GatedMdd, UsableSolutionConfinedToTheGate) {
  // On clean consistent data the un-gated solve is already near-exact, and
  // the gate clips part of the band-limited wavelet's precursor, so the
  // gate is NOT expected to win here — its claims are support control and
  // robustness (next test). This test checks the former.
  const auto& data = gate_dataset();
  const index_t v = data.num_receivers() / 2;
  const auto rhs = virtual_source_rhs(data, v);
  const auto truth = true_reflectivity_traces(data, v);
  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-4;
  const auto op = make_mdc_operator(data, KernelBackend::kTlr, cc);

  LsqrConfig lsqr;
  lsqr.max_iters = 15;
  const auto gate = causality_gate(data, v);
  const auto gated = solve_mdd_gated(*op, rhs, gate, lsqr);

  EXPECT_LT(nmse(gated.x, truth), 0.15);  // usable solution
  // The gated solution is exactly zero where the gate is closed.
  for (std::size_t i = 0; i < gate.size(); ++i) {
    if (gate[i] == 0.0f) {
      EXPECT_EQ(gated.x[i], 0.0f);
    }
  }
}

TEST(GatedMdd, SuppressesAcausalNoiseEnergy) {
  // The Vargas-style benefit: with noisy data, the un-gated solution leaks
  // energy into acausal times (where the truth is identically zero); the
  // gate forbids that part of the model space entirely.
  const auto& data = gate_dataset();
  const index_t v = data.num_receivers() / 2;
  auto rhs = virtual_source_rhs(data, v);
  const auto truth = true_reflectivity_traces(data, v);

  // 20% RMS Gaussian noise on the observed data.
  double rms = 0.0;
  for (float x : rhs) rms += static_cast<double>(x) * x;
  rms = std::sqrt(rms / static_cast<double>(rhs.size()));
  Rng rng(99);
  for (float& x : rhs) {
    x += static_cast<float>(0.2 * rms * rng.normal());
  }

  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-4;
  const auto op = make_mdc_operator(data, KernelBackend::kTlr, cc);
  LsqrConfig lsqr;
  lsqr.max_iters = 15;
  const auto plain = solve_mdd(*op, rhs, lsqr);
  const auto gate = causality_gate(data, v);
  const auto gated = solve_mdd_gated(*op, rhs, gate, lsqr);

  // Acausal energy (where the gate is closed, i.e. where the truth lives
  // at zero): plain leaks, gated is zero by construction.
  double plain_acausal = 0.0;
  for (std::size_t i = 0; i < gate.size(); ++i) {
    if (gate[i] == 0.0f) {
      plain_acausal += static_cast<double>(plain.x[i]) * plain.x[i];
    }
  }
  EXPECT_GT(plain_acausal, 0.0);
  double gated_acausal = 0.0;
  for (std::size_t i = 0; i < gate.size(); ++i) {
    if (gate[i] == 0.0f) {
      gated_acausal += static_cast<double>(gated.x[i]) * gated.x[i];
    }
  }
  EXPECT_EQ(gated_acausal, 0.0);
  // And the gated solution stays competitive overall on noisy data.
  EXPECT_LT(nmse(gated.x, truth), nmse(plain.x, truth) * 2.0);
}

TEST(GatedMdd, GateSizeValidated) {
  const auto& data = gate_dataset();
  const index_t v = 1;
  const auto rhs = virtual_source_rhs(data, v);
  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-3;
  const auto op = make_mdc_operator(data, KernelBackend::kTlr, cc);
  std::vector<float> bad_gate(5, 1.0f);
  EXPECT_THROW((void)solve_mdd_gated(*op, rhs, bad_gate, LsqrConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tlrwse::mdd
