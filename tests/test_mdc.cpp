// Tests for the MDC operator: construction, forward action against a
// manual frequency-domain computation, the adjoint dot test (LSQR's
// correctness requirement), and backend equivalence.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "tlrwse/fft/fft.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/tlr/real_split.hpp"
#include "tlrwse/tlr/shared_basis.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"
#include "tlrwse/tlr/tlr_mvm.hpp"

namespace tlrwse::mdc {
namespace {

std::unique_ptr<MdcOperator> make_dense_op(index_t nt,
                                           const std::vector<index_t>& bins,
                                           const std::vector<la::MatrixCF>& ks) {
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  for (const auto& k : ks) kernels.push_back(std::make_unique<DenseMvm>(k));
  return std::make_unique<MdcOperator>(nt, bins, std::move(kernels));
}

struct Fixture {
  index_t nt = 64;
  index_t ns = 10;
  index_t nr = 7;
  std::vector<index_t> bins{3, 7, 12};
  std::vector<la::MatrixCF> ks;
  std::unique_ptr<MdcOperator> op;

  Fixture() {
    for (std::size_t q = 0; q < bins.size(); ++q) {
      ks.push_back(tlrwse::testing::oscillatory_matrix<cf32>(
          ns, nr, 5.0 + 3.0 * static_cast<double>(q)));
    }
    op = make_dense_op(nt, bins, ks);
  }
};

TEST(MdcOperator, Dimensions) {
  Fixture f;
  EXPECT_EQ(f.op->rows(), f.nt * f.ns);
  EXPECT_EQ(f.op->cols(), f.nt * f.nr);
  EXPECT_EQ(f.op->num_freqs(), 3);
}

TEST(MdcOperator, RejectsDcAndNyquistBins) {
  Fixture f;
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  kernels.push_back(std::make_unique<DenseMvm>(f.ks[0]));
  EXPECT_THROW(MdcOperator(64, {0}, std::move(kernels)),
               std::invalid_argument);
  std::vector<std::unique_ptr<FrequencyMvm>> kernels2;
  kernels2.push_back(std::make_unique<DenseMvm>(f.ks[0]));
  EXPECT_THROW(MdcOperator(64, {32}, std::move(kernels2)),
               std::invalid_argument);
}

TEST(MdcOperator, RejectsMismatchedKernels) {
  Fixture f;
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  kernels.push_back(std::make_unique<DenseMvm>(f.ks[0]));
  kernels.push_back(std::make_unique<DenseMvm>(
      tlrwse::testing::oscillatory_matrix<cf32>(4, 4)));
  EXPECT_THROW(MdcOperator(64, {3, 5}, std::move(kernels)),
               std::invalid_argument);
}

TEST(MdcOperator, ForwardMatchesManualFrequencyDomain) {
  Fixture f;
  Rng rng(3);
  std::vector<float> x(static_cast<std::size_t>(f.op->cols()));
  for (auto& v : x) v = static_cast<float>(rng.normal());

  std::vector<float> y(static_cast<std::size_t>(f.op->rows()));
  f.op->apply(std::span<const float>(x), std::span<float>(y));

  // Manual: rfft each receiver trace, apply K at each bin, irfft source side.
  const index_t nf = f.nt / 2 + 1;
  std::vector<cf32> xhat(static_cast<std::size_t>(nf * f.nr));
  fft::rfft_batch(std::span<const float>(x), f.nt, f.nr,
                  std::span<cf32>(xhat));
  std::vector<cf32> yhat(static_cast<std::size_t>(nf * f.ns), cf32{});
  for (std::size_t q = 0; q < f.bins.size(); ++q) {
    const index_t bin = f.bins[q];
    for (index_t s = 0; s < f.ns; ++s) {
      cf32 acc{};
      for (index_t r = 0; r < f.nr; ++r) {
        acc += f.ks[q](s, r) * xhat[static_cast<std::size_t>(r * nf + bin)];
      }
      yhat[static_cast<std::size_t>(s * nf + bin)] = acc;
    }
  }
  std::vector<float> y_ref(y.size());
  fft::irfft_batch(std::span<const cf32>(yhat), f.nt, f.ns,
                   std::span<float>(y_ref));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], y_ref[i], 1e-4);
  }
}

TEST(MdcOperator, AdjointDotTest) {
  Fixture f;
  Rng rng(7);
  std::vector<float> x(static_cast<std::size_t>(f.op->cols()));
  std::vector<float> y(static_cast<std::size_t>(f.op->rows()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());

  std::vector<float> ax(y.size());
  std::vector<float> aty(x.size());
  f.op->apply(std::span<const float>(x), std::span<float>(ax));
  f.op->apply_adjoint(std::span<const float>(y), std::span<float>(aty));

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    lhs += static_cast<double>(ax[i]) * static_cast<double>(y[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(aty[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-4 * (std::abs(lhs) + std::abs(rhs) + 1.0));
}

TEST(MdcOperator, OutOfBandInputIsAnnihilated) {
  // A pure sinusoid at a bin with no kernel passes through as zero.
  Fixture f;
  std::vector<float> x(static_cast<std::size_t>(f.op->cols()), 0.0f);
  for (index_t r = 0; r < f.nr; ++r) {
    for (index_t t = 0; t < f.nt; ++t) {
      x[static_cast<std::size_t>(r * f.nt + t)] = std::cos(
          2.0f * 3.14159265f * 20.0f * static_cast<float>(t) / 64.0f);
    }
  }
  std::vector<float> y(static_cast<std::size_t>(f.op->rows()));
  f.op->apply(std::span<const float>(x), std::span<float>(y));
  double energy = 0.0;
  for (float v : y) energy += static_cast<double>(v) * v;
  EXPECT_NEAR(energy, 0.0, 1e-6);
}

TEST(MdcOperator, TlrBackendMatchesDense) {
  Fixture f;
  tlr::CompressionConfig cc;
  cc.nb = 4;
  cc.acc = 1e-6;
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  for (const auto& k : f.ks) {
    kernels.push_back(std::make_unique<TlrMvm>(
        tlr::StackedTlr<cf32>(tlr::compress_tlr(k, cc))));
  }
  MdcOperator tlr_op(f.nt, f.bins, std::move(kernels));

  Rng rng(11);
  std::vector<float> x(static_cast<std::size_t>(f.op->cols()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y_dense(static_cast<std::size_t>(f.op->rows()));
  std::vector<float> y_tlr(y_dense.size());
  f.op->apply(std::span<const float>(x), std::span<float>(y_dense));
  tlr_op.apply(std::span<const float>(x), std::span<float>(y_tlr));
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < y_dense.size(); ++i) {
    num += std::pow(static_cast<double>(y_tlr[i]) - y_dense[i], 2);
    den += std::pow(static_cast<double>(y_dense[i]), 2);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-3);
}

// Production tile sizes: nb = 32/64/128 are multiples of the 16-float SIMD
// pad, and the 140x130 kernels leave ragged edge tiles at every size. Both
// TLR formats (per-frequency stacks and the shared-basis band) must match
// the dense operator through the full time-domain MDC pipeline.
class MdcTileSizes : public ::testing::TestWithParam<int> {
 protected:
  static constexpr index_t kNt = 64;
  static constexpr index_t kNs = 140;
  static constexpr index_t kNr = 130;
  const std::vector<index_t> bins{3, 7, 12};

  std::vector<la::MatrixCF> kernels_dense() const {
    std::vector<la::MatrixCF> ks;
    for (std::size_t q = 0; q < bins.size(); ++q) {
      ks.push_back(tlrwse::testing::oscillatory_matrix<cf32>(
          kNs, kNr, 6.0 + 0.4 * static_cast<double>(q)));
    }
    return ks;
  }

  static double rel_apply_error(MdcOperator& test_op, MdcOperator& ref_op) {
    Rng rng(19);
    std::vector<float> x(static_cast<std::size_t>(ref_op.cols()));
    for (auto& v : x) v = static_cast<float>(rng.normal());
    std::vector<float> y_ref(static_cast<std::size_t>(ref_op.rows()));
    std::vector<float> y(y_ref.size());
    ref_op.apply(std::span<const float>(x), std::span<float>(y_ref));
    test_op.apply(std::span<const float>(x), std::span<float>(y));
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      num += std::pow(static_cast<double>(y[i]) - y_ref[i], 2);
      den += std::pow(static_cast<double>(y_ref[i]), 2);
    }
    return std::sqrt(num / den);
  }
};

TEST_P(MdcTileSizes, PerFrequencyTlrMatchesDense) {
  const auto ks = kernels_dense();
  auto dense_op = make_dense_op(kNt, bins, ks);
  tlr::CompressionConfig cc;
  cc.nb = GetParam();
  cc.acc = 1e-6;
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  for (const auto& k : ks) {
    kernels.push_back(std::make_unique<TlrMvm>(
        tlr::StackedTlr<cf32>(tlr::compress_tlr(k, cc))));
  }
  MdcOperator tlr_op(kNt, bins, std::move(kernels));
  EXPECT_LT(rel_apply_error(tlr_op, *dense_op), 1e-3) << "nb=" << GetParam();
}

TEST_P(MdcTileSizes, SharedBasisMatchesDense) {
  const auto ks = kernels_dense();
  auto dense_op = make_dense_op(kNt, bins, ks);
  tlr::SharedBasisConfig sc;
  sc.nb = GetParam();
  sc.acc = 1e-6;
  const auto band = tlr::SharedBasisStackedTlr<cf32>::fit(
      std::span<const la::MatrixCF>(ks), sc);
  MdcOperator shared_op(kNt, bins, make_shared_basis_kernels(band));
  EXPECT_LT(rel_apply_error(shared_op, *dense_op), 1e-3) << "nb=" << GetParam();

  // Adjoint dot test at this tile size through the shared path.
  Rng rng(23);
  std::vector<float> x(static_cast<std::size_t>(shared_op.cols()));
  std::vector<float> y(static_cast<std::size_t>(shared_op.rows()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  std::vector<float> ax(y.size()), aty(x.size());
  shared_op.apply(std::span<const float>(x), std::span<float>(ax));
  shared_op.apply_adjoint(std::span<const float>(y), std::span<float>(aty));
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    lhs += static_cast<double>(ax[i]) * static_cast<double>(y[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(aty[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-4 * (std::abs(lhs) + std::abs(rhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(TileSizes, MdcTileSizes, ::testing::Values(32, 64, 128));

// TlrMvm runs the compiled MvmPlan; the paper's stacked 3-phase, fused and
// real-split kernels and the stacked adjoint stay in src/tlr as oracles.
TEST(FrequencyMvm, TlrMvmMatchesOracles) {
  const auto k = tlrwse::testing::oscillatory_matrix<cf32>(30, 24, 9.0);
  tlr::CompressionConfig cc;
  cc.nb = 8;
  cc.acc = 1e-5;
  const tlr::StackedTlr<cf32> stacks(tlr::compress_tlr(k, cc));
  const TlrMvm mvm(stacks);

  Rng rng(13);
  const auto x = tlrwse::testing::random_vector<cf32>(rng, 24);
  std::vector<cf32> y(30);
  mvm.apply(std::span<const cf32>(x), std::span<cf32>(y));
  EXPECT_LT(tlrwse::testing::rel_error(
                y, tlr::tlr_mvm_3phase(stacks, std::span<const cf32>(x))),
            1e-5);
  EXPECT_LT(tlrwse::testing::rel_error(
                y, tlr::tlr_mvm_fused(stacks, std::span<const cf32>(x))),
            1e-5);
  std::vector<cf32> y_split(30);
  tlr::tlr_mvm_real_split(tlr::RealSplitStacks<float>(stacks),
                          std::span<const cf32>(x), std::span<cf32>(y_split));
  EXPECT_LT(tlrwse::testing::rel_error(y, y_split), 1e-5);

  const auto u = tlrwse::testing::random_vector<cf32>(rng, 30);
  std::vector<cf32> z(24);
  mvm.apply_adjoint(std::span<const cf32>(u), std::span<cf32>(z));
  EXPECT_LT(tlrwse::testing::rel_error(
                z, tlr::tlr_mvm_adjoint(stacks, std::span<const cf32>(u))),
            1e-5);
}

}  // namespace
}  // namespace tlrwse::mdc
