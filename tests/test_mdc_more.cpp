// Additional MDC operator coverage: parameterized nt sweep, agreement of
// the dense, TLR and shared-basis formats inside the operator, adjoint
// consistency, and linearity properties.
#include <gtest/gtest.h>

#include <tuple>

#include "test_helpers.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/tlr/shared_basis.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"

namespace tlrwse::mdc {
namespace {

std::vector<la::MatrixCF> kernel_matrices(index_t ns, index_t nr,
                                          std::size_t nf) {
  std::vector<la::MatrixCF> ks;
  for (std::size_t q = 0; q < nf; ++q) {
    ks.push_back(tlrwse::testing::oscillatory_matrix<cf32>(
        ns, nr, 6.0 + 2.0 * static_cast<double>(q)));
  }
  return ks;
}

std::unique_ptr<MdcOperator> build_op(index_t nt, index_t ns, index_t nr,
                                      const std::vector<index_t>& bins) {
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  tlr::CompressionConfig cc;
  cc.nb = 8;
  cc.acc = 1e-5;
  for (const auto& K : kernel_matrices(ns, nr, bins.size())) {
    kernels.push_back(std::make_unique<TlrMvm>(
        tlr::StackedTlr<cf32>(tlr::compress_tlr(K, cc))));
  }
  return std::make_unique<MdcOperator>(nt, bins, std::move(kernels));
}

class NtSweep : public ::testing::TestWithParam<int> {};

TEST_P(NtSweep, AdjointDotTestAcrossWindowLengths) {
  const index_t nt = GetParam();
  const std::vector<index_t> bins{2, nt / 4, nt / 2 - 1};
  const auto op = build_op(nt, 9, 6, bins);
  Rng rng(nt);
  std::vector<float> x(static_cast<std::size_t>(op->cols()));
  std::vector<float> y(static_cast<std::size_t>(op->rows()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  std::vector<float> ax(y.size()), aty(x.size());
  op->apply(x, std::span<float>(ax));
  op->apply_adjoint(y, std::span<float>(aty));
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += double(ax[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-4 * (std::abs(lhs) + std::abs(rhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(WindowLengths, NtSweep,
                         ::testing::Values(16, 64, 100, 256));

TEST(MdcBackends, AllKernelsProduceSameAction) {
  const std::vector<index_t> bins{3, 9};
  const auto ks = kernel_matrices(10, 8, bins.size());
  std::vector<std::unique_ptr<FrequencyMvm>> dense_kernels;
  for (const auto& K : ks) {
    dense_kernels.push_back(std::make_unique<DenseMvm>(K));
  }
  const MdcOperator dense(64, bins, std::move(dense_kernels));
  const auto tlr_op = build_op(64, 10, 8, bins);
  tlr::SharedBasisConfig sc;
  sc.nb = 8;
  sc.acc = 1e-5;
  const MdcOperator shared(
      64, bins,
      make_shared_basis_kernels(tlr::SharedBasisStackedTlr<cf32>::fit(
          std::span<const la::MatrixCF>(ks), sc)));
  Rng rng(17);
  std::vector<float> x(static_cast<std::size_t>(dense.cols()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y1(static_cast<std::size_t>(dense.rows()));
  std::vector<float> y2(y1.size()), y3(y1.size());
  dense.apply(x, std::span<float>(y1));
  tlr_op->apply(x, std::span<float>(y2));
  shared.apply(x, std::span<float>(y3));
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-4);
    EXPECT_NEAR(y1[i], y3[i], 1e-4);
  }
}

TEST(MdcOperator, LinearityOverSuperposition) {
  const std::vector<index_t> bins{4, 11};
  const auto op = build_op(64, 8, 6, bins);
  Rng rng(23);
  std::vector<float> x1(static_cast<std::size_t>(op->cols()));
  std::vector<float> x2(x1.size());
  for (auto& v : x1) v = static_cast<float>(rng.normal());
  for (auto& v : x2) v = static_cast<float>(rng.normal());
  std::vector<float> xs(x1.size());
  for (std::size_t i = 0; i < x1.size(); ++i) xs[i] = 2.0f * x1[i] - x2[i];
  std::vector<float> y1(static_cast<std::size_t>(op->rows()));
  std::vector<float> y2(y1.size()), ys(y1.size());
  op->apply(x1, std::span<float>(y1));
  op->apply(x2, std::span<float>(y2));
  op->apply(xs, std::span<float>(ys));
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(ys[i], 2.0f * y1[i] - y2[i], 2e-4);
  }
}

TEST(MdcOperator, ZeroInputZeroOutput) {
  const std::vector<index_t> bins{5};
  const auto op = build_op(32, 4, 3, bins);
  std::vector<float> x(static_cast<std::size_t>(op->cols()), 0.0f);
  std::vector<float> y(static_cast<std::size_t>(op->rows()), 1.0f);
  op->apply(x, std::span<float>(y));
  for (float v : y) EXPECT_EQ(v, 0.0f);
}

TEST(MdcOperator, SizeValidation) {
  const std::vector<index_t> bins{5};
  const auto op = build_op(32, 4, 3, bins);
  std::vector<float> bad(10), y(static_cast<std::size_t>(op->rows()));
  EXPECT_THROW(op->apply(std::span<const float>(bad), std::span<float>(y)),
               std::invalid_argument);
  EXPECT_THROW(
      op->apply_adjoint(std::span<const float>(bad), std::span<float>(y)),
      std::invalid_argument);
}

}  // namespace
}  // namespace tlrwse::mdc
