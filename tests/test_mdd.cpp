// End-to-end MDD tests on a tiny synthetic dataset: inversion beats the
// adjoint, tighter compression accuracy beats looser (the Fig. 11/12
// behaviours at test scale).
#include <gtest/gtest.h>

#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"

namespace tlrwse::mdd {
namespace {

const seismic::SeismicDataset& tiny_dataset() {
  static const seismic::SeismicDataset data = [] {
    seismic::DatasetConfig cfg;
    cfg.geometry = seismic::AcquisitionGeometry::small_scale(10, 8, 8, 6);
    cfg.nt = 128;
    cfg.f_min = 4.0;
    cfg.f_max = 40.0;
    return seismic::build_dataset(cfg);
  }();
  return data;
}

TEST(Mdd, RhsAndTruthShapes) {
  const auto& data = tiny_dataset();
  const index_t v = data.num_receivers() / 2;
  const auto rhs = virtual_source_rhs(data, v);
  const auto truth = true_reflectivity_traces(data, v);
  EXPECT_EQ(rhs.size(),
            static_cast<std::size_t>(data.config.nt * data.num_sources()));
  EXPECT_EQ(truth.size(),
            static_cast<std::size_t>(data.config.nt * data.num_receivers()));
  EXPECT_GT(energy(rhs), 0.0);
  EXPECT_GT(energy(truth), 0.0);
}

TEST(Mdd, InversionRecoversTruthAndBeatsAdjoint) {
  const auto& data = tiny_dataset();
  const index_t v = data.num_receivers() / 2;
  const auto rhs = virtual_source_rhs(data, v);
  const auto truth = true_reflectivity_traces(data, v);

  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-5;
  const auto op = make_mdc_operator(data, KernelBackend::kDense, cc);

  const auto adj = adjoint_reflectivity(*op, rhs);
  LsqrConfig lsqr;
  lsqr.max_iters = 60;
  const auto inv = solve_mdd(*op, rhs, lsqr);

  // Scale-invariant comparison for the adjoint (it has arbitrary scale):
  // use correlation; the inversion should approach the truth in NMSE.
  const double nmse_inv = nmse(inv.x, truth);
  const double corr_adj = correlation(adj, truth);
  const double corr_inv = correlation(inv.x, truth);
  EXPECT_LT(nmse_inv, 0.5);
  EXPECT_GT(corr_inv, corr_adj);
  EXPECT_GT(corr_inv, 0.8);
}

TEST(Mdd, TlrBackendCloseToDense) {
  const auto& data = tiny_dataset();
  const index_t v = 3;
  const auto rhs = virtual_source_rhs(data, v);

  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-5;
  const auto dense_op = make_mdc_operator(data, KernelBackend::kDense, cc);
  const auto tlr_op = make_mdc_operator(data, KernelBackend::kTlr, cc);

  LsqrConfig lsqr;
  lsqr.max_iters = 30;
  const auto xd = solve_mdd(*dense_op, rhs, lsqr);
  const auto xt = solve_mdd(*tlr_op, rhs, lsqr);
  EXPECT_LT(nmse(xt.x, xd.x), 1e-3);
}

TEST(Mdd, SharedBasisBackendCloseToDense) {
  // The runtime format switch: kTlrSharedBasis fits one basis set across
  // the whole frequency band and must invert as well as the dense path.
  const auto& data = tiny_dataset();
  const index_t v = 3;
  const auto rhs = virtual_source_rhs(data, v);

  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-5;
  const auto dense_op = make_mdc_operator(data, KernelBackend::kDense, cc);
  const auto shared_op =
      make_mdc_operator(data, KernelBackend::kTlrSharedBasis, cc);
  EXPECT_EQ(shared_op->num_freqs(), dense_op->num_freqs());

  LsqrConfig lsqr;
  lsqr.max_iters = 30;
  const auto xd = solve_mdd(*dense_op, rhs, lsqr);
  const auto xs = solve_mdd(*shared_op, rhs, lsqr);
  EXPECT_LT(nmse(xs.x, xd.x), 1e-3);
}

TEST(Mdd, LooserAccuracyDegradesSolution) {
  // Fig. 12 (top): loosening acc trades solution quality for compression.
  const auto& data = tiny_dataset();
  const index_t v = data.num_receivers() / 2;
  const auto rhs = virtual_source_rhs(data, v);
  const auto truth = true_reflectivity_traces(data, v);

  LsqrConfig lsqr;
  lsqr.max_iters = 40;

  tlr::CompressionConfig tight;
  tight.nb = 16;
  tight.acc = 1e-5;
  tlr::CompressionConfig loose = tight;
  loose.acc = 3e-2;

  const auto op_tight = make_mdc_operator(data, KernelBackend::kTlr, tight);
  const auto op_loose = make_mdc_operator(data, KernelBackend::kTlr, loose);
  const auto x_tight = solve_mdd(*op_tight, rhs, lsqr);
  const auto x_loose = solve_mdd(*op_loose, rhs, lsqr);

  EXPECT_LE(nmse(x_tight.x, truth), nmse(x_loose.x, truth));
  // ...while the loose kernels are smaller.
  const auto stats_tight = kernel_compression_stats(data, tight);
  const auto stats_loose = kernel_compression_stats(data, loose);
  EXPECT_LT(stats_loose.compressed_bytes, stats_tight.compressed_bytes);
}

TEST(Mdd, KernelStatsRatioAboveOne) {
  const auto& data = tiny_dataset();
  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-3;
  const auto stats = kernel_compression_stats(data, cc);
  EXPECT_GT(stats.ratio(), 1.0);
  EXPECT_GT(stats.dense_bytes, 0.0);
}

TEST(Mdd, InvalidVirtualSourceThrows) {
  const auto& data = tiny_dataset();
  EXPECT_THROW(virtual_source_rhs(data, data.num_receivers()),
               std::invalid_argument);
  EXPECT_THROW(true_reflectivity_traces(data, -1), std::invalid_argument);
}

}  // namespace
}  // namespace tlrwse::mdd
