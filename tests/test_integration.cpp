// Integration tests spanning the full pipeline: synthetic dataset ->
// Hilbert ordering -> TLR compression -> MDC operator -> LSQR MDD, plus
// the WSE mapping of the very same compressed kernels — the end-to-end
// story of the paper at test scale.
#include <gtest/gtest.h>

#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/tlr/stacked.hpp"
#include "tlrwse/tlr/tlr_mvm.hpp"
#include "tlrwse/wse/functional.hpp"
#include "tlrwse/wse/machine.hpp"

namespace tlrwse {
namespace {

const seismic::SeismicDataset& dataset() {
  static const seismic::SeismicDataset data = [] {
    seismic::DatasetConfig cfg;
    cfg.geometry = seismic::AcquisitionGeometry::small_scale(14, 10, 12, 9);
    cfg.nt = 128;
    cfg.f_min = 4.0;
    // 28 Hz cap keeps ~2.7 samples per wavelength at the 20 m spacing, so
    // the Hilbert-sorted tiles have genuine low-rank structure even at this
    // tiny station count (the paper-scale grids are far denser per tile).
    cfg.f_max = 28.0;
    return seismic::build_dataset(cfg);
  }();
  return data;
}

TEST(Integration, CompressOperateInvert) {
  const auto& data = dataset();
  tlr::CompressionConfig cc;
  cc.nb = 18;
  cc.acc = 1e-4;

  // Kernels compress (structure is there after the Hilbert sort).
  const auto stats = mdd::kernel_compression_stats(data, cc);
  EXPECT_GT(stats.ratio(), 1.0);

  // TLR-backed MDD inversion recovers the known truth.
  const auto op = mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, cc);
  const index_t v = data.num_receivers() / 3;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  const auto truth = mdd::true_reflectivity_traces(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 50;
  const auto sol = mdd::solve_mdd(*op, rhs, lsqr);
  EXPECT_LT(mdd::nmse(sol.x, truth), 0.5);
  EXPECT_GT(mdd::correlation(sol.x, truth), 0.75);
}

TEST(Integration, WseMappingOfRealKernelsIsExact) {
  // Compress every frequency kernel, then push one through the WSE chunked
  // execution and compare with the reference TLR-MVM.
  const auto& data = dataset();
  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-4;
  const index_t q = data.num_freqs() / 2;
  const auto tlr_mat =
      tlr::compress_tlr(data.p_down[static_cast<std::size_t>(q)], cc);
  tlr::StackedTlr<cf32> stacks(tlr_mat);

  Rng rng(55);
  std::vector<cf32> x(static_cast<std::size_t>(data.num_receivers()));
  fill_normal(rng, x.data(), x.size());

  const auto y_ref = tlr::tlr_mvm_fused(stacks, std::span<const cf32>(x));
  for (index_t sw : {4, 16, 64}) {
    const auto y = wse::functional_wse_mvm(stacks, sw, std::span<const cf32>(x));
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      num += std::norm(static_cast<cf64>(y[i]) - static_cast<cf64>(y_ref[i]));
      den += std::norm(static_cast<cf64>(y_ref[i]));
    }
    EXPECT_LT(std::sqrt(num / std::max(den, 1e-30)), 1e-4) << "sw=" << sw;
  }
}

TEST(Integration, WsePerformanceReportOnRealKernels) {
  // Map all compressed frequency matrices of the small dataset onto the
  // simulated machine and verify the report is physically sensible.
  const auto& data = dataset();
  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-4;
  std::vector<tlr::TlrMatrix<cf32>> mats;
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    mats.push_back(
        tlr::compress_tlr(data.p_down[static_cast<std::size_t>(q)], cc));
  }
  wse::TlrRankSource source(mats);

  wse::ClusterConfig cfg;
  cfg.stack_width = 16;
  const auto rep = wse::simulate_cluster(source, cfg);
  EXPECT_GT(rep.chunks, 0);
  EXPECT_TRUE(rep.fits_sram);
  EXPECT_EQ(rep.systems, 1);  // tiny dataset fits one CS-2
  EXPECT_GT(rep.relative_bw, 0.0);
  EXPECT_GT(rep.absolute_bw, rep.relative_bw);

  // The total relative bytes correspond to 16x the complex element count
  // of the bases (each real half read twice across the four real MVMs),
  // plus vector terms — so at least 16x.
  double elems = 0.0;
  for (const auto& m : mats) elems += m.compressed_bytes() / sizeof(cf32);
  EXPECT_GT(rep.relative_bytes, 16.0 * elems);
}

TEST(Integration, StrongScalingImprovesBandwidth) {
  const auto& data = dataset();
  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-4;
  std::vector<tlr::TlrMatrix<cf32>> mats;
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    mats.push_back(
        tlr::compress_tlr(data.p_down[static_cast<std::size_t>(q)], cc));
  }
  wse::TlrRankSource source(mats);

  double prev_bw = 0.0;
  for (index_t sw : {64, 32, 16, 8}) {  // paper's strategy-1 scaling
    wse::ClusterConfig cfg;
    cfg.stack_width = sw;
    const auto rep = wse::simulate_cluster(source, cfg);
    EXPECT_GT(rep.relative_bw, prev_bw);
    prev_bw = rep.relative_bw;
  }
}

}  // namespace
}  // namespace tlrwse
