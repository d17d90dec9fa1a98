// Full MDD pipeline on an Overthrust-style synthetic ocean-bottom dataset:
// model the wavefields, compress the downgoing kernels with TLR, build the
// MDC operator, and invert for the local reflectivity with LSQR —
// the paper's Sec. 6.2 workflow at a laptop-feasible scale.
#include <cstdio>

#include "tlrwse/common/timer.hpp"
#include "tlrwse/common/units.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"

int main() {
  using namespace tlrwse;

  std::printf("== Multi-Dimensional Deconvolution on a synthetic Overthrust "
              "survey ==\n");
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(16, 12, 12, 9);
  cfg.nt = 256;
  cfg.f_min = 3.0;
  cfg.f_max = 30.0;
  WallTimer t_model;
  const auto data = seismic::build_dataset(cfg);
  std::printf("dataset: %lld sources, %lld receivers, %lld frequencies "
              "(%.1fs)\n",
              static_cast<long long>(data.num_sources()),
              static_cast<long long>(data.num_receivers()),
              static_cast<long long>(data.num_freqs()), t_model.seconds());

  // Compress the downgoing kernels (this is the pre-processing the paper
  // performs on the host before shipping bases to the CS-2s).
  tlr::CompressionConfig cc;
  cc.nb = 24;
  cc.acc = 1e-4;
  WallTimer t_comp;
  const auto stats = mdd::kernel_compression_stats(data, cc);
  std::printf("TLR compression: %s -> %s (%.2fx) in %.1fs\n",
              format_bytes(stats.dense_bytes).c_str(),
              format_bytes(stats.compressed_bytes).c_str(), stats.ratio(),
              t_comp.seconds());

  const auto op =
      mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, cc);

  // Invert for a single virtual source on the seafloor (the paper's first
  // experiment uses one at y=1620 m, x=2460 m).
  const index_t v = data.num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  const auto truth = mdd::true_reflectivity_traces(data, v);

  const auto adj = mdd::adjoint_reflectivity(*op, rhs);
  std::printf("adjoint (cross-correlation) correlation with truth: %.3f\n",
              mdd::correlation(adj, truth));

  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 30;
  lsqr.verbose = false;
  WallTimer t_inv;
  const auto sol = mdd::solve_mdd(*op, rhs, lsqr);
  std::printf("LSQR: %d iterations, |r| = %.3e (%.1fs)\n", sol.iterations,
              sol.residual_norm, t_inv.seconds());
  std::printf("inversion NMSE vs truth: %.4f, correlation: %.3f\n",
              mdd::nmse(sol.x, truth), mdd::correlation(sol.x, truth));
  std::printf("(the inversion deconvolves the source wavelet and strips the "
              "free-surface multiples that contaminate the adjoint)\n");
  return 0;
}
