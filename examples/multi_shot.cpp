// Multi-shot processing: a line of virtual sources deconvolved in parallel
// (paper Sec. 6.4: 177 virtual sources on 708 GPUs), the batched TLR-MMM
// kernel from the Sec. 8 outlook, and NMO stacking of the zero-offset
// traces (the post-processing of Fig. 13's last panel).
#include <cstdio>

#include "tlrwse/common/rng.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/mdd/multi_source.hpp"
#include "tlrwse/mdd/nmo.hpp"
#include "tlrwse/tlr/tlr_mmm.hpp"

int main() {
  using namespace tlrwse;
  std::printf("== Multi-shot MDD: a crossline of virtual sources ==\n");
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(14, 10, 12, 9);
  cfg.nt = 256;
  cfg.f_min = 4.0;
  cfg.f_max = 30.0;
  const auto data = seismic::build_dataset(cfg);

  tlr::CompressionConfig cc;
  cc.nb = 24;
  cc.acc = 1e-4;
  const auto op = mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, cc);

  const auto line =
      mdd::virtual_source_line(data, data.num_receivers() / 2, 8);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 30;
  WallTimer t_line;
  const auto res = mdd::solve_mdd_multi(data, *op, line, lsqr);
  std::printf("solved %zu virtual sources in %.1fs: mean NMSE %.4f, worst "
              "%.4f\n",
              res.sources.size(), t_line.seconds(), res.mean_nmse,
              res.worst_nmse);

  // Batched TLR-MMM: all shots against one frequency kernel at once.
  const auto tlr_mat = tlr::compress_tlr(
      data.p_down[static_cast<std::size_t>(data.num_freqs() / 2)], cc);
  tlr::StackedTlr<cf32> stacks(tlr_mat);
  const auto s = static_cast<index_t>(line.size());
  la::MatrixCF X(data.num_receivers(), s);
  Rng rng(7);
  fill_normal(rng, X.data(), static_cast<std::size_t>(X.size()));
  la::MatrixCF Y(data.num_sources(), s);
  WallTimer t_mmm;
  tlr::tlr_mmm_fused(stacks, X, Y);
  const auto traffic = tlr::tlr_mmm_traffic(stacks, s);
  std::printf("TLR-MMM over %lld shots: %.2f ms, modelled traffic saving "
              "%.2fx vs %lld MVMs\n",
              static_cast<long long>(s), t_mmm.millis(), traffic.saving(),
              static_cast<long long>(s));

  // NMO-stack the solved reflectivities of the line into one image trace
  // (each solution's zero-offset vicinity forms a midpoint gather).
  std::vector<std::vector<float>> gather;
  std::vector<double> offsets;
  const index_t nt = data.config.nt;
  for (std::size_t k = 0; k < res.sources.size(); ++k) {
    const index_t v = res.sources[k];
    const auto& pos_v = data.receiver_pos[static_cast<std::size_t>(v)];
    // Use the trace at the virtual source itself and its line neighbours.
    const auto& x = res.solutions[k].x;
    std::vector<float> tr(static_cast<std::size_t>(nt));
    std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(v * nt), nt,
                tr.begin());
    gather.push_back(std::move(tr));
    offsets.push_back(seismic::horizontal_distance(
        pos_v, data.receiver_pos[static_cast<std::size_t>(res.sources[0])]));
  }
  mdd::NmoConfig nmo;
  nmo.velocity = data.config.model.sediment_velocity;
  nmo.dt = data.config.dt;
  const auto stack = mdd::nmo_stack(gather, offsets, nmo);
  std::printf("NMO stack of %zu zero-offset traces: peak amplitude %.3e "
              "(single-trace noise averaged down ~sqrt(n))\n",
              gather.size(),
              *std::max_element(stack.begin(), stack.end(),
                                [](float a, float b) {
                                  return std::abs(a) < std::abs(b);
                                }));
  return 0;
}
