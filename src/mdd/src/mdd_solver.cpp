#include "tlrwse/mdd/mdd_solver.hpp"

#include "tlrwse/common/error.hpp"
#include "tlrwse/tlr/shared_basis.hpp"
#include "tlrwse/tlr/stacked.hpp"

namespace tlrwse::mdd {

namespace {

/// Scales a copy of K by the surface element so the discrete MDC operator
/// matches the continuous integral (P- = P+ R dA).
la::MatrixCF scaled_kernel(const la::MatrixCF& K, double dA) {
  la::MatrixCF out = K;
  const auto s = static_cast<float>(dA);
  for (index_t j = 0; j < out.cols(); ++j) {
    cf32* col = out.col(j);
    for (index_t i = 0; i < out.rows(); ++i) col[i] *= s;
  }
  return out;
}

}  // namespace

std::unique_ptr<mdc::MdcOperator> make_mdc_operator(
    const seismic::SeismicDataset& data, KernelBackend backend,
    const tlr::CompressionConfig& compression) {
  const double dA = data.surface_element();
  if (backend == KernelBackend::kTlrSharedBasis) {
    // One basis fit across the whole band, per-frequency cores only.
    std::vector<la::MatrixCF> band;
    band.reserve(static_cast<std::size_t>(data.num_freqs()));
    for (index_t q = 0; q < data.num_freqs(); ++q) {
      band.push_back(
          scaled_kernel(data.p_down[static_cast<std::size_t>(q)], dA));
    }
    tlr::SharedBasisConfig sb;
    sb.nb = compression.nb;
    sb.acc = compression.acc;
    sb.max_rank = compression.max_rank;
    return std::make_unique<mdc::MdcOperator>(
        data.config.nt, data.freq_bins,
        mdc::make_shared_basis_kernels(tlr::SharedBasisStackedTlr<cf32>::fit(
            std::span<const la::MatrixCF>(band), sb)));
  }
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  kernels.reserve(static_cast<std::size_t>(data.num_freqs()));
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    la::MatrixCF K = scaled_kernel(data.p_down[static_cast<std::size_t>(q)], dA);
    if (backend == KernelBackend::kDense) {
      kernels.push_back(std::make_unique<mdc::DenseMvm>(std::move(K)));
      continue;
    }
    kernels.push_back(std::make_unique<mdc::TlrMvm>(
        tlr::StackedTlr<cf32>(tlr::compress_tlr(K, compression))));
  }
  return std::make_unique<mdc::MdcOperator>(data.config.nt, data.freq_bins,
                                            std::move(kernels));
}

KernelStats kernel_compression_stats(
    const seismic::SeismicDataset& data,
    const tlr::CompressionConfig& compression) {
  KernelStats stats;
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    const auto tlr_mat =
        tlr::compress_tlr(data.p_down[static_cast<std::size_t>(q)], compression);
    stats.compressed_bytes += tlr_mat.compressed_bytes();
    stats.dense_bytes += tlr_mat.dense_bytes();
  }
  return stats;
}

std::vector<float> virtual_source_rhs(const seismic::SeismicDataset& data,
                                      index_t v) {
  TLRWSE_REQUIRE(v >= 0 && v < data.num_receivers(), "virtual source index");
  const index_t ns = data.num_sources();
  std::vector<std::vector<cf32>> per_freq(
      static_cast<std::size_t>(data.num_freqs()));
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    const auto& pu = data.p_up[static_cast<std::size_t>(q)];
    auto& vals = per_freq[static_cast<std::size_t>(q)];
    vals.resize(static_cast<std::size_t>(ns));
    for (index_t s = 0; s < ns; ++s) {
      vals[static_cast<std::size_t>(s)] = pu(s, v);
    }
  }
  return seismic::band_to_time(data, per_freq, ns);
}

std::vector<float> true_reflectivity_traces(const seismic::SeismicDataset& data,
                                            index_t v) {
  TLRWSE_REQUIRE(v >= 0 && v < data.num_receivers(), "virtual source index");
  const index_t nr = data.num_receivers();
  std::vector<std::vector<cf32>> per_freq(
      static_cast<std::size_t>(data.num_freqs()));
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    const auto& R = data.reflectivity[static_cast<std::size_t>(q)];
    auto& vals = per_freq[static_cast<std::size_t>(q)];
    vals.resize(static_cast<std::size_t>(nr));
    for (index_t r = 0; r < nr; ++r) {
      vals[static_cast<std::size_t>(r)] = R(v, r);
    }
  }
  return seismic::band_to_time(data, per_freq, nr);
}

std::vector<float> adjoint_reflectivity(const mdc::MdcOperator& op,
                                        std::span<const float> rhs) {
  std::vector<float> x(static_cast<std::size_t>(op.cols()));
  op.apply_adjoint(rhs, std::span<float>(x));
  return x;
}

std::vector<float> adjoint_reflectivity_batch(const mdc::MdcOperator& op,
                                              std::span<const float> rhs_batch,
                                              index_t nrhs) {
  std::vector<float> x(static_cast<std::size_t>(op.cols() * nrhs));
  op.apply_adjoint_batch(rhs_batch, std::span<float>(x), nrhs);
  return x;
}

LsqrResult solve_mdd(const mdc::MdcOperator& op, std::span<const float> rhs,
                     const LsqrConfig& cfg) {
  return lsqr_solve(op, rhs, cfg);
}

}  // namespace tlrwse::mdd
