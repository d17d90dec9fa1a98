// End-to-end Multi-Dimensional Deconvolution driver.
//
// Assembles, for a chosen virtual source on the receiver datum, the MDC
// operator (dense or TLR-compressed kernels), the observed upgoing data as
// the right-hand side, and the known true local reflectivity for scoring —
// then inverts with LSQR (paper Sec. 6.2: 30 iterations) or applies the
// adjoint (cross-correlation) for the Fig. 11a comparison.
#pragma once

#include <memory>
#include <vector>

#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/mdd/lsqr.hpp"
#include "tlrwse/seismic/modeling.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"

namespace tlrwse::mdd {

enum class KernelBackend {
  kDense,
  // TLR: per-frequency tile low-rank kernels (tlr::StackedTlr run as an
  // MvmPlan).
  kTlr,
  // Shared-basis TLR: tile bases fit once across the whole frequency band,
  // per-frequency cores only (tlr::SharedBasisStackedTlr).
  kTlrSharedBasis,
};

struct MddConfig {
  KernelBackend backend = KernelBackend::kTlr;
  tlr::CompressionConfig compression;  // used by the TLR backends
  LsqrConfig lsqr;
};

/// Builds the MDC operator from the dataset's downgoing kernels. For TLR
/// backends each frequency matrix is compressed with the given config; the
/// surface element dA of the MDC integral is folded into the kernels.
[[nodiscard]] std::unique_ptr<mdc::MdcOperator> make_mdc_operator(
    const seismic::SeismicDataset& data, KernelBackend backend,
    const tlr::CompressionConfig& compression);

/// Average compression ratio of the kernels actually built (1.0 for dense).
/// Measured on the same compressed tiles the operator uses.
struct KernelStats {
  double compressed_bytes = 0.0;
  double dense_bytes = 0.0;
  [[nodiscard]] double ratio() const {
    return compressed_bytes > 0.0 ? dense_bytes / compressed_bytes : 1.0;
  }
};
[[nodiscard]] KernelStats kernel_compression_stats(
    const seismic::SeismicDataset& data,
    const tlr::CompressionConfig& compression);

/// Observed data b for virtual source v: the upgoing wavefield at v from
/// every source, as time traces (nt x nS column-major).
[[nodiscard]] std::vector<float> virtual_source_rhs(
    const seismic::SeismicDataset& data, index_t v);

/// Ground-truth local reflectivity for virtual source v (nt x nR traces).
[[nodiscard]] std::vector<float> true_reflectivity_traces(
    const seismic::SeismicDataset& data, index_t v);

/// Cross-correlation (adjoint) estimate x = A^T b — Fig. 11a.
[[nodiscard]] std::vector<float> adjoint_reflectivity(
    const mdc::MdcOperator& op, std::span<const float> rhs);

/// Batched cross-correlation: `rhs_batch` holds nrhs right-hand sides back
/// to back (op.rows() floats each); the result holds the nrhs estimates
/// (op.cols() each), every one bitwise identical to the single-RHS call.
/// Runs one multi-RHS sweep over the operator per frequency, so coalesced
/// serve requests pay the kernel-data traffic once.
[[nodiscard]] std::vector<float> adjoint_reflectivity_batch(
    const mdc::MdcOperator& op, std::span<const float> rhs_batch,
    index_t nrhs);

/// LSQR inversion — Fig. 11b/c.
[[nodiscard]] LsqrResult solve_mdd(const mdc::MdcOperator& op,
                                   std::span<const float> rhs,
                                   const LsqrConfig& cfg);

}  // namespace tlrwse::mdd
