// The Multi-Dimensional Convolution operator y = F^H K F x (Eqn. 2).
//
// x is a time-domain wavefield over receivers (nt x nR, column-major per
// trace), y over sources (nt x nS). Forward: the band-limited transform F
// (mdc::BandTransform) takes every receiver trace to the retained bins,
// one kernel MVM runs per retained frequency, and F^H returns the source
// side to time. The adjoint runs the same pipeline with K^H.
//
// Scaling and the exact adjoint: F is the unnormalised band DFT, a real
// matrix C over (re, im) rows; F^H is (2/nt) C^T, the rfft/irfft pair
// restricted to bins strictly between DC and Nyquist (the factor 2 is
// irfft's Hermitian doubling, 1/nt its normalisation). Both directions
// are built from the same float32 table C, so the adjoint C^T K^H (2/nt) C
// is the transpose of (2/nt) C^T K C and the dot test holds to round-off.
//
// F writes the spectrum frequency-major ([q][rhs][trace]), so each kernel
// reads and writes its x_q / y_q panel in place. The per-frequency kernel
// MVMs are independent, so the kernel loop runs OpenMP-parallel with one
// FrequencyWorkspace per thread; the transform splits traces over a team
// of the same size. Spectra and workspaces are pooled: after a warm-up
// apply, repeated applies — the steady state of an LSQR/CGLS solve —
// perform no heap allocation.
#pragma once

#include <memory>
#include <vector>

#include "tlrwse/common/workspace_pool.hpp"
#include "tlrwse/mdc/band_transform.hpp"
#include "tlrwse/mdc/frequency_mvm.hpp"
#include "tlrwse/mdc/kernel_stream.hpp"
#include "tlrwse/mdc/linear_operator.hpp"

namespace tlrwse::mdc {

class MdcOperator final : public LinearOperator {
 public:
  /// `freq_bins[q]` is the rFFT bin index of kernel q; bins must be
  /// distinct (each kernel owns its bin — also what makes the frequency
  /// loop race-free) and lie strictly between DC and Nyquist. All kernels
  /// must share dimensions. Wraps the kernels in a one-shard resident
  /// stream, so the frequency loop runs as a single OpenMP region exactly
  /// as before streams existed.
  MdcOperator(index_t nt, std::vector<index_t> freq_bins,
              std::vector<std::unique_ptr<FrequencyMvm>> kernels);

  /// Streamed form: kernels arrive shard by shard from `stream` (e.g. an
  /// out-of-core prefetcher). Given the same kernels, results are bitwise
  /// identical to the resident constructor's — each frequency's arithmetic
  /// and rFFT bin never depend on the sharding; only residency timing
  /// differs. The cancel hook of the calling scope is additionally checked
  /// between shards, before each (possibly blocking) acquire.
  MdcOperator(index_t nt, std::vector<index_t> freq_bins,
              std::shared_ptr<KernelStream> stream);

  [[nodiscard]] index_t rows() const override { return nt_ * ns_; }
  [[nodiscard]] index_t cols() const override { return nt_ * nr_; }
  [[nodiscard]] index_t nt() const noexcept { return nt_; }
  [[nodiscard]] index_t num_sources() const noexcept { return ns_; }
  [[nodiscard]] index_t num_receivers() const noexcept { return nr_; }
  [[nodiscard]] index_t num_freqs() const noexcept { return nq_; }

  void apply(std::span<const float> x, std::span<float> y) const override;
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override;

  /// Batched forms: X holds nrhs wavefields back to back (cols() floats
  /// each for apply, rows() for the adjoint), Y the matching outputs.
  /// Each frequency kernel sees all RHS as one multi-RHS panel — one sweep
  /// over the operator data instead of nrhs — which is where coalesced
  /// serve requests gain their throughput. Every RHS column is bitwise
  /// identical to the corresponding single apply.
  void apply_batch(std::span<const float> X, std::span<float> Y,
                   index_t nrhs) const;
  void apply_adjoint_batch(std::span<const float> Y, std::span<float> X,
                           index_t nrhs) const override;

  /// Caps the OpenMP team size of the frequency loop and the transform
  /// (0 = runtime default). Concurrent top-level applies from distinct OS
  /// threads each spawn their own team; a multi-tenant caller (the solve
  /// service) divides the machine between request workers with this
  /// instead of oversubscribing workers x omp_get_max_threads() ways.
  /// Thread count never changes the results (each frequency owns its bin,
  /// each trace its GEMM column), only the schedule.
  void set_inner_threads(int n) noexcept { inner_threads_ = n < 0 ? 0 : n; }
  [[nodiscard]] int inner_threads() const noexcept { return inner_threads_; }

 private:
  /// Per-call spectra of one apply: the receiver-side and source-side
  /// bins, frequency-major. Pooled per calling thread so concurrent
  /// top-level applies of one operator stay independent.
  struct PageScratch {
    std::vector<cf32> xhat;  // nq x nrhs x nr
    std::vector<cf32> yhat;  // nq x nrhs x ns
  };

  /// The pipeline behind the four apply forms: F over `in`, the kernel
  /// sweep (K or K^H; the multi-RHS kernel call when nrhs > 1), F^H into
  /// `out`.
  void run(std::span<const float> in, std::span<float> out, index_t nrhs,
           bool adjoint) const;

  /// The kernel loop: one ascending sweep over the stream's shards, each
  /// shard an OpenMP region over its frequencies with
  /// `per_freq(q, kernel, ws)` doing the MVM. Polls the calling scope's
  /// cancel hook between MVMs and between shards; throws CancelledError
  /// on cancellation and rethrows the stream's typed error on a failed
  /// acquire. Defined in the .cpp (only run instantiates it).
  template <typename PerFreq>
  void kernel_sweep(PageScratch& ps, const PerFreq& per_freq) const;

  index_t nt_ = 0;
  index_t ns_ = 0;  // kernel rows (sources)
  index_t nr_ = 0;  // kernel cols (receivers)
  index_t nq_ = 0;  // retained frequencies
  int inner_threads_ = 0;  // 0 = OpenMP runtime default team size
  BandTransform transform_;
  std::shared_ptr<KernelStream> stream_;
  WorkspacePool<FrequencyWorkspace> freq_scratch_;
  WorkspacePool<PageScratch> page_scratch_;
};

}  // namespace tlrwse::mdc
