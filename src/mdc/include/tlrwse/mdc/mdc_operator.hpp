// The Multi-Dimensional Convolution operator y = F^H K F x (Eqn. 2).
//
// x is a time-domain wavefield over receivers (nt x nR, column-major per
// trace), y over sources (nt x nS). Forward: batched rFFT along time, one
// kernel MVM per retained frequency, Hermitian-symmetric inverse rFFT.
// The adjoint runs the same pipeline with K^H: with the scaling conventions
// of rfft/irfft (forward unnormalised, inverse 1/nt, band excluding DC and
// Nyquist, Hermitian doubling in irfft) the composition irfft . K^H . rfft
// is the EXACT real adjoint of irfft . K . rfft — the (2/nt) factors of the
// two directions cancel identically, so the dot test holds to round-off.
//
// The per-frequency kernel MVMs are independent (each frequency owns its
// own rFFT bin), so the kernel loop runs OpenMP-parallel with one
// FrequencyWorkspace + gather/scatter scratch per thread, and all page and
// FFT buffers are pooled: after a warm-up apply, repeated applies — the
// steady state of an LSQR/CGLS solve — perform no heap allocation.
#pragma once

#include <memory>
#include <vector>

#include "tlrwse/common/workspace_pool.hpp"
#include "tlrwse/fft/fft.hpp"
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
  /// FFTs run per RHS, but each frequency kernel sees all RHS as one
  /// multi-RHS panel — one sweep over the operator data instead of nrhs —
  /// which is where coalesced serve requests gain their throughput. Every
  /// RHS column is bitwise identical to the corresponding single apply.
  void apply_batch(std::span<const float> X, std::span<float> Y,
                   index_t nrhs) const;
  void apply_adjoint_batch(std::span<const float> Y, std::span<float> X,
                           index_t nrhs) const override;

  /// Caps the OpenMP team size of the frequency loop (0 = runtime default).
  /// Concurrent top-level applies from distinct OS threads each spawn their
  /// own team; a multi-tenant caller (the solve service) divides the
  /// machine between request workers with this instead of oversubscribing
  /// workers x omp_get_max_threads() ways. Thread count never changes the
  /// results (each frequency owns its bin), only the schedule.
  void set_inner_threads(int n) noexcept { inner_threads_ = n < 0 ? 0 : n; }
  [[nodiscard]] int inner_threads() const noexcept { return inner_threads_; }

 private:
  /// Per-thread scratch of the frequency loop: the gathered per-frequency
  /// input/output slices plus the kernel backend's workspace.
  struct FreqScratch {
    std::vector<cf32> xk;  // receiver-side slice at one frequency
    std::vector<cf32> yk;  // source-side slice at one frequency
    FrequencyWorkspace kernel;
  };
  /// Per-call scratch of one apply/apply_adjoint: the full spectral pages
  /// and the batched-FFT buffers. Pooled per calling thread so concurrent
  /// top-level applies of one operator stay independent.
  struct PageScratch {
    std::vector<cf32> xhat;  // receiver-side spectrum, nf_full x nr
    std::vector<cf32> yhat;  // source-side spectrum, nf_full x ns
    fft::BatchWorkspace fft;
  };

  /// The kernel loop shared by the four apply forms: one ascending sweep
  /// over the stream's shards, each shard an OpenMP region over its
  /// frequencies with `per_freq(q, kernel, scratch)` doing the
  /// direction-specific gather/MVM/scatter. Polls the calling scope's
  /// cancel hook between MVMs and between shards; throws CancelledError
  /// on cancellation and rethrows the stream's typed error on a failed
  /// acquire. Defined in the .cpp (only apply* instantiates it).
  template <typename PerFreq>
  void kernel_sweep(PageScratch& ps, const PerFreq& per_freq) const;

  index_t nt_ = 0;
  index_t ns_ = 0;  // kernel rows (sources)
  index_t nr_ = 0;  // kernel cols (receivers)
  index_t nq_ = 0;  // retained frequencies
  int inner_threads_ = 0;  // 0 = OpenMP runtime default team size
  std::vector<index_t> freq_bins_;
  std::shared_ptr<KernelStream> stream_;
  fft::FftPlan plan_;  // time-axis plan, shared by every apply
  WorkspacePool<FreqScratch> freq_scratch_;
  WorkspacePool<PageScratch> page_scratch_;
};

}  // namespace tlrwse::mdc
