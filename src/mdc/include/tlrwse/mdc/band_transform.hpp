// The band-limited time <-> frequency transform F / F^H of the MDC
// operator y = F^H K F x (Eqn. 2), restricted to the retained bins.
//
// The operator keeps a few dozen of the nt/2 + 1 rFFT bins, so instead of
// a full-length FFT the transform evaluates the band DFT directly, in
// float32, as one real GEMM per block of traces through the SIMD engine:
//
//   forward  X[q] = sum_t x_t e^{-2 pi i b_q t / nt}        = C x
//   inverse  y_t  = (2/nt) Re sum_q X[q] e^{+2 pi i b_q t / nt}
//                 = (2/nt) C^T [Re X; Im X]
//
// C has one cos row and one -sin row per bin (2 nq rows, padded with zero
// rows to a multiple of 16 so the kernel never runs its scalar row tail),
// by nt columns. Each phase is reduced as (b t) mod nt in double and
// rounded to float once, when the tables are built. The inverse table is
// (2/nt) times the transpose of the same rounded C (exact for power-of-two
// nt, one more rounding per entry otherwise): this is the rfft/irfft
// scaling (forward unnormalised, inverse 1/nt with Hermitian doubling,
// bins strictly between DC and Nyquist), and it makes irfft . K^H . rfft
// the real adjoint of irfft . K . rfft to float round-off.
//
// Frequency-major layout: the spectrum of ntraces traces is stored
// [q][trace] (nq x ntraces cf32). For nrhs wavefields of `traces` traces
// each, stored back to back, the global trace index is r * traces + t, so
// the spectrum is [q][r][t] — the FrequencyMvm multi-RHS panel layout and
// the cluster ApplyMsg.data layout, read and written in place.
//
// Traces are split in fixed blocks over an OpenMP team of the caller's
// size. sgemv_multi is bitwise per column across RHS blocking and SIMD
// tiers, so results depend neither on team size nor on batch size, and
// every steady-state call is allocation-free (per-thread tiles are
// pooled).
#pragma once

#include <span>
#include <vector>

#include "tlrwse/common/aligned.hpp"
#include "tlrwse/common/types.hpp"
#include "tlrwse/common/workspace_pool.hpp"

namespace tlrwse::mdc {

/// Team size of an apply's OpenMP regions: `cap` when positive, otherwise
/// the runtime default (1 without OpenMP).
[[nodiscard]] int team_size(int cap);

class BandTransform {
 public:
  /// `bins[q]` is the rFFT bin of output row q (the kernels' order);
  /// bins are distinct and lie strictly between DC and Nyquist.
  BandTransform(index_t nt, const std::vector<index_t>& bins);

  [[nodiscard]] index_t num_bins() const noexcept { return nq_; }

  /// `time` holds ntraces traces of nt samples back to back; `freq`
  /// receives nq x ntraces bins, frequency-major. `threads` caps the team
  /// (0 = OpenMP runtime default).
  void forward(std::span<const float> time, index_t ntraces,
               std::span<cf32> freq, int threads) const;
  /// The adjoint-exact inverse of forward over the same layouts.
  void inverse(std::span<const cf32> freq, index_t ntraces,
               std::span<float> time, int threads) const;

 private:
  using Tile = std::vector<float, AlignedAllocator<float>>;

  index_t nt_ = 0;
  index_t nq_ = 0;
  index_t m_ = 0;    // 2 nq rounded up to a multiple of 16
  index_t ldi_ = 0;  // leading dimension of inv_ (nt rounded up to 16)
  Tile fwd_;  // C, m_ x nt column-major
  Tile inv_;  // (2/nt) C^T restricted to its 2 nq live columns, ldi_ x 2nq
  WorkspacePool<Tile> tiles_;
};

}  // namespace tlrwse::mdc
