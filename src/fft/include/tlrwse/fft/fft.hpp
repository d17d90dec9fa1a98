// Complex FFT with radix-2 Cooley–Tukey for power-of-two sizes and the
// Bluestein chirp-z algorithm for arbitrary sizes, plus real-signal helpers
// and batched transforms along the time axis of seismic gathers.
//
// This is the general, full-spectrum double-precision FFT used by the
// synthetic-survey modelling (src/seismic) and as the reference in tests
// and benches. The MDC operator's own F / F^H (Eqn. 2) touch only the
// retained band and run as a float32 GEMM in mdc::BandTransform.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "tlrwse/common/types.hpp"

namespace tlrwse::fft {

/// Reusable FFT plan for a fixed transform length `n` (any n >= 1).
/// Precomputes twiddle factors (and, for non-power-of-two n, the Bluestein
/// chirp sequence and its transformed convolution kernel).
class FftPlan {
 public:
  explicit FftPlan(index_t n);

  [[nodiscard]] index_t size() const noexcept { return n_; }

  /// In-place forward DFT: X[k] = sum_t x[t] exp(-2*pi*i*k*t/n).
  void forward(std::span<cf64> x) const;
  /// In-place inverse DFT with 1/n normalisation.
  void inverse(std::span<cf64> x) const;

  /// Single-precision convenience wrappers (convert through double for
  /// accuracy; transform lengths here are a few hundred samples).
  void forward(std::span<cf32> x) const;
  void inverse(std::span<cf32> x) const;

 private:
  void pow2_transform(std::span<cf64> x, bool inv) const;
  void bluestein(std::span<cf64> x, bool inv) const;

  index_t n_ = 0;
  index_t pow2_n_ = 0;            // n_ if power of two, else conv length
  bool is_pow2_ = false;
  std::vector<cf64> twiddle_;     // forward twiddles for the pow2 kernel
  std::vector<cf64> chirp_;       // Bluestein chirp a_t = exp(-i*pi*t^2/n)
  std::vector<cf64> chirp_fft_;   // FFT of the zero-padded conjugate chirp
};

/// Frequency bin values (Hz) for a real signal of length nt sampled at dt:
/// f_k = k / (nt * dt) for k in [0, nt/2].
[[nodiscard]] std::vector<double> rfft_frequencies(index_t nt, double dt);

/// Forward real-to-complex transform: returns the nt/2 + 1 non-negative
/// frequency coefficients of the real signal x.
[[nodiscard]] std::vector<cf64> rfft(std::span<const double> x);

/// Inverse of rfft: reconstructs a real signal of length nt from its
/// non-negative-frequency coefficients (Hermitian symmetry is implied).
[[nodiscard]] std::vector<double> irfft(std::span<const cf64> spec, index_t nt);

/// Batched forward rfft along the first axis of a (nt x ntraces) page stored
/// column-major: each trace (column) is transformed independently. Output is
/// (nf x ntraces) with nf = nt/2 + 1. OpenMP-parallel across traces with
/// the runtime's default team.
void rfft_batch(std::span<const float> time_page, index_t nt, index_t ntraces,
                std::span<cf32> freq_page);

/// Batched inverse of rfft_batch.
void irfft_batch(std::span<const cf32> freq_page, index_t nt, index_t ntraces,
                 std::span<float> time_page);

}  // namespace tlrwse::fft
