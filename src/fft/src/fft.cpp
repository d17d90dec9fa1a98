#include "tlrwse/fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "tlrwse/common/error.hpp"
#include "tlrwse/common/tsan.hpp"

namespace tlrwse::fft {

namespace {

constexpr double kPi = std::numbers::pi_v<double>;

[[nodiscard]] bool is_power_of_two(index_t n) {
  return n > 0 && (n & (n - 1)) == 0;
}

[[nodiscard]] index_t next_pow2(index_t n) {
  index_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// In-place iterative radix-2 DIT FFT of length n (power of two).
/// `tw` holds n/2 forward twiddles exp(-2*pi*i*k/n); inverse conjugates.
void fft_pow2(std::span<cf64> x, std::span<const cf64> tw, bool inv) {
  const index_t n = static_cast<index_t>(x.size());
  // Bit-reversal permutation.
  for (index_t i = 1, j = 0; i < n; ++i) {
    index_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(j)]);
  }
  for (index_t len = 2; len <= n; len <<= 1) {
    const index_t half = len >> 1;
    const index_t stride = n / len;
    for (index_t i = 0; i < n; i += len) {
      for (index_t k = 0; k < half; ++k) {
        cf64 w = tw[static_cast<std::size_t>(k * stride)];
        if (inv) w = std::conj(w);
        cf64& a = x[static_cast<std::size_t>(i + k)];
        cf64& b = x[static_cast<std::size_t>(i + k + half)];
        const cf64 t = b * w;
        b = a - t;
        a += t;
      }
    }
  }
}

}  // namespace

FftPlan::FftPlan(index_t n) : n_(n) {
  TLRWSE_REQUIRE(n >= 1, "FFT length must be positive");
  is_pow2_ = is_power_of_two(n);
  pow2_n_ = is_pow2_ ? n : next_pow2(2 * n - 1);
  twiddle_.resize(static_cast<std::size_t>(pow2_n_ / 2));
  for (index_t k = 0; k < pow2_n_ / 2; ++k) {
    const double ang = -2.0 * kPi * static_cast<double>(k) /
                       static_cast<double>(pow2_n_);
    twiddle_[static_cast<std::size_t>(k)] = {std::cos(ang), std::sin(ang)};
  }
  if (!is_pow2_) {
    // Bluestein: x_hat[k] = conj(a_k) * sum_t (x_t a_t) * b_{k-t},
    // with a_t = exp(-i*pi*t^2/n) and b_t = conj(a_t) extended cyclically.
    chirp_.resize(static_cast<std::size_t>(n));
    for (index_t t = 0; t < n; ++t) {
      // t^2 mod 2n keeps the argument small for large n.
      const index_t t2 = (t * t) % (2 * n);
      const double ang = -kPi * static_cast<double>(t2) / static_cast<double>(n);
      chirp_[static_cast<std::size_t>(t)] = {std::cos(ang), std::sin(ang)};
    }
    std::vector<cf64> b(static_cast<std::size_t>(pow2_n_), cf64{});
    b[0] = std::conj(chirp_[0]);
    for (index_t t = 1; t < n; ++t) {
      const cf64 v = std::conj(chirp_[static_cast<std::size_t>(t)]);
      b[static_cast<std::size_t>(t)] = v;
      b[static_cast<std::size_t>(pow2_n_ - t)] = v;
    }
    fft_pow2(b, twiddle_, /*inv=*/false);
    chirp_fft_ = std::move(b);
  }
}

void FftPlan::pow2_transform(std::span<cf64> x, bool inv) const {
  fft_pow2(x, twiddle_, inv);
}

void FftPlan::bluestein(std::span<cf64> x, bool inv) const {
  // Inverse via conjugation: IDFT(x) = conj(DFT(conj(x))) / n.
  std::vector<cf64> a(static_cast<std::size_t>(pow2_n_), cf64{});
  for (index_t t = 0; t < n_; ++t) {
    cf64 v = x[static_cast<std::size_t>(t)];
    if (inv) v = std::conj(v);
    a[static_cast<std::size_t>(t)] = v * chirp_[static_cast<std::size_t>(t)];
  }
  fft_pow2(a, twiddle_, /*inv=*/false);
  for (index_t t = 0; t < pow2_n_; ++t) {
    a[static_cast<std::size_t>(t)] *= chirp_fft_[static_cast<std::size_t>(t)];
  }
  fft_pow2(a, twiddle_, /*inv=*/true);
  const double scale = 1.0 / static_cast<double>(pow2_n_);
  for (index_t k = 0; k < n_; ++k) {
    cf64 v = a[static_cast<std::size_t>(k)] * scale *
             chirp_[static_cast<std::size_t>(k)];
    if (inv) v = std::conj(v);
    x[static_cast<std::size_t>(k)] = v;
  }
}

void FftPlan::forward(std::span<cf64> x) const {
  TLRWSE_REQUIRE(static_cast<index_t>(x.size()) == n_, "FFT size mismatch");
  if (n_ == 1) return;
  if (is_pow2_) {
    pow2_transform(x, false);
  } else {
    bluestein(x, false);
  }
}

void FftPlan::inverse(std::span<cf64> x) const {
  TLRWSE_REQUIRE(static_cast<index_t>(x.size()) == n_, "FFT size mismatch");
  if (n_ == 1) return;
  if (is_pow2_) {
    pow2_transform(x, true);
  } else {
    bluestein(x, true);
  }
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& v : x) v *= scale;
}

void FftPlan::forward(std::span<cf32> x) const {
  std::vector<cf64> tmp(x.begin(), x.end());
  forward(std::span<cf64>(tmp));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<cf32>(tmp[i]);
}

void FftPlan::inverse(std::span<cf32> x) const {
  std::vector<cf64> tmp(x.begin(), x.end());
  inverse(std::span<cf64>(tmp));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<cf32>(tmp[i]);
}

std::vector<double> rfft_frequencies(index_t nt, double dt) {
  TLRWSE_REQUIRE(nt >= 1 && dt > 0.0, "bad rfft frequency grid");
  const index_t nf = nt / 2 + 1;
  std::vector<double> f(static_cast<std::size_t>(nf));
  for (index_t k = 0; k < nf; ++k) {
    f[static_cast<std::size_t>(k)] =
        static_cast<double>(k) / (static_cast<double>(nt) * dt);
  }
  return f;
}

std::vector<cf64> rfft(std::span<const double> x) {
  const index_t nt = static_cast<index_t>(x.size());
  FftPlan plan(nt);
  std::vector<cf64> buf(x.begin(), x.end());
  plan.forward(std::span<cf64>(buf));
  buf.resize(static_cast<std::size_t>(nt / 2 + 1));
  return buf;
}

std::vector<double> irfft(std::span<const cf64> spec, index_t nt) {
  TLRWSE_REQUIRE(static_cast<index_t>(spec.size()) == nt / 2 + 1,
                 "irfft: spectrum length mismatch");
  FftPlan plan(nt);
  std::vector<cf64> buf(static_cast<std::size_t>(nt));
  for (index_t k = 0; k <= nt / 2; ++k) {
    buf[static_cast<std::size_t>(k)] = spec[static_cast<std::size_t>(k)];
  }
  for (index_t k = nt / 2 + 1; k < nt; ++k) {
    buf[static_cast<std::size_t>(k)] =
        std::conj(spec[static_cast<std::size_t>(nt - k)]);
  }
  plan.inverse(std::span<cf64>(buf));
  std::vector<double> out(static_cast<std::size_t>(nt));
  for (index_t t = 0; t < nt; ++t) {
    out[static_cast<std::size_t>(t)] = buf[static_cast<std::size_t>(t)].real();
  }
  return out;
}

void rfft_batch(std::span<const float> time_page, index_t nt, index_t ntraces,
                std::span<cf32> freq_page) {
  const FftPlan plan(nt);
  const index_t nf = nt / 2 + 1;
  TLRWSE_REQUIRE(static_cast<index_t>(time_page.size()) == nt * ntraces,
                 "rfft_batch: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(freq_page.size()) == nf * ntraces,
                 "rfft_batch: output size");
  TLRWSE_TSAN_RELEASE(freq_page.data());
#pragma omp parallel
  {
    TLRWSE_TSAN_ACQUIRE(freq_page.data());
    std::vector<cf64> buf(static_cast<std::size_t>(nt));
#pragma omp for schedule(static)
    for (index_t tr = 0; tr < ntraces; ++tr) {
      const float* in = time_page.data() + tr * nt;
      for (index_t t = 0; t < nt; ++t) {
        buf[static_cast<std::size_t>(t)] =
            cf64{static_cast<double>(in[t]), 0.0};
      }
      plan.forward(std::span<cf64>(buf));
      cf32* out = freq_page.data() + tr * nf;
      for (index_t k = 0; k < nf; ++k) {
        out[k] = static_cast<cf32>(buf[static_cast<std::size_t>(k)]);
      }
    }
    TLRWSE_TSAN_RELEASE(freq_page.data());
  }
  TLRWSE_TSAN_ACQUIRE(freq_page.data());
}

void irfft_batch(std::span<const cf32> freq_page, index_t nt, index_t ntraces,
                 std::span<float> time_page) {
  const FftPlan plan(nt);
  const index_t nf = nt / 2 + 1;
  TLRWSE_REQUIRE(static_cast<index_t>(freq_page.size()) == nf * ntraces,
                 "irfft_batch: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(time_page.size()) == nt * ntraces,
                 "irfft_batch: output size");
  TLRWSE_TSAN_RELEASE(time_page.data());
#pragma omp parallel
  {
    TLRWSE_TSAN_ACQUIRE(time_page.data());
    std::vector<cf64> buf(static_cast<std::size_t>(nt));
#pragma omp for schedule(static)
    for (index_t tr = 0; tr < ntraces; ++tr) {
      const cf32* in = freq_page.data() + tr * nf;
      for (index_t k = 0; k < nf; ++k) {
        buf[static_cast<std::size_t>(k)] = static_cast<cf64>(in[k]);
      }
      for (index_t k = nf; k < nt; ++k) {
        buf[static_cast<std::size_t>(k)] =
            std::conj(static_cast<cf64>(in[nt - k]));
      }
      plan.inverse(std::span<cf64>(buf));
      float* out = time_page.data() + tr * nt;
      for (index_t t = 0; t < nt; ++t) {
        out[t] = static_cast<float>(buf[static_cast<std::size_t>(t)].real());
      }
    }
    TLRWSE_TSAN_RELEASE(time_page.data());
  }
  TLRWSE_TSAN_ACQUIRE(time_page.data());
}

}  // namespace tlrwse::fft
