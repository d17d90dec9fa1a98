#include "tlrwse/mdc/band_transform.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tlrwse/common/error.hpp"
#include "tlrwse/common/tsan.hpp"
#include "tlrwse/la/simd.hpp"

namespace tlrwse::mdc {

namespace {

/// Traces per GEMM call: a multiple of the kernel's 8-RHS register block,
/// small enough that a 4-thread team balances the survey's 768 traces.
constexpr index_t kBlock = 32;

index_t round_up16(index_t n) { return (n + 15) / 16 * 16; }

}  // namespace

int team_size(int cap) {
#ifdef _OPENMP
  return cap > 0 ? cap : omp_get_max_threads();
#else
  (void)cap;
  return 1;
#endif
}

BandTransform::BandTransform(index_t nt, const std::vector<index_t>& bins)
    : nt_(nt),
      nq_(static_cast<index_t>(bins.size())),
      m_(round_up16(2 * nq_)),
      ldi_(round_up16(nt)) {
  TLRWSE_REQUIRE(nt_ >= 4, "nt too small");
  TLRWSE_REQUIRE(nq_ >= 1, "need at least one frequency bin");
  for (const index_t bin : bins) {
    TLRWSE_REQUIRE(bin > 0 && 2 * bin < nt_,
                   "frequency bin must exclude DC and Nyquist, got ", bin);
  }
  std::vector<index_t> sorted(bins);
  std::sort(sorted.begin(), sorted.end());
  TLRWSE_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 "frequency bins must be distinct");

  const double w = 2.0 * std::numbers::pi / static_cast<double>(nt_);
  const double scale = 2.0 / static_cast<double>(nt_);
  const index_t n2 = 2 * nq_;
  fwd_.assign(static_cast<std::size_t>(m_ * nt_), 0.0f);
  inv_.assign(static_cast<std::size_t>(ldi_ * n2), 0.0f);
  for (index_t t = 0; t < nt_; ++t) {
    for (index_t q = 0; q < nq_; ++q) {
      const index_t phase = bins[static_cast<std::size_t>(q)] * t % nt_;
      const double ang = w * static_cast<double>(phase);
      const float c = static_cast<float>(std::cos(ang));
      const float s = static_cast<float>(-std::sin(ang));
      fwd_[static_cast<std::size_t>(t * m_ + 2 * q)] = c;
      fwd_[static_cast<std::size_t>(t * m_ + 2 * q + 1)] = s;
      inv_[static_cast<std::size_t>(2 * q * ldi_ + t)] =
          static_cast<float>(scale * c);
      inv_[static_cast<std::size_t>((2 * q + 1) * ldi_ + t)] =
          static_cast<float>(scale * s);
    }
  }
}

void BandTransform::forward(std::span<const float> time, index_t ntraces,
                            std::span<cf32> freq, int threads) const {
  TLRWSE_REQUIRE(static_cast<index_t>(time.size()) == nt_ * ntraces,
                 "BandTransform::forward: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(freq.size()) == nq_ * ntraces,
                 "BandTransform::forward: output size");
  const la::simd::KernelTable& k = la::simd::dispatch();
  const index_t nblocks = (ntraces + kBlock - 1) / kBlock;
  [[maybe_unused]] const int team = static_cast<int>(
      std::clamp<index_t>(nblocks, 1, team_size(threads)));
  TLRWSE_TSAN_RELEASE(freq.data());
#pragma omp parallel num_threads(team)
  {
    TLRWSE_TSAN_ACQUIRE(freq.data());
#pragma omp for schedule(static)
    for (index_t blk = 0; blk < nblocks; ++blk) {
      const index_t b0 = blk * kBlock;
      const index_t nb = std::min(kBlock, ntraces - b0);
      Tile& tile = tiles_.local();
      tile.resize(static_cast<std::size_t>(m_ * kBlock));
      // tile (m x nb) = C (m x nt) * traces (nt x nb): bin-interleaved
      // re/im rows per trace; the padded rows come out zero and are skipped.
      k.sgemv_multi(m_, nt_, fwd_.data(), m_, time.data() + b0 * nt_, nt_,
                    tile.data(), m_, nb, /*accumulate=*/false);
      for (index_t q = 0; q < nq_; ++q) {
        cf32* dst = freq.data() + q * ntraces + b0;
        const float* src = tile.data() + 2 * q;
        for (index_t j = 0; j < nb; ++j) {
          dst[j] = cf32{src[j * m_], src[j * m_ + 1]};
        }
      }
    }
    TLRWSE_TSAN_RELEASE(freq.data());
  }
  TLRWSE_TSAN_ACQUIRE(freq.data());
}

void BandTransform::inverse(std::span<const cf32> freq, index_t ntraces,
                            std::span<float> time, int threads) const {
  TLRWSE_REQUIRE(static_cast<index_t>(freq.size()) == nq_ * ntraces,
                 "BandTransform::inverse: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(time.size()) == nt_ * ntraces,
                 "BandTransform::inverse: output size");
  const la::simd::KernelTable& k = la::simd::dispatch();
  const index_t n2 = 2 * nq_;
  const index_t nblocks = (ntraces + kBlock - 1) / kBlock;
  [[maybe_unused]] const int team = static_cast<int>(
      std::clamp<index_t>(nblocks, 1, team_size(threads)));
  TLRWSE_TSAN_RELEASE(time.data());
#pragma omp parallel num_threads(team)
  {
    TLRWSE_TSAN_ACQUIRE(time.data());
#pragma omp for schedule(static)
    for (index_t blk = 0; blk < nblocks; ++blk) {
      const index_t b0 = blk * kBlock;
      const index_t nb = std::min(kBlock, ntraces - b0);
      Tile& tile = tiles_.local();
      tile.resize(static_cast<std::size_t>(m_ * kBlock));
      // Gather each trace's bins as an interleaved (re, im) column.
      for (index_t q = 0; q < nq_; ++q) {
        const cf32* src = freq.data() + q * ntraces + b0;
        float* dst = tile.data() + 2 * q;
        for (index_t j = 0; j < nb; ++j) {
          dst[j * n2] = src[j].real();
          dst[j * n2 + 1] = src[j].imag();
        }
      }
      // traces (nt x nb) = (2/nt) C^T (nt x 2nq) * tile (2nq x nb).
      k.sgemv_multi(nt_, n2, inv_.data(), ldi_, tile.data(), n2,
                    time.data() + b0 * nt_, nt_, nb, /*accumulate=*/false);
    }
    TLRWSE_TSAN_RELEASE(time.data());
  }
  TLRWSE_TSAN_ACQUIRE(time.data());
}

}  // namespace tlrwse::mdc
