// Microbenchmarks of the FFT substrate (radix-2, Bluestein, batched rFFT)
// and of the MDC operator's band transform, at the same shapes so the two
// can be compared: the survey (nt 256, 27 retained bins, 768 receiver and
// 1536 source traces) and the paper's acquisition (nt 1125, 230 bins).
#include <benchmark/benchmark.h>

#include "tlrwse/common/rng.hpp"
#include "tlrwse/fft/fft.hpp"
#include "tlrwse/mdc/band_transform.hpp"

namespace {

using namespace tlrwse;

void BM_FftPow2(benchmark::State& bst) {
  const auto n = static_cast<index_t>(bst.range(0));
  fft::FftPlan plan(n);
  Rng rng(1);
  std::vector<cf64> x(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  for (auto _ : bst) {
    plan.forward(std::span<cf64>(x));
    benchmark::DoNotOptimize(x.data());
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * n);
}
BENCHMARK(BM_FftPow2)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FftBluestein(benchmark::State& bst) {
  const auto n = static_cast<index_t>(bst.range(0));
  fft::FftPlan plan(n);
  Rng rng(2);
  std::vector<cf64> x(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  for (auto _ : bst) {
    plan.forward(std::span<cf64>(x));
    benchmark::DoNotOptimize(x.data());
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * n);
}
// 1125 = the paper's 4.5 s at 4 ms sampling; 230 and 997 stress odd sizes.
BENCHMARK(BM_FftBluestein)->Arg(230)->Arg(997)->Arg(1125);

std::vector<float> random_page(index_t nt, index_t ntraces) {
  Rng rng(3);
  std::vector<float> page(static_cast<std::size_t>(nt * ntraces));
  for (auto& v : page) v = static_cast<float>(rng.normal());
  return page;
}

/// Args: nt, traces. Full-spectrum double-precision rFFT of every trace.
void BM_RfftBatch(benchmark::State& bst) {
  const auto nt = static_cast<index_t>(bst.range(0));
  const auto ntraces = static_cast<index_t>(bst.range(1));
  const auto page = random_page(nt, ntraces);
  std::vector<cf32> freq(static_cast<std::size_t>((nt / 2 + 1) * ntraces));
  for (auto _ : bst) {
    fft::rfft_batch(std::span<const float>(page), nt, ntraces,
                    std::span<cf32>(freq));
    benchmark::DoNotOptimize(freq.data());
    benchmark::ClobberMemory();
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * ntraces);
}
BENCHMARK(BM_RfftBatch)
    ->Args({256, 768})
    ->Args({256, 1536})
    ->Args({1125, 768})
    ->UseRealTime();

/// Args: nt, traces. Inverse of BM_RfftBatch.
void BM_IrfftBatch(benchmark::State& bst) {
  const auto nt = static_cast<index_t>(bst.range(0));
  const auto ntraces = static_cast<index_t>(bst.range(1));
  std::vector<cf32> freq(static_cast<std::size_t>((nt / 2 + 1) * ntraces));
  fft::rfft_batch(random_page(nt, ntraces), nt, ntraces, freq);
  std::vector<float> page(static_cast<std::size_t>(nt * ntraces));
  for (auto _ : bst) {
    fft::irfft_batch(std::span<const cf32>(freq), nt, ntraces,
                     std::span<float>(page));
    benchmark::DoNotOptimize(page.data());
    benchmark::ClobberMemory();
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * ntraces);
}
BENCHMARK(BM_IrfftBatch)
    ->Args({256, 768})
    ->Args({256, 1536})
    ->Args({1125, 768})
    ->UseRealTime();

/// Retained band of a bench shape: 27 bins from 4 at nt 256 (the survey),
/// 230 bins from 20 at nt 1125 (the paper's band).
mdc::BandTransform make_band(index_t nt) {
  const index_t first = nt == 256 ? 4 : 20;
  const index_t nbins = nt == 256 ? 27 : 230;
  std::vector<index_t> bins(static_cast<std::size_t>(nbins));
  for (index_t q = 0; q < nbins; ++q) {
    bins[static_cast<std::size_t>(q)] = first + q;
  }
  return mdc::BandTransform(nt, bins);
}

/// Args: nt, traces. The MDC forward transform: the retained bins only,
/// float32 GEMM, frequency-major output.
void BM_BandTransform(benchmark::State& bst) {
  const auto nt = static_cast<index_t>(bst.range(0));
  const auto ntraces = static_cast<index_t>(bst.range(1));
  const mdc::BandTransform band = make_band(nt);
  const auto page = random_page(nt, ntraces);
  std::vector<cf32> freq(static_cast<std::size_t>(band.num_bins() * ntraces));
  for (auto _ : bst) {
    band.forward(page, ntraces, freq, 0);
    benchmark::DoNotOptimize(freq.data());
    benchmark::ClobberMemory();
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * ntraces);
}
BENCHMARK(BM_BandTransform)
    ->Args({256, 768})
    ->Args({256, 1536})
    ->Args({1125, 768})
    ->UseRealTime();

/// Args: nt, traces. The MDC inverse transform over the same band.
void BM_BandTransformInverse(benchmark::State& bst) {
  const auto nt = static_cast<index_t>(bst.range(0));
  const auto ntraces = static_cast<index_t>(bst.range(1));
  const mdc::BandTransform band = make_band(nt);
  std::vector<cf32> freq(static_cast<std::size_t>(band.num_bins() * ntraces));
  band.forward(random_page(nt, ntraces), ntraces, freq, 0);
  std::vector<float> page(static_cast<std::size_t>(nt * ntraces));
  for (auto _ : bst) {
    band.inverse(freq, ntraces, page, 0);
    benchmark::DoNotOptimize(page.data());
    benchmark::ClobberMemory();
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * ntraces);
}
BENCHMARK(BM_BandTransformInverse)
    ->Args({256, 768})
    ->Args({256, 1536})
    ->Args({1125, 768})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
