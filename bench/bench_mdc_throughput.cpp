// MDC apply/apply_adjoint throughput across an OpenMP thread sweep.
//
// The per-frequency kernel loop in MdcOperator is embarrassingly parallel
// (each frequency owns its own rFFT bin) and, with the pooled workspaces,
// allocation-free in steady state — so applies should scale with threads
// until the batched FFTs dominate. This bench builds a 64-frequency TLR
// operator, sweeps OMP thread counts and reports applies/s plus the speedup
// over the single-thread baseline, as JSON (one object per line) for the
// scaling plot. Usage:
//
//   OMP_NUM_THREADS is ignored; the sweep sets thread counts explicitly.
//   ./bench_mdc_throughput [max_threads]
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"

namespace {

using namespace tlrwse;

constexpr index_t kNt = 256;   // power of two: in-place FFT path
constexpr index_t kNumFreq = 64;
constexpr index_t kNs = 96;
constexpr index_t kNr = 96;

/// Oscillatory kernel with distance decay — numerically low-rank tiles,
/// the same structure as the paper's frequency matrices.
la::MatrixCF oscillatory_kernel(index_t m, index_t n, double omega) {
  la::MatrixCF k(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const double u = static_cast<double>(i) / static_cast<double>(m);
      const double v = static_cast<double>(j) / static_cast<double>(n);
      const double d = std::abs(u - v) + 0.05;
      const double amp = 1.0 / (1.0 + 8.0 * d);
      k(i, j) = cf32{static_cast<float>(amp * std::cos(omega * d)),
                     static_cast<float>(amp * std::sin(omega * d))};
    }
  }
  return k;
}

std::vector<float> random_traces(Rng& rng, index_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  fill_normal(rng, v.data(), v.size());
  return v;
}

std::unique_ptr<mdc::MdcOperator> build_operator() {
  tlr::CompressionConfig cc;
  cc.nb = 16;
  cc.acc = 1e-4;
  std::vector<index_t> bins;
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  bins.reserve(kNumFreq);
  for (index_t q = 0; q < kNumFreq; ++q) {
    bins.push_back(1 + q);  // distinct bins in (0, nt/2)
    const auto k =
        oscillatory_kernel(kNs, kNr, 3.0 + 0.4 * static_cast<double>(q));
    kernels.push_back(std::make_unique<mdc::TlrMvm>(
        tlr::StackedTlr<cf32>(tlr::compress_tlr(k, cc))));
  }
  return std::make_unique<mdc::MdcOperator>(kNt, std::move(bins),
                                            std::move(kernels));
}

/// Times `reps` forward+adjoint pairs at a given thread count; returns
/// seconds per pair (best of three trials to shed scheduler noise).
double time_pair(const mdc::MdcOperator& op, std::span<const float> x,
                 std::span<float> y, std::span<const float> yb,
                 std::span<float> xt, int threads, int reps) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  // Warm-up fills the per-thread workspace pools at this team size.
  op.apply(x, y);
  op.apply_adjoint(yb, xt);
  double best = 1e300;
  for (int trial = 0; trial < 3; ++trial) {
    WallTimer timer;
    for (int r = 0; r < reps; ++r) {
      op.apply(x, y);
      op.apply_adjoint(yb, xt);
    }
    best = std::min(best, timer.seconds() / reps);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  int max_threads = 8;
#ifdef _OPENMP
  max_threads = omp_get_max_threads();
#endif
  if (argc > 1) max_threads = std::atoi(argv[1]);
  if (max_threads < 1) max_threads = 1;

  const auto op = build_operator();
  Rng rng(7);
  const auto x = random_traces(rng, op->cols());
  const auto yb = random_traces(rng, op->rows());
  std::vector<float> y(static_cast<std::size_t>(op->rows()));
  std::vector<float> xt(static_cast<std::size_t>(op->cols()));

  std::vector<int> sweep{1};
  for (int t = 2; t <= max_threads; t *= 2) sweep.push_back(t);
  if (sweep.back() != max_threads) sweep.push_back(max_threads);

  const int reps = 10;
  const double t1 = time_pair(*op, x, y, yb, xt, 1, reps);

  std::cout << "{\"bench\":\"mdc_throughput\",\"nt\":" << kNt
            << ",\"num_freq\":" << kNumFreq << ",\"ns\":" << kNs
            << ",\"nr\":" << kNr << ",\"kernel\":\"tlr_fused\","
            << bench::json_meta_fields() << "}\n";
  for (int t : sweep) {
    const double sec = (t == 1) ? t1 : time_pair(*op, x, y, yb, xt, t, reps);
    std::cout << "{\"threads\":" << t << ",\"sec_per_apply_pair\":" << sec
              << ",\"applies_per_sec\":" << (sec > 0.0 ? 2.0 / sec : 0.0)
              << ",\"speedup_vs_1\":" << (sec > 0.0 ? t1 / sec : 0.0)
              << "}\n";
  }
  return 0;
}
