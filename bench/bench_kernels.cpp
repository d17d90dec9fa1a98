// Microbenchmarks of the SIMD microkernel engine against the scalar
// la::gemv paths the TLR-MVM used before the engine existed, the
// single-RHS vs multi-RHS panel kernels, and the precompiled MvmPlan vs
// the portable 3-phase kernel on a compressed seismic-like matrix — the
// speedups the SIMD work is accountable for. Emits JSON lines (header +
// one object per row) with GFLOP/s and the fraction of a measured
// in-cache peak, so the CI perf gate can track the ratios across commits:
//
//   {"bench":"kernels","simd_level":"avx512","peak_gflops":...,...}
//   {"row":"sgemv_split","m":512,"n":512,"nrhs":1,"gflops":...,
//    "pct_of_peak":...,"speedup":...,"speedup_8rhs":...}
//
// `speedup` is GFLOP/s over the scalar baseline of the same row family
// and shape (1.0 on the baseline rows themselves); `speedup_8rhs` is the
// per-RHS gain of the 8-RHS panel kernel over the single-RHS SIMD kernel
// (0.0 where it does not apply). With --check the bench enforces the
// acceptance bars (>= 2x split-complex speedup and >= 1.5x additional
// from 8-RHS batching, each on at least one shape) whenever the active
// dispatch tier is not scalar.
//
//   ./bench_kernels [--check]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/la/blas.hpp"
#include "tlrwse/la/half.hpp"
#include "tlrwse/la/simd.hpp"
#include "tlrwse/tlr/mixed.hpp"
#include "tlrwse/tlr/mvm_plan.hpp"
#include "tlrwse/tlr/tlr_mvm.hpp"

namespace {

using namespace tlrwse;
namespace simd = la::simd;

/// Best-of-three GFLOP/s of `fn`, with reps calibrated to ~20 ms trials.
template <typename F>
double time_gflops(F&& fn, double flops_per_call) {
  fn();  // warm-up (page faults, caches, dispatch, workspace growth)
  WallTimer probe;
  fn();
  const double once = std::max(probe.seconds(), 1e-9);
  const int reps = std::max(1, static_cast<int>(0.02 / once));
  double best = 1e300;
  for (int trial = 0; trial < 3; ++trial) {
    WallTimer timer;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, timer.seconds() / reps);
  }
  return flops_per_call / best * 1e-9;
}

struct Row {
  const char* row;
  index_t m, n, nrhs;
  double gflops;
  double speedup;       // vs the scalar baseline of the same row family
  double speedup_8rhs;  // per-RHS gain of the 8-RHS kernel (0 = n/a)
};

void emit(const Row& r, double peak) {
  std::printf(
      "{\"row\":\"%s\",\"m\":%lld,\"n\":%lld,\"nrhs\":%lld,"
      "\"gflops\":%.4f,\"pct_of_peak\":%.2f,\"speedup\":%.4f,"
      "\"speedup_8rhs\":%.4f}\n",
      r.row, static_cast<long long>(r.m), static_cast<long long>(r.n),
      static_cast<long long>(r.nrhs), r.gflops,
      peak > 0.0 ? 100.0 * r.gflops / peak : 0.0, r.speedup, r.speedup_8rhs);
}

/// Measured peak: the 8-RHS split kernel on an L1-resident panel — the
/// most register/cache-friendly configuration the engine has. pct_of_peak
/// is relative to this, not to a theoretical FMA rate.
double measure_peak(const simd::KernelTable& kt) {
  constexpr index_t m = 64, n = 64, nrhs = 8;
  Rng rng(3);
  std::vector<float> Ar(static_cast<std::size_t>(m * n)),
      Ai(static_cast<std::size_t>(m * n)),
      Xr(static_cast<std::size_t>(n * nrhs)),
      Xi(static_cast<std::size_t>(n * nrhs)),
      Yr(static_cast<std::size_t>(m * nrhs)),
      Yi(static_cast<std::size_t>(m * nrhs));
  for (auto* v : {&Ar, &Ai, &Xr, &Xi}) fill_normal(rng, v->data(), v->size());
  return time_gflops(
      [&] {
        kt.sgemv_split_multi(m, n, Ar.data(), Ai.data(), m, Xr.data(),
                             Xi.data(), n, Yr.data(), Yi.data(), m, nrhs,
                             false);
      },
      8.0 * m * n * nrhs);
}

/// All kernel rows for one (m, n) shape. Returns the split speedup and
/// the 8-RHS gain so main() can enforce the acceptance bars.
std::pair<double, double> bench_shape(index_t m, index_t n,
                                      const simd::KernelTable& kt,
                                      std::vector<Row>& rows) {
  constexpr index_t kRhs = 8;
  Rng rng(17);
  la::MatrixCF A(m, n);
  fill_normal(rng, A.data(), static_cast<std::size_t>(A.size()));
  std::vector<cf32> x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(m)), w(static_cast<std::size_t>(m)),
      a(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  fill_normal(rng, w.data(), w.size());

  // Planar copies of the same operator for the split kernels.
  std::vector<float> Ar(static_cast<std::size_t>(m * n)),
      Ai(static_cast<std::size_t>(m * n));
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      Ar[static_cast<std::size_t>(j * m + i)] = A(i, j).real();
      Ai[static_cast<std::size_t>(j * m + i)] = A(i, j).imag();
    }
  }
  std::vector<float> xr(static_cast<std::size_t>(n * kRhs)),
      xi(static_cast<std::size_t>(n * kRhs)),
      yr(static_cast<std::size_t>(m * kRhs)),
      yi(static_cast<std::size_t>(m * kRhs));
  fill_normal(rng, xr.data(), xr.size());
  fill_normal(rng, xi.data(), xi.size());

  const double cflops = 8.0 * m * n;  // complex MVM: 4 mul + 4 add per elem

  // Scalar baseline: the pre-SIMD hot path, la::gemv on the interleaved
  // complex matrix (what tlr_mvm_3phase runs per stack).
  const double g_base = time_gflops(
      [&] { la::gemv(A, std::span<const cf32>(x), std::span<cf32>(y)); },
      cflops);
  rows.push_back({"gemv_complex_scalar", m, n, 1, g_base, 1.0, 0.0});

  const double g_split = time_gflops(
      [&] {
        kt.sgemv_split(m, n, Ar.data(), Ai.data(), m, xr.data(), xi.data(),
                       yr.data(), yi.data(), false);
      },
      cflops);
  rows.push_back({"sgemv_split", m, n, 1, g_split, g_split / g_base, 0.0});

  const double g_multi = time_gflops(
      [&] {
        kt.sgemv_split_multi(m, n, Ar.data(), Ai.data(), m, xr.data(),
                             xi.data(), n, yr.data(), yi.data(), m, kRhs,
                             false);
      },
      cflops * kRhs);
  rows.push_back({"sgemv_split_multi", m, n, kRhs, g_multi, g_multi / g_base,
                  g_multi / g_split});

  // Adjoint pair: scalar la::gemv_adjoint vs the dot-form split kernel.
  const double g_adj_base = time_gflops(
      [&] {
        la::gemv_adjoint(A, std::span<const cf32>(w), std::span<cf32>(a));
      },
      cflops);
  rows.push_back(
      {"gemv_adjoint_complex_scalar", m, n, 1, g_adj_base, 1.0, 0.0});
  const double g_adj = time_gflops(
      [&] {
        kt.sgemv_split_adjoint(m, n, Ar.data(), Ai.data(), m, yr.data(),
                               yi.data(), xr.data(), xi.data(), false);
      },
      cflops);
  rows.push_back(
      {"sgemv_split_adjoint", m, n, 1, g_adj, g_adj / g_adj_base, 0.0});

  // Packed 16-bit factor kernels (fp32 accumulation): same operator with
  // its planes pre-rounded and packed through la/half.hpp, the MvmPlan
  // arena layout. Speedup is vs the same scalar complex baseline, so the
  // fp16-vs-fp32 gain is this row's speedup over sgemv_split_multi's.
  for (const la::HalfFormat fmt :
       {la::HalfFormat::kFp16, la::HalfFormat::kBf16}) {
    std::vector<std::uint16_t> Hr(Ar.size()), Hi(Ai.size());
    for (std::size_t k = 0; k < Ar.size(); ++k) {
      Hr[k] = la::f32_to_half_bits(Ar[k], fmt);
      Hi[k] = la::f32_to_half_bits(Ai[k], fmt);
    }
    const char* one = fmt == la::HalfFormat::kFp16 ? "hgemv_split_fp16"
                                                   : "hgemv_split_bf16";
    const char* multi = fmt == la::HalfFormat::kFp16
                            ? "hgemv_split_multi_fp16"
                            : "hgemv_split_multi_bf16";
    const double g_h = time_gflops(
        [&] {
          kt.hgemv_split_multi(fmt, m, n, Hr.data(), Hi.data(), m, xr.data(),
                               xi.data(), n, yr.data(), yi.data(), m, 1,
                               false);
        },
        cflops);
    rows.push_back({one, m, n, 1, g_h, g_h / g_base, 0.0});
    const double g_h_multi = time_gflops(
        [&] {
          kt.hgemv_split_multi(fmt, m, n, Hr.data(), Hi.data(), m, xr.data(),
                               xi.data(), n, yr.data(), yi.data(), m, kRhs,
                               false);
        },
        cflops * kRhs);
    rows.push_back(
        {multi, m, n, kRhs, g_h_multi, g_h_multi / g_base, g_h_multi / g_h});
  }

  // Real kernels (the U/V panels after splitting are real sgemvs).
  la::Matrix<float> R(m, n);
  std::memcpy(R.data(), Ar.data(), Ar.size() * sizeof(float));
  std::vector<float> fx(static_cast<std::size_t>(n * kRhs)),
      fy(static_cast<std::size_t>(m * kRhs));
  fill_normal(rng, fx.data(), fx.size());
  const double rflops = 2.0 * m * n;
  const double g_real_base = time_gflops(
      [&] {
        la::gemv(R,
                 std::span<const float>(fx.data(), static_cast<std::size_t>(n)),
                 std::span<float>(fy.data(), static_cast<std::size_t>(m)));
      },
      rflops);
  rows.push_back({"gemv_real_scalar", m, n, 1, g_real_base, 1.0, 0.0});
  const double g_real = time_gflops(
      [&] { kt.sgemv(m, n, R.data(), m, fx.data(), fy.data(), false); },
      rflops);
  rows.push_back({"sgemv", m, n, 1, g_real, g_real / g_real_base, 0.0});
  const double g_real_multi = time_gflops(
      [&] {
        kt.sgemv_multi(m, n, R.data(), m, fx.data(), n, fy.data(), m, kRhs,
                       false);
      },
      rflops * kRhs);
  rows.push_back({"sgemv_multi", m, n, kRhs, g_real_multi,
                  g_real_multi / g_real_base, g_real_multi / g_real});

  return {g_split / g_base, g_multi / g_split};
}

/// End-to-end row: precompiled MvmPlan vs portable tlr_mvm_3phase on a
/// compressed seismic-like matrix (the TLR-MVM hot path itself).
la::MatrixCF make_kernel(index_t m, index_t n) {
  la::MatrixCF k(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const double u = static_cast<double>(i) / static_cast<double>(m);
      const double v = static_cast<double>(j) / static_cast<double>(n);
      const double d = std::abs(u - v) + 0.05;
      const double amp = 1.0 / (1.0 + 8.0 * d);
      k(i, j) = cf32{static_cast<float>(amp * std::cos(14.0 * d)),
                     static_cast<float>(amp * std::sin(14.0 * d))};
    }
  }
  return k;
}

void bench_plan(const simd::KernelTable& kt, std::vector<Row>& rows) {
  constexpr index_t kRows = 560, kCols = 420, kNb = 70, kRhs = 8;
  const la::MatrixCF dense = make_kernel(kRows, kCols);
  tlr::CompressionConfig cfg;
  cfg.nb = kNb;
  cfg.acc = 1e-4;
  const tlr::TlrMatrix<cf32> mat = tlr::compress_tlr(dense, cfg);
  const tlr::StackedTlr<cf32> stacks(mat);
  const tlr::MvmPlan plan(stacks, &kt);

  Rng rng(5);
  std::vector<cf32> x(static_cast<std::size_t>(kCols)),
      y(static_cast<std::size_t>(kRows));
  fill_normal(rng, x.data(), x.size());
  std::vector<cf32> X(static_cast<std::size_t>(kCols * kRhs)),
      Y(static_cast<std::size_t>(kRows * kRhs));
  fill_normal(rng, X.data(), X.size());

  // Effective flops of the compressed MVM: 8 per complex fma over the
  // rank-sum volume, both phases.
  double flops = 0.0;
  const auto& g = stacks.grid();
  for (index_t j = 0; j < g.nt(); ++j) {
    flops += 8.0 * static_cast<double>(stacks.col_rank_sum(j)) *
             static_cast<double>(g.tile_cols(j));
  }
  for (index_t i = 0; i < g.mt(); ++i) {
    flops += 8.0 * static_cast<double>(stacks.row_rank_sum(i)) *
             static_cast<double>(g.tile_rows(i));
  }

  tlr::MvmWorkspace<cf32> ws3;
  const double g_3phase = time_gflops(
      [&] {
        tlr::tlr_mvm_3phase(stacks, std::span<const cf32>(x), std::span<cf32>(y),
                            ws3);
      },
      flops);
  rows.push_back(
      {"tlr_mvm_3phase_scalar", kRows, kCols, 1, g_3phase, 1.0, 0.0});

  tlr::PlanWorkspace pws;
  const double g_plan = time_gflops(
      [&] { plan.apply(std::span<const cf32>(x), std::span<cf32>(y), pws); },
      flops);
  rows.push_back({"mvm_plan_apply", kRows, kCols, 1, g_plan,
                  g_plan / g_3phase, 0.0});

  const double g_plan_multi = time_gflops(
      [&] {
        plan.apply_multi(std::span<const cf32>(X), std::span<cf32>(Y), kRhs,
                         pws);
      },
      flops * kRhs);
  rows.push_back({"mvm_plan_apply_multi", kRows, kCols, kRhs, g_plan_multi,
                  g_plan_multi / g_3phase, g_plan_multi / g_plan});
}

/// Memory-bound plan rows: a 6144x6144 rank-64 TLR operator whose fp32
/// factor arena (~150 MB) spills every cache level, streamed once per
/// apply. Packing the arena to 16 bits halves the bytes the apply must
/// move, which is where the fp16/bf16 storage earns its throughput (the
/// flop count is unchanged — the win is pure bandwidth). Returns the
/// best packed-vs-fp32 apply speedup for the --check bar.
double bench_plan_big(const simd::KernelTable& kt, std::vector<Row>& rows) {
  constexpr index_t kDim = 6144, kNb = 256, kRank = 64;
  const tlr::TileGrid grid(kDim, kDim, kNb);
  Rng rng(11);
  std::vector<la::LowRankFactors<cf32>> tiles(
      static_cast<std::size_t>(grid.num_tiles()));
  for (index_t j = 0; j < grid.nt(); ++j) {
    for (index_t i = 0; i < grid.mt(); ++i) {
      la::LowRankFactors<cf32> t;
      t.U = la::MatrixCF(grid.tile_rows(i), kRank);
      t.Vh = la::MatrixCF(kRank, grid.tile_cols(j));
      fill_normal(rng, t.U.data(), static_cast<std::size_t>(t.U.size()));
      fill_normal(rng, t.Vh.data(), static_cast<std::size_t>(t.Vh.size()));
      tiles[static_cast<std::size_t>(grid.tile_index(i, j))] = std::move(t);
    }
  }
  const tlr::TlrMatrix<cf32> mat(grid, std::move(tiles));

  Rng xrng(7);
  std::vector<cf32> x(static_cast<std::size_t>(kDim)),
      y(static_cast<std::size_t>(kDim));
  fill_normal(xrng, x.data(), x.size());

  double flops = 0.0;
  {
    const tlr::StackedTlr<cf32> probe(mat);
    const auto& g = probe.grid();
    for (index_t j = 0; j < g.nt(); ++j) {
      flops += 8.0 * static_cast<double>(probe.col_rank_sum(j)) *
               static_cast<double>(g.tile_cols(j));
    }
    for (index_t i = 0; i < g.mt(); ++i) {
      flops += 8.0 * static_cast<double>(probe.row_rank_sum(i)) *
               static_cast<double>(g.tile_rows(i));
    }
  }

  tlr::PlanWorkspace pws;
  double g_fp32 = 0.0, best = 0.0;
  const struct {
    const char* row;
    tlr::MixedPrecisionPolicy policy;  // all-or-nothing per variant
  } variants[] = {
      {"mvm_plan_big", {0.0, 0.0}},
      {"mvm_plan_big_fp16", {2.0, 0.0}},
      {"mvm_plan_big_bf16", {2.0, 2.0}},
  };
  for (const auto& v : variants) {
    const tlr::MixedTlrResult q = tlr::quantize_tlr(mat, v.policy);
    const tlr::StackedTlr<cf32> stacks(q.matrix);
    const tlr::MvmPlan plan(stacks, &kt);
    const double g = time_gflops(
        [&] { plan.apply(std::span<const cf32>(x), std::span<cf32>(y), pws); },
        flops);
    if (g_fp32 == 0.0) g_fp32 = g;  // first variant is the fp32 baseline
    const double speedup = g / g_fp32;
    rows.push_back({v.row, kDim, kDim, 1, g, speedup, 0.0});
    if (q.tiles_fp32 == 0) best = std::max(best, speedup);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  const simd::KernelTable& kt = simd::dispatch();
  const char* level = simd::level_name(simd::active_level());
  const double peak = measure_peak(kt);

  std::printf(
      "{\"bench\":\"kernels\",\"simd_level\":\"%s\",\"peak_gflops\":%.4f,%s}\n",
      level, peak, bench::json_meta_fields().c_str());

  // A stack-like tall panel (rank-sum x nb), an L2-resident square, and a
  // larger square where the 8-RHS panels earn their keep on bandwidth.
  const std::pair<index_t, index_t> shapes[] = {
      {512, 64}, {512, 512}, {2048, 512}};
  double best_split = 0.0, best_8rhs = 0.0;
  std::vector<Row> rows;
  for (const auto& [m, n] : shapes) {
    const auto [s_split, s_8rhs] = bench_shape(m, n, kt, rows);
    best_split = std::max(best_split, s_split);
    best_8rhs = std::max(best_8rhs, s_8rhs);
  }
  bench_plan(kt, rows);
  const double best_half_plan = bench_plan_big(kt, rows);
  for (const Row& r : rows) emit(r, peak);

  if (check) {
    if (std::strcmp(level, "scalar") == 0) {
      std::cerr << "check: active tier is scalar, speedup bars skipped\n";
      return 0;
    }
    const bool ok_split = best_split >= 2.0;
    const bool ok_8rhs = best_8rhs >= 1.5;
    // The packed-factor bar measures the bandwidth win of 16-bit storage
    // at a memory-bound shape; it needs hardware widening (F16C/AVX-512/
    // NEON) — the bit-exact scalar conversion trades that win for parity.
    const bool gate_half = simd::half_hw_convert();
    const bool ok_half = !gate_half || best_half_plan >= 1.5;
    std::cerr << "check: split speedup " << best_split
              << (ok_split ? " >= 2 ok" : " < 2 FAIL") << ", 8-RHS gain "
              << best_8rhs << (ok_8rhs ? " >= 1.5 ok" : " < 1.5 FAIL")
              << ", packed plan speedup " << best_half_plan
              << (gate_half ? (ok_half ? " >= 1.5 ok" : " < 1.5 FAIL")
                            : " (no hw widening, bar skipped)")
              << "\n";
    return ok_split && ok_8rhs && ok_half ? 0 : 1;
  }
  return 0;
}
