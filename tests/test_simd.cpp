// Tests for the SIMD microkernel engine and the precompiled MVM plans:
// elementwise <= 4-ULP parity between every dispatch tier reachable on the
// host and the scalar reference across ragged shapes (including empty,
// width-1, just-past-register-boundary, and padded-lda operands with NaN
// sentinels in the padding), bitwise equality of multi-RHS kernels with
// their single-RHS forms, plan-vs-kernel agreement on compressed matrices
// (including zero-rank tiles), and the batched MdcOperator paths. The
// whole binary is registered twice in ctest: once plain and once with
// TLRWSE_SIMD_LEVEL=scalar, which forces the dispatcher down to the
// reference tier.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "test_helpers.hpp"
#include "tlrwse/la/simd.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/tlr/mixed.hpp"
#include "tlrwse/tlr/mvm_plan.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"
#include "tlrwse/tlr/tlr_mvm.hpp"

namespace tlrwse {
namespace {

namespace simd = la::simd;

// ------------------------------------------------------------- helpers --

/// Distance in representable floats (0 = bitwise equal). NaN vs NaN is 0;
/// NaN vs number is huge.
std::int64_t ulp_diff(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  const auto to_ordered = [](float v) -> std::int64_t {
    const auto bits = static_cast<std::int32_t>(std::bit_cast<std::uint32_t>(v));
    return bits >= 0 ? bits : std::numeric_limits<std::int32_t>::min() - bits;
  };
  const std::int64_t d = to_ordered(a) - to_ordered(b);
  return d < 0 ? -d : d;
}

void expect_ulp_close(const std::vector<float>& got,
                      const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_LE(ulp_diff(got[i], want[i]), 4)
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

std::vector<float> random_floats(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  return v;
}

constexpr float kPadSentinel = std::numeric_limits<float>::quiet_NaN();

/// Column-major m x n panel with lda > m and NaN in the padding rows: any
/// kernel that reads past row m poisons its output and fails the ULP bar.
struct PaddedPanel {
  index_t lda;
  std::vector<float> data;
  PaddedPanel(Rng& rng, index_t m, index_t n, index_t pad)
      : lda(m + pad),
        data(static_cast<std::size_t>(lda) * static_cast<std::size_t>(n),
             kPadSentinel) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        data[static_cast<std::size_t>(j * lda + i)] =
            static_cast<float>(rng.uniform() * 2.0 - 1.0);
      }
    }
  }
};

const std::vector<index_t>& ragged_sizes() {
  static const std::vector<index_t> s = {0, 1, 3, 7, 8, 17, 63, 64, 65, 1000};
  return s;
}

// ------------------------------------------------------------ dispatch --

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  const auto levels = simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  EXPECT_STREQ(simd::table(simd::Level::kScalar).name, "scalar");
}

TEST(SimdDispatch, ResolveClampsDownward) {
  // Whatever is asked for resolves to an available level at or below it.
  for (const simd::Level want :
       {simd::Level::kScalar, simd::Level::kNeon, simd::Level::kAvx2,
        simd::Level::kAvx512}) {
    const simd::Level got = simd::resolve_level(want);
    EXPECT_LE(static_cast<int>(got), static_cast<int>(want));
    bool found = false;
    for (const simd::Level l : simd::available_levels()) found |= (l == got);
    EXPECT_TRUE(found) << simd::level_name(got);
  }
  EXPECT_EQ(simd::resolve_level(simd::Level::kScalar), simd::Level::kScalar);
}

TEST(SimdDispatch, ParseLevelRoundTrips) {
  bool ok = false;
  EXPECT_EQ(simd::parse_level("scalar", ok), simd::Level::kScalar);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_level("neon", ok), simd::Level::kNeon);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_level("avx2", ok), simd::Level::kAvx2);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_level("avx512", ok), simd::Level::kAvx512);
  EXPECT_TRUE(ok);
  (void)simd::parse_level("AVX2", ok);
  EXPECT_FALSE(ok);
  (void)simd::parse_level(nullptr, ok);
  EXPECT_FALSE(ok);
}

TEST(SimdDispatch, ActiveLevelHonoursEnvOverride) {
  // active_level() is resolved once per process; this test asserts it is
  // consistent with whatever TLRWSE_SIMD_LEVEL the ctest registration set
  // (the forced-scalar registration runs this whole binary with the env
  // var set to "scalar").
  const char* env = std::getenv("TLRWSE_SIMD_LEVEL");
  if (env != nullptr) {
    bool ok = false;
    const simd::Level want = simd::parse_level(env, ok);
    if (ok) {
      EXPECT_EQ(simd::active_level(), simd::resolve_level(want));
      return;
    }
  }
  // No (valid) override: active is the best available level.
  EXPECT_EQ(simd::active_level(), simd::available_levels().back());
  EXPECT_STREQ(simd::dispatch().name,
               simd::level_name(simd::active_level()));
}

// -------------------------------------------------- tier parity (fuzz) --

class SimdParity : public ::testing::TestWithParam<simd::Level> {
 protected:
  const simd::KernelTable& tier() const { return simd::table(GetParam()); }
  const simd::KernelTable& ref() const {
    return simd::table(simd::Level::kScalar);
  }
};

TEST_P(SimdParity, SgemvMatchesScalarOnRaggedShapes) {
  Rng rng(101);
  for (const index_t m : ragged_sizes()) {
    for (const index_t n : ragged_sizes()) {
      const PaddedPanel A(rng, m, n, /*pad=*/9);
      const auto x = random_floats(rng, static_cast<std::size_t>(n));
      const auto y0 = random_floats(rng, static_cast<std::size_t>(m));
      for (const bool acc : {false, true}) {
        std::vector<float> ya = y0, yb = y0;
        ref().sgemv(m, n, A.data.data(), A.lda, x.data(), ya.data(), acc);
        tier().sgemv(m, n, A.data.data(), A.lda, x.data(), yb.data(), acc);
        expect_ulp_close(yb, ya, "sgemv");
      }
    }
  }
}

TEST_P(SimdParity, SgemvTMatchesScalarOnRaggedShapes) {
  Rng rng(202);
  for (const index_t m : ragged_sizes()) {
    for (const index_t n : ragged_sizes()) {
      const PaddedPanel A(rng, m, n, /*pad=*/5);
      const auto x = random_floats(rng, static_cast<std::size_t>(m));
      const auto y0 = random_floats(rng, static_cast<std::size_t>(n));
      for (const bool acc : {false, true}) {
        std::vector<float> ya = y0, yb = y0;
        ref().sgemv_t(m, n, A.data.data(), A.lda, x.data(), ya.data(), acc);
        tier().sgemv_t(m, n, A.data.data(), A.lda, x.data(), yb.data(), acc);
        expect_ulp_close(yb, ya, "sgemv_t");
      }
    }
  }
}

TEST_P(SimdParity, SplitKernelsMatchScalarOnRaggedShapes) {
  Rng rng(303);
  for (const index_t m : ragged_sizes()) {
    for (const index_t n : ragged_sizes()) {
      const PaddedPanel Ar(rng, m, n, /*pad=*/7);
      const PaddedPanel Ai(rng, m, n, /*pad=*/7);
      ASSERT_EQ(Ar.lda, Ai.lda);
      const auto xr = random_floats(rng, static_cast<std::size_t>(n));
      const auto xi = random_floats(rng, static_cast<std::size_t>(n));
      const auto wr = random_floats(rng, static_cast<std::size_t>(m));
      const auto wi = random_floats(rng, static_cast<std::size_t>(m));
      for (const bool acc : {false, true}) {
        std::vector<float> yra = wr, yia = wi, yrb = wr, yib = wi;
        ref().sgemv_split(m, n, Ar.data.data(), Ai.data.data(), Ar.lda,
                          xr.data(), xi.data(), yra.data(), yia.data(), acc);
        tier().sgemv_split(m, n, Ar.data.data(), Ai.data.data(), Ar.lda,
                           xr.data(), xi.data(), yrb.data(), yib.data(), acc);
        expect_ulp_close(yrb, yra, "sgemv_split re");
        expect_ulp_close(yib, yia, "sgemv_split im");

        std::vector<float> ara(static_cast<std::size_t>(n)),
            aia(static_cast<std::size_t>(n)),
            arb(static_cast<std::size_t>(n)), aib(static_cast<std::size_t>(n));
        for (index_t j = 0; j < n; ++j) {
          ara[static_cast<std::size_t>(j)] = arb[static_cast<std::size_t>(j)] =
              xr[static_cast<std::size_t>(j)];
          aia[static_cast<std::size_t>(j)] = aib[static_cast<std::size_t>(j)] =
              xi[static_cast<std::size_t>(j)];
        }
        ref().sgemv_split_adjoint(m, n, Ar.data.data(), Ai.data.data(),
                                  Ar.lda, wr.data(), wi.data(), ara.data(),
                                  aia.data(), acc);
        tier().sgemv_split_adjoint(m, n, Ar.data.data(), Ai.data.data(),
                                   Ar.lda, wr.data(), wi.data(), arb.data(),
                                   aib.data(), acc);
        expect_ulp_close(arb, ara, "sgemv_split_adjoint re");
        expect_ulp_close(aib, aia, "sgemv_split_adjoint im");
      }
    }
  }
}

TEST_P(SimdParity, MultiRhsIsBitwiseEqualToSingleRhs) {
  // Every RHS column of the register-blocked multi kernels must equal the
  // single-RHS kernel EXACTLY (same per-element fma order), so batching
  // right-hand sides never changes results.
  Rng rng(404);
  const std::vector<index_t> shapes = {0, 1, 7, 17, 64, 65, 301};
  for (const index_t m : shapes) {
    for (const index_t n : shapes) {
      const PaddedPanel Ar(rng, m, n, /*pad=*/11);
      const PaddedPanel Ai(rng, m, n, /*pad=*/11);
      for (const index_t nrhs : {index_t{1}, index_t{2}, index_t{3},
                                 index_t{5}, index_t{8}, index_t{9}}) {
        const index_t ldx = n + 3;
        const index_t ldy = m + 2;
        const auto X = random_floats(rng, static_cast<std::size_t>(ldx * nrhs));
        const auto Y0 = random_floats(rng, static_cast<std::size_t>(ldy * nrhs));
        for (const bool acc : {false, true}) {
          std::vector<float> Ym = Y0;
          tier().sgemv_multi(m, n, Ar.data.data(), Ar.lda, X.data(), ldx,
                             Ym.data(), ldy, nrhs, acc);
          for (index_t r = 0; r < nrhs; ++r) {
            std::vector<float> ys(Y0.begin() + r * ldy,
                                  Y0.begin() + r * ldy + m);
            tier().sgemv(m, n, Ar.data.data(), Ar.lda, X.data() + r * ldx,
                         ys.data(), acc);
            for (index_t i = 0; i < m; ++i) {
              ASSERT_EQ(
                  std::bit_cast<std::uint32_t>(
                      Ym[static_cast<std::size_t>(r * ldy + i)]),
                  std::bit_cast<std::uint32_t>(ys[static_cast<std::size_t>(i)]))
                  << "sgemv_multi rhs " << r << " row " << i;
            }
          }
        }

        // Split multi vs split single, same contract.
        const index_t ldxs = n + 1;
        const index_t ldys = m + 4;
        const auto Xr = random_floats(rng, static_cast<std::size_t>(ldxs * nrhs));
        const auto Xi = random_floats(rng, static_cast<std::size_t>(ldxs * nrhs));
        std::vector<float> Yr(static_cast<std::size_t>(ldys * nrhs), 0.5f);
        std::vector<float> Yi(static_cast<std::size_t>(ldys * nrhs), -0.5f);
        tier().sgemv_split_multi(m, n, Ar.data.data(), Ai.data.data(), Ar.lda,
                                 Xr.data(), Xi.data(), ldxs, Yr.data(),
                                 Yi.data(), ldys, nrhs, /*accumulate=*/false);
        for (index_t r = 0; r < nrhs; ++r) {
          std::vector<float> yr(static_cast<std::size_t>(m));
          std::vector<float> yi(static_cast<std::size_t>(m));
          tier().sgemv_split(m, n, Ar.data.data(), Ai.data.data(), Ar.lda,
                             Xr.data() + r * ldxs, Xi.data() + r * ldxs,
                             yr.data(), yi.data(), /*accumulate=*/false);
          for (index_t i = 0; i < m; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(
                          Yr[static_cast<std::size_t>(r * ldys + i)]),
                      std::bit_cast<std::uint32_t>(
                          yr[static_cast<std::size_t>(i)]));
            ASSERT_EQ(std::bit_cast<std::uint32_t>(
                          Yi[static_cast<std::size_t>(r * ldys + i)]),
                      std::bit_cast<std::uint32_t>(
                          yi[static_cast<std::size_t>(i)]));
          }
        }
      }
    }
  }
}

TEST_P(SimdParity, SplitMergeRoundTrips) {
  Rng rng(505);
  for (const index_t n : ragged_sizes()) {
    std::vector<cf32> x(static_cast<std::size_t>(n));
    for (auto& v : x) {
      v = cf32(static_cast<float>(rng.uniform()),
               static_cast<float>(rng.uniform()));
    }
    std::vector<float> re(static_cast<std::size_t>(n));
    std::vector<float> im(static_cast<std::size_t>(n));
    tier().split_complex(n, x.data(), re.data(), im.data());
    for (index_t i = 0; i < n; ++i) {
      EXPECT_EQ(re[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(i)].real());
      EXPECT_EQ(im[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(i)].imag());
    }
    std::vector<cf32> back(static_cast<std::size_t>(n));
    tier().merge_complex(n, re.data(), im.data(), back.data());
    for (index_t i = 0; i < n; ++i) {
      EXPECT_EQ(back[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(i)]);
    }
  }
}

std::string level_param_name(
    const ::testing::TestParamInfo<simd::Level>& info) {
  return simd::level_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    AllReachableTiers, SimdParity,
    ::testing::ValuesIn(std::vector<simd::Level>(
        simd::available_levels().begin(), simd::available_levels().end())),
    level_param_name);

// ------------------------------------------------------------ MvmPlan  --

struct PlanSetup {
  la::MatrixCF dense;
  tlr::TlrMatrix<cf32> tlr;
  tlr::StackedTlr<cf32> stacks;
  std::vector<cf32> x;   // length n (forward input)
  std::vector<cf32> w;   // length m (adjoint input)

  PlanSetup(index_t m, index_t n, index_t nb, double acc = 1e-5,
            bool zero_block = false)
      : dense(tlrwse::testing::oscillatory_matrix<cf32>(m, n, 9.0)),
        tlr((zero_out(dense, zero_block), make_tlr(dense, nb, acc))),
        stacks(tlr) {
    Rng rng(3 * m + n);
    x = tlrwse::testing::random_vector<cf32>(rng, n);
    w = tlrwse::testing::random_vector<cf32>(rng, m);
  }

  static void zero_out(la::MatrixCF& a, bool zero_block) {
    if (!zero_block) return;
    // Zero the bottom-left quadrant: its tiles compress to rank 0, which
    // must flow through the plan as empty segments.
    for (index_t j = 0; j < a.cols() / 2; ++j) {
      for (index_t i = a.rows() / 2; i < a.rows(); ++i) a(i, j) = cf32{};
    }
  }

  static tlr::TlrMatrix<cf32> make_tlr(const la::MatrixCF& a, index_t nb,
                                       double acc) {
    tlr::CompressionConfig cfg;
    cfg.nb = nb;
    cfg.acc = acc;
    return tlr::compress_tlr(a, cfg);
  }
};

class PlanShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(PlanShapes, PlanMatchesThreePhaseKernel) {
  const auto [m, n, nb, zero_block] = GetParam();
  const PlanSetup s(m, n, nb, 1e-5, zero_block);
  const tlr::MvmPlan plan(s.stacks);
  EXPECT_EQ(plan.rows(), m);
  EXPECT_EQ(plan.cols(), n);

  const auto y_ref = tlr::tlr_mvm_3phase(s.stacks, std::span<const cf32>(s.x));
  std::vector<cf32> y(static_cast<std::size_t>(m));
  tlr::PlanWorkspace ws;
  plan.apply(std::span<const cf32>(s.x), std::span<cf32>(y), ws);
  EXPECT_LT(tlrwse::testing::rel_error(y, y_ref), 5e-5);

  const auto a_ref = tlr::tlr_mvm_adjoint(s.stacks, std::span<const cf32>(s.w));
  std::vector<cf32> a(static_cast<std::size_t>(n));
  plan.apply_adjoint(std::span<const cf32>(s.w), std::span<cf32>(a), ws);
  EXPECT_LT(tlrwse::testing::rel_error(a, a_ref), 5e-5);
}

TEST_P(PlanShapes, PlanMultiRhsIsBitwiseEqualToSingle) {
  const auto [m, n, nb, zero_block] = GetParam();
  const PlanSetup s(m, n, nb, 1e-5, zero_block);
  const tlr::MvmPlan plan(s.stacks);
  constexpr index_t kRhs = 5;
  Rng rng(42);
  std::vector<cf32> X, W;
  for (index_t r = 0; r < kRhs; ++r) {
    const auto xr = tlrwse::testing::random_vector<cf32>(rng, n);
    const auto wr = tlrwse::testing::random_vector<cf32>(rng, m);
    X.insert(X.end(), xr.begin(), xr.end());
    W.insert(W.end(), wr.begin(), wr.end());
  }

  tlr::PlanWorkspace ws1, ws2;
  std::vector<cf32> Y(static_cast<std::size_t>(m * kRhs));
  plan.apply_multi(std::span<const cf32>(X), std::span<cf32>(Y), kRhs, ws1);
  std::vector<cf32> A(static_cast<std::size_t>(n * kRhs));
  plan.apply_adjoint_multi(std::span<const cf32>(W), std::span<cf32>(A), kRhs,
                           ws2);

  for (index_t r = 0; r < kRhs; ++r) {
    std::vector<cf32> y1(static_cast<std::size_t>(m));
    plan.apply(std::span<const cf32>(X.data() + r * n,
                                     static_cast<std::size_t>(n)),
               std::span<cf32>(y1), ws1);
    for (index_t i = 0; i < m; ++i) {
      ASSERT_EQ(Y[static_cast<std::size_t>(r * m + i)],
                y1[static_cast<std::size_t>(i)])
          << "forward rhs " << r << " row " << i;
    }
    std::vector<cf32> a1(static_cast<std::size_t>(n));
    plan.apply_adjoint(std::span<const cf32>(W.data() + r * m,
                                             static_cast<std::size_t>(m)),
                       std::span<cf32>(a1), ws1);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(A[static_cast<std::size_t>(r * n + i)],
                a1[static_cast<std::size_t>(i)])
          << "adjoint rhs " << r << " row " << i;
    }
  }
}

TEST_P(PlanShapes, EveryTierAgreesThroughThePlan) {
  // The same plan executed with each reachable kernel table must agree to
  // <= 4 ULP elementwise (bitwise by construction of the tiers).
  const auto [m, n, nb, zero_block] = GetParam();
  const PlanSetup s(m, n, nb, 1e-5, zero_block);
  const auto levels = simd::available_levels();
  const tlr::MvmPlan ref_plan(s.stacks, &simd::table(simd::Level::kScalar));
  tlr::PlanWorkspace ws;
  std::vector<cf32> y_ref(static_cast<std::size_t>(m));
  ref_plan.apply(std::span<const cf32>(s.x), std::span<cf32>(y_ref), ws);
  for (const simd::Level l : levels) {
    const tlr::MvmPlan plan(s.stacks, &simd::table(l));
    std::vector<cf32> y(static_cast<std::size_t>(m));
    plan.apply(std::span<const cf32>(s.x), std::span<cf32>(y), ws);
    for (index_t i = 0; i < m; ++i) {
      const auto& a = y[static_cast<std::size_t>(i)];
      const auto& b = y_ref[static_cast<std::size_t>(i)];
      ASSERT_LE(ulp_diff(a.real(), b.real()), 4) << simd::level_name(l);
      ASSERT_LE(ulp_diff(a.imag(), b.imag()), 4) << simd::level_name(l);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanShapes,
    ::testing::Values(std::make_tuple(60, 44, 12, false),
                      std::make_tuple(64, 64, 16, false),
                      std::make_tuple(37, 53, 10, false),
                      std::make_tuple(48, 48, 12, true),
                      std::make_tuple(96, 70, 24, true)));

TEST(MvmPlan, ShuffleProgramMergesAdjacentTiles) {
  const PlanSetup s(64, 64, 16);
  const tlr::MvmPlan plan(s.stacks);
  const auto& prog = plan.shuffle_program();
  // The program must cover exactly the total rank volume, once.
  index_t covered = 0;
  for (const auto& seg : prog) {
    EXPECT_GT(seg.len, 0);
    covered += seg.len;
  }
  EXPECT_EQ(covered, plan.total_rank());
  // Merging must not produce more segments than tiles.
  const auto& g = s.stacks.grid();
  EXPECT_LE(static_cast<index_t>(prog.size()), g.mt() * g.nt());
  EXPECT_GT(plan.arena_bytes(), 0u);
}

/// Per-tile views of a TlrMatrix's factors. With `packed`, half tiles are
/// first packed as (re, im) 16-bit pairs into `scratch` — the bytes an
/// archive stores for them.
std::vector<tlr::TileFactors> tile_views(
    const tlr::TlrMatrix<cf32>& a, bool packed,
    std::vector<std::vector<std::uint16_t>>& scratch) {
  const tlr::TileGrid& g = a.grid();
  std::vector<tlr::TileFactors> views(static_cast<std::size_t>(g.num_tiles()));
  scratch.clear();
  scratch.reserve(2 * views.size());
  auto pack = [&](const la::MatrixCF& m, la::HalfFormat fmt) {
    std::vector<std::uint16_t>& buf = scratch.emplace_back();
    for (index_t k = 0; k < m.rows() * m.cols(); ++k) {
      buf.push_back(la::f32_to_half_bits(m.data()[k].real(), fmt));
      buf.push_back(la::f32_to_half_bits(m.data()[k].imag(), fmt));
    }
    return reinterpret_cast<const std::byte*>(buf.data());
  };
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      const auto& t = a.tile(i, j);
      tlr::TileFactors& v = views[static_cast<std::size_t>(g.tile_index(i, j))];
      v.ldu = t.U.rows();
      v.ldvh = t.Vh.rows();
      v.packed = packed && tlr::is_half(a.precision(i, j));
      if (v.packed) {
        const la::HalfFormat fmt = tlr::half_format(a.precision(i, j));
        v.u = pack(t.U, fmt);
        v.vh = pack(t.Vh, fmt);
      } else {
        v.u = reinterpret_cast<const std::byte*>(t.U.data());
        v.vh = reinterpret_cast<const std::byte*>(t.Vh.data());
      }
    }
  }
  return views;
}

std::vector<index_t> rank_table(const tlr::TlrMatrix<cf32>& a) {
  const tlr::TileGrid& g = a.grid();
  std::vector<index_t> ranks(static_cast<std::size_t>(g.num_tiles()));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      ranks[static_cast<std::size_t>(g.tile_index(i, j))] = a.rank(i, j);
    }
  }
  return ranks;
}

/// A ragged matrix with zero-rank tiles, quantized with all three tags.
tlr::TlrMatrix<cf32> mixed_ragged_matrix() {
  const PlanSetup s(70, 53, 12, 1e-5, /*zero_block=*/true);
  tlr::MixedPrecisionPolicy policy;
  policy.fp16_below = 0.6;
  policy.bf16_below = 0.3;
  return tlr::quantize_tlr(s.tlr, policy).matrix;
}

template <class V>
bool same_bytes(const V& a, const V& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

bool same_storage(const tlr::MvmPlan::Storage& a,
                  const tlr::MvmPlan::Storage& b) {
  return same_bytes(a.arena, b.arena) && same_bytes(a.arena16, b.arena16);
}

TEST(MvmPlan, TileViewBuildEqualsTheStackedBuild) {
  // The stacks, cf32 tile views and packed half views all feed the one
  // layout and deposit: the same arena bytes and shuffle program.
  const tlr::TlrMatrix<cf32> a = mixed_ragged_matrix();
  ASSERT_TRUE(a.has_half_tiles());
  tlr::MvmPlan stacked(tlr::StackedTlr<cf32>{a});
  const std::vector<index_t> ranks = rank_table(a);
  for (const bool packed : {false, true}) {
    SCOPED_TRACE(packed ? "packed half views" : "cf32 views");
    std::vector<std::vector<std::uint16_t>> scratch;
    const auto views = tile_views(a, packed, scratch);
    tlr::MvmPlan viewed(a.grid(), ranks, a.precision_tags(), views);
    EXPECT_EQ(viewed.arena_bytes(), stacked.arena_bytes());
    EXPECT_EQ(viewed.total_rank(), stacked.total_rank());
    const auto& sp = stacked.shuffle_program();
    const auto& vp = viewed.shuffle_program();
    ASSERT_EQ(vp.size(), sp.size());
    for (std::size_t k = 0; k < sp.size(); ++k) {
      EXPECT_EQ(vp[k].src, sp[k].src);
      EXPECT_EQ(vp[k].dst, sp[k].dst);
      EXPECT_EQ(vp[k].len, sp[k].len);
    }
    EXPECT_TRUE(same_storage(std::move(viewed).release_storage(),
                             tlr::MvmPlan(tlr::StackedTlr<cf32>{a})
                                 .release_storage()));
  }
}

TEST(MvmPlan, BuildIntoHandedBackStorageReusesItBitwise) {
  const tlr::TlrMatrix<cf32> a = mixed_ragged_matrix();
  const std::vector<index_t> ranks = rank_table(a);
  std::vector<std::vector<std::uint16_t>> scratch;
  const auto views = tile_views(a, true, scratch);
  const tlr::MvmPlan fresh(a.grid(), ranks, a.precision_tags(), views);

  // Storage from a plan of the same shape, its contents poisoned so that
  // any element the build failed to write would show.
  tlr::MvmPlan::Storage storage =
      tlr::MvmPlan(a.grid(), ranks, a.precision_tags(), views)
          .release_storage();
  std::fill(storage.arena.begin(), storage.arena.end(),
            std::numeric_limits<float>::quiet_NaN());
  std::fill(storage.arena16.begin(), storage.arena16.end(),
            std::uint16_t{0x7E01});
  const float* arena = storage.arena.data();
  const std::uint16_t* arena16 = storage.arena16.data();
  const auto* panels = storage.panels.data();
  const auto* shuffle = storage.shuffle.data();
  tlr::MvmPlan reused(a.grid(), ranks, a.precision_tags(), views,
                      std::move(storage));

  std::vector<cf32> x(static_cast<std::size_t>(a.cols()));
  std::vector<cf32> w(static_cast<std::size_t>(a.rows()));
  for (std::size_t k = 0; k < x.size(); ++k) x[k] = cf32(0.5f, -0.25f * k);
  for (std::size_t k = 0; k < w.size(); ++k) w[k] = cf32(0.1f * k, 1.0f);
  tlr::PlanWorkspace ws;
  std::vector<cf32> y1(w.size()), y2(w.size()), z1(x.size()), z2(x.size());
  fresh.apply(x, y1, ws);
  reused.apply(x, y2, ws);
  fresh.apply_adjoint(w, z1, ws);
  reused.apply_adjoint(w, z2, ws);
  EXPECT_TRUE(same_bytes(y1, y2));
  EXPECT_TRUE(same_bytes(z1, z2));

  tlr::MvmPlan::Storage back = std::move(reused).release_storage();
  EXPECT_EQ(back.arena.data(), arena);
  EXPECT_EQ(back.arena16.data(), arena16);
  EXPECT_EQ(back.panels.data(), panels);
  EXPECT_EQ(back.shuffle.data(), shuffle);
  EXPECT_TRUE(same_storage(
      back, tlr::MvmPlan(a.grid(), ranks, a.precision_tags(), views)
                .release_storage()));
}

// --------------------------------------------------- MdcOperator batch --

std::unique_ptr<mdc::MdcOperator> make_mdc(bool dense_backend) {
  const index_t nt = 64;
  const index_t ns = 20;
  const index_t nr = 16;
  std::vector<index_t> bins = {3, 7, 12};
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  for (std::size_t q = 0; q < bins.size(); ++q) {
    auto K = tlrwse::testing::oscillatory_matrix<cf32>(
        ns, nr, 5.0 + static_cast<double>(q));
    if (dense_backend) {
      kernels.push_back(std::make_unique<mdc::DenseMvm>(std::move(K)));
    } else {
      tlr::CompressionConfig cfg;
      cfg.nb = 8;
      cfg.acc = 1e-5;
      kernels.push_back(std::make_unique<mdc::TlrMvm>(
          tlr::StackedTlr<cf32>(tlr::compress_tlr(K, cfg))));
    }
  }
  return std::make_unique<mdc::MdcOperator>(nt, std::move(bins),
                                            std::move(kernels));
}

class MdcBatch : public ::testing::TestWithParam<bool> {};

TEST_P(MdcBatch, BatchedApplyIsBitwiseEqualToSingles) {
  const auto op = make_mdc(GetParam());
  constexpr index_t kRhs = 3;
  Rng rng(7);
  const auto X = random_floats(
      rng, static_cast<std::size_t>(op->cols() * kRhs));
  const auto W = random_floats(
      rng, static_cast<std::size_t>(op->rows() * kRhs));

  std::vector<float> Y(static_cast<std::size_t>(op->rows() * kRhs));
  op->apply_batch(std::span<const float>(X), std::span<float>(Y), kRhs);
  std::vector<float> Xt(static_cast<std::size_t>(op->cols() * kRhs));
  op->apply_adjoint_batch(std::span<const float>(W), std::span<float>(Xt),
                          kRhs);

  for (index_t r = 0; r < kRhs; ++r) {
    std::vector<float> y1(static_cast<std::size_t>(op->rows()));
    op->apply(std::span<const float>(X.data() + r * op->cols(),
                                     static_cast<std::size_t>(op->cols())),
              std::span<float>(y1));
    for (index_t i = 0; i < op->rows(); ++i) {
      ASSERT_EQ(Y[static_cast<std::size_t>(r * op->rows() + i)],
                y1[static_cast<std::size_t>(i)])
          << "apply rhs " << r << " sample " << i;
    }
    std::vector<float> x1(static_cast<std::size_t>(op->cols()));
    op->apply_adjoint(std::span<const float>(W.data() + r * op->rows(),
                                             static_cast<std::size_t>(
                                                 op->rows())),
                      std::span<float>(x1));
    for (index_t i = 0; i < op->cols(); ++i) {
      ASSERT_EQ(Xt[static_cast<std::size_t>(r * op->cols() + i)],
                x1[static_cast<std::size_t>(i)])
          << "adjoint rhs " << r << " sample " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, MdcBatch, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& ti) {
                           return ti.param ? std::string("Dense")
                                           : std::string("Tlr");
                         });

}  // namespace
}  // namespace tlrwse
