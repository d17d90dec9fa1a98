// Concurrency and workspace tests for the parallel MDC frequency loop:
// thread-count invariance of MdcOperator across every kernel format (dense,
// TLR, shared-basis TLR), the adjoint dot-test property at the FrequencyMvm
// level (including zero-rank tiles and ragged tile grids), bitwise
// reproducibility through reused workspaces, and a counting-allocator
// proof that the steady-state MVM path of an LSQR solve never touches the
// heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "test_helpers.hpp"
#include "tlrwse/la/blas.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/mdd/lsqr.hpp"
#include "tlrwse/tlr/shared_basis.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"

// --- Counting allocator -----------------------------------------------------
// Replaces the global scalar/array operator new to count every heap
// allocation made by this binary; the steady-state tests read the counter
// around hot-path calls. delete is left untouched (counting frees is not
// needed and the default implementation stays malloc-compatible).
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}

// GCC's inliner flags free() on new'ed pointers here, but the replacement
// operator new below is malloc-backed, so the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms (std::stable_sort's temporary buffer) must come from
// the same malloc as the frees below, or ASan reports a new/free mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlrwse::mdc {
namespace {

constexpr index_t kNt = 64;  // power of two: the in-place FFT path

// Kernel formats under test: one host apply path each.
enum class Backend { kDense, kTlr, kSharedBasis };

/// Randomized multi-frequency operator: ragged tile grids (22 x 17 with
/// nb = 6) and a different oscillatory kernel per frequency.
std::unique_ptr<MdcOperator> make_operator(Backend backend) {
  constexpr index_t kNb = 6;
  const std::vector<index_t> bins{3, 5, 7, 9, 11, 14, 17, 20, 23, 26};
  std::vector<la::MatrixCF> ks;
  for (std::size_t q = 0; q < bins.size(); ++q) {
    ks.push_back(tlrwse::testing::oscillatory_matrix<cf32>(
        22, 17, 4.0 + 2.5 * static_cast<double>(q)));
  }
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  if (backend == Backend::kSharedBasis) {
    tlr::SharedBasisConfig sc;
    sc.nb = kNb;
    sc.acc = 1e-6;
    kernels = make_shared_basis_kernels(tlr::SharedBasisStackedTlr<cf32>::fit(
        std::span<const la::MatrixCF>(ks), sc));
  } else {
    tlr::CompressionConfig cc;
    cc.nb = kNb;
    cc.acc = 1e-6;
    for (const auto& k : ks) {
      if (backend == Backend::kDense) {
        kernels.push_back(std::make_unique<DenseMvm>(k));
      } else {
        kernels.push_back(std::make_unique<TlrMvm>(
            tlr::StackedTlr<cf32>(tlr::compress_tlr(k, cc))));
      }
    }
  }
  return std::make_unique<MdcOperator>(kNt, bins, std::move(kernels));
}

/// Runs y = A x at a forced OpenMP thread count, restoring the old count.
std::vector<float> apply_with_threads(const MdcOperator& op,
                                      std::span<const float> x, int threads) {
  std::vector<float> y(static_cast<std::size_t>(op.rows()));
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
#endif
  op.apply(x, std::span<float>(y));
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return y;
}

std::vector<float> adjoint_with_threads(const MdcOperator& op,
                                        std::span<const float> y,
                                        int threads) {
  std::vector<float> x(static_cast<std::size_t>(op.cols()));
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
#endif
  op.apply_adjoint(y, std::span<float>(x));
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return x;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return d;
}

// --- Serial vs parallel agreement -------------------------------------------

class MdcParallel : public ::testing::TestWithParam<Backend> {};

TEST_P(MdcParallel, ApplyAgreesAcrossThreadCounts) {
  const auto op = make_operator(GetParam());
  Rng rng(17);
  const auto x =
      tlrwse::testing::random_vector<float>(rng, op->cols());
  const auto y1 = apply_with_threads(*op, x, 1);
  for (int threads : {2, 4, 7}) {
    const auto yn = apply_with_threads(*op, x, threads);
    EXPECT_LE(max_abs_diff(y1, yn), 1e-6)
        << "forward mismatch at " << threads << " threads";
  }
}

TEST_P(MdcParallel, AdjointAgreesAcrossThreadCounts) {
  const auto op = make_operator(GetParam());
  Rng rng(19);
  const auto y =
      tlrwse::testing::random_vector<float>(rng, op->rows());
  const auto x1 = adjoint_with_threads(*op, y, 1);
  for (int threads : {2, 4, 7}) {
    const auto xn = adjoint_with_threads(*op, y, threads);
    EXPECT_LE(max_abs_diff(x1, xn), 1e-6)
        << "adjoint mismatch at " << threads << " threads";
  }
}

TEST_P(MdcParallel, ParallelAdjointStillPassesDotTest) {
  const auto op = make_operator(GetParam());
  Rng rng(23);
  const auto x = tlrwse::testing::random_vector<float>(rng, op->cols());
  const auto y = tlrwse::testing::random_vector<float>(rng, op->rows());
  const auto ax = apply_with_threads(*op, x, 4);
  const auto aty = adjoint_with_threads(*op, y, 4);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    lhs += static_cast<double>(ax[i]) * static_cast<double>(y[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(aty[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-4 * (std::abs(lhs) + std::abs(rhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Backends, MdcParallel,
                         ::testing::Values(Backend::kDense, Backend::kTlr,
                                           Backend::kSharedBasis),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Backend::kDense: return "Dense";
                             case Backend::kTlr: return "Tlr";
                             default: return "SharedBasis";
                           }
                         });

TEST(MdcParallel, RejectsDuplicateFrequencyBins) {
  // Distinct bins are what make the parallel scatter race-free; the
  // constructor must enforce them.
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  const auto k = tlrwse::testing::oscillatory_matrix<cf32>(6, 5);
  kernels.push_back(std::make_unique<DenseMvm>(k));
  kernels.push_back(std::make_unique<DenseMvm>(k));
  EXPECT_THROW(MdcOperator(kNt, {7, 7}, std::move(kernels)),
               std::invalid_argument);
}

// --- Adjoint consistency at the FrequencyMvm level --------------------------

/// Handcrafted TLR matrix with explicit per-tile ranks, including rank-0
/// tiles, on a grid whose last tile row AND column are ragged.
tlr::TlrMatrix<cf32> zero_rank_ragged_tlr(index_t m = 31, index_t n = 23,
                                          index_t nb = 8) {
  const tlr::TileGrid grid(m, n, nb);
  Rng rng(101);
  std::vector<la::LowRankFactors<cf32>> tiles(
      static_cast<std::size_t>(grid.num_tiles()));
  for (index_t j = 0; j < grid.nt(); ++j) {
    for (index_t i = 0; i < grid.mt(); ++i) {
      const index_t mr = grid.tile_rows(i);
      const index_t nc = grid.tile_cols(j);
      // Every third anti-diagonal tile is exactly rank 0.
      index_t k = ((i + j) % 3 == 0)
                      ? 0
                      : std::min({mr, nc, 1 + (i * 2 + j) % 4});
      la::LowRankFactors<cf32> f;
      f.U = tlrwse::testing::random_matrix<cf32>(rng, mr, k);
      f.Vh = tlrwse::testing::random_matrix<cf32>(rng, k, nc);
      tiles[static_cast<std::size_t>(grid.tile_index(i, j))] = std::move(f);
    }
  }
  return tlr::TlrMatrix<cf32>(grid, std::move(tiles));
}

void expect_dot_property(const FrequencyMvm& mvm) {
  Rng rng(7);
  const auto x = tlrwse::testing::random_vector<cf32>(rng, mvm.cols());
  const auto y = tlrwse::testing::random_vector<cf32>(rng, mvm.rows());
  std::vector<cf32> ax(static_cast<std::size_t>(mvm.rows()));
  std::vector<cf32> aty(static_cast<std::size_t>(mvm.cols()));
  mvm.apply(std::span<const cf32>(x), std::span<cf32>(ax));
  mvm.apply_adjoint(std::span<const cf32>(y), std::span<cf32>(aty));
  // <A x, y> == <x, A^H y> in the conj-first inner product.
  std::complex<double> lhs{}, rhs{};
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += std::conj(std::complex<double>(ax[i])) * std::complex<double>(y[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += std::conj(std::complex<double>(x[i])) * std::complex<double>(aty[i]);
  }
  EXPECT_LE(std::abs(lhs - rhs), 1e-3 * (std::abs(lhs) + 1.0));
}

TEST(FrequencyMvmAdjoint, DenseSatisfiesDotProperty) {
  DenseMvm mvm(tlrwse::testing::oscillatory_matrix<cf32>(33, 26, 7.0));
  expect_dot_property(mvm);
}

TEST(TlrAdjointProperty, OscillatoryRaggedGrid) {
  // 33 x 26 with nb = 7: ragged last tile row and column.
  const auto k = tlrwse::testing::oscillatory_matrix<cf32>(33, 26, 7.0);
  tlr::CompressionConfig cc;
  cc.nb = 7;
  cc.acc = 1e-6;
  TlrMvm mvm(tlr::StackedTlr<cf32>(tlr::compress_tlr(k, cc)));
  expect_dot_property(mvm);
}

TEST(TlrAdjointProperty, ZeroRankTilesRaggedGrid) {
  const TlrMvm mvm{tlr::StackedTlr<cf32>(zero_rank_ragged_tlr())};
  expect_dot_property(mvm);
}

TEST(TlrAdjointProperty, ZeroRankForwardMatchesReconstruction) {
  const auto t = zero_rank_ragged_tlr();
  const auto rec = t.reconstruct();
  const TlrMvm mvm{tlr::StackedTlr<cf32>(t)};
  Rng rng(5);
  const auto x = tlrwse::testing::random_vector<cf32>(rng, t.cols());
  std::vector<cf32> y(static_cast<std::size_t>(t.rows()));
  mvm.apply(std::span<const cf32>(x), std::span<cf32>(y));
  std::vector<cf32> ref(y.size());
  la::gemv(rec, std::span<const cf32>(x), std::span<cf32>(ref));
  EXPECT_LT(tlrwse::testing::rel_error(y, ref), 1e-4);
}

// --- Workspace reuse --------------------------------------------------------

TEST(WorkspaceReuse, PooledWorkspaceIsBitwiseIdenticalToFresh) {
  const auto k = tlrwse::testing::oscillatory_matrix<cf32>(41, 29, 10.0);
  tlr::CompressionConfig cc;
  cc.nb = 9;
  cc.acc = 1e-6;
  TlrMvm mvm(tlr::StackedTlr<cf32>(tlr::compress_tlr(k, cc)));
  Rng rng(31);
  const auto x1 = tlrwse::testing::random_vector<cf32>(rng, 29);
  const auto x2 = tlrwse::testing::random_vector<cf32>(rng, 29);
  const auto ya = tlrwse::testing::random_vector<cf32>(rng, 41);

  // Reference: every call through its own fresh workspace.
  std::vector<cf32> ref1(41), ref2(41), ref_adj(29);
  {
    FrequencyWorkspace fresh1, fresh2, fresh3;
    mvm.apply(std::span<const cf32>(x1), std::span<cf32>(ref1), fresh1);
    mvm.apply(std::span<const cf32>(x2), std::span<cf32>(ref2), fresh2);
    mvm.apply_adjoint(std::span<const cf32>(ya), std::span<cf32>(ref_adj),
                      fresh3);
  }

  // One shared workspace, interleaved calls (stale yv/yu state from a
  // previous apply must never leak into the next result).
  FrequencyWorkspace ws;
  std::vector<cf32> y(41), adj(29);
  for (int rep = 0; rep < 3; ++rep) {
    mvm.apply(std::span<const cf32>(x1), std::span<cf32>(y), ws);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], ref1[i]) << "rep " << rep << " elem " << i;
    }
    mvm.apply_adjoint(std::span<const cf32>(ya), std::span<cf32>(adj), ws);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      ASSERT_EQ(adj[i], ref_adj[i]) << "rep " << rep << " elem " << i;
    }
    mvm.apply(std::span<const cf32>(x2), std::span<cf32>(y), ws);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], ref2[i]) << "rep " << rep << " elem " << i;
    }
  }
}

TEST(WorkspaceReuse, TwoArgumentFormsMatchWorkspaceForms) {
  tlr::CompressionConfig cc;
  cc.nb = 6;
  cc.acc = 1e-6;
  TlrMvm mvm(tlr::StackedTlr<cf32>(tlr::compress_tlr(
      tlrwse::testing::oscillatory_matrix<cf32>(24, 18, 6.0), cc)));
  // A differently shaped kernel shares the thread's workspace in between.
  TlrMvm other(tlr::StackedTlr<cf32>(tlr::compress_tlr(
      tlrwse::testing::oscillatory_matrix<cf32>(37, 45, 8.0), cc)));
  Rng rng(37);
  const auto x = tlrwse::testing::random_vector<cf32>(rng, 18);
  const auto ya = tlrwse::testing::random_vector<cf32>(rng, 24);
  const auto xo = tlrwse::testing::random_vector<cf32>(rng, 45);
  std::vector<cf32> ref(24), ref_adj(18), yo(37);
  FrequencyWorkspace ws;
  mvm.apply(std::span<const cf32>(x), std::span<cf32>(ref), ws);
  mvm.apply_adjoint(std::span<const cf32>(ya), std::span<cf32>(ref_adj), ws);
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<cf32> y(24), a(18);
    mvm.apply(std::span<const cf32>(x), std::span<cf32>(y));
    other.apply(std::span<const cf32>(xo), std::span<cf32>(yo));
    mvm.apply_adjoint(std::span<const cf32>(ya), std::span<cf32>(a));
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], ref[i]);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], ref_adj[i]);
  }
}

// --- Zero steady-state allocations ------------------------------------------

TEST(MdcAllocation, SteadyStateAppliesAreAllocationFree) {
  const auto op = make_operator(Backend::kTlr);
  Rng rng(41);
  const auto x = tlrwse::testing::random_vector<float>(rng, op->cols());
  const auto yb = tlrwse::testing::random_vector<float>(rng, op->rows());
  std::vector<float> y(static_cast<std::size_t>(op->rows()));
  std::vector<float> xt(static_cast<std::size_t>(op->cols()));

  // Warm-up: fills every pool (page scratch, per-thread frequency scratch,
  // FFT buffers) and lets the OpenMP runtime build its thread team.
  for (int i = 0; i < 3; ++i) {
    op->apply(std::span<const float>(x), std::span<float>(y));
    op->apply_adjoint(std::span<const float>(yb), std::span<float>(xt));
  }

  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 5; ++i) {
    op->apply(std::span<const float>(x), std::span<float>(y));
    op->apply_adjoint(std::span<const float>(yb), std::span<float>(xt));
  }
  const std::size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state apply/apply_adjoint allocated " << (after - before)
      << " times";
}

/// LinearOperator wrapper recording the number of heap allocations inside
/// each delegated apply/apply_adjoint call.
class AllocCountingOperator final : public mdc::LinearOperator {
 public:
  explicit AllocCountingOperator(const mdc::LinearOperator& inner)
      : inner_(inner) {
    calls_.reserve(256);
  }
  [[nodiscard]] index_t rows() const override { return inner_.rows(); }
  [[nodiscard]] index_t cols() const override { return inner_.cols(); }
  void apply(std::span<const float> x, std::span<float> y) const override {
    const std::size_t before = g_alloc_count.load();
    inner_.apply(x, y);
    calls_.push_back(g_alloc_count.load() - before);
  }
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override {
    const std::size_t before = g_alloc_count.load();
    inner_.apply_adjoint(y, x);
    calls_.push_back(g_alloc_count.load() - before);
  }
  [[nodiscard]] const std::vector<std::size_t>& calls() const {
    return calls_;
  }

 private:
  const mdc::LinearOperator& inner_;
  mutable std::vector<std::size_t> calls_;
};

TEST(MdcAllocation, LsqrMvmPathIsAllocationFreeAfterWarmup) {
  const auto op = make_operator(Backend::kTlr);
  AllocCountingOperator counted(*op);
  Rng rng(43);
  const auto b = tlrwse::testing::random_vector<float>(rng, op->rows());

  mdd::LsqrConfig cfg;
  cfg.max_iters = 8;
  const auto res = mdd::lsqr_solve(counted, std::span<const float>(b), cfg);
  EXPECT_EQ(res.iterations, 8);

  // The very first apply and apply_adjoint warm the pools; every MVM after
  // that must be allocation-free.
  const auto& calls = counted.calls();
  ASSERT_GE(calls.size(), 4u);
  for (std::size_t i = 2; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i], 0u) << "MVM call " << i << " allocated";
  }
}

}  // namespace
}  // namespace tlrwse::mdc
