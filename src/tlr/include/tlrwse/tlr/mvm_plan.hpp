// Precompiled MVM plan of one TLR matrix: the SIMD-engine execution form
// of the 3-phase TLR-MVM.
//
// A plan's layout follows from the tile grid, the rank table and the
// per-tile precision tags alone: V/U stacks split into planar real/imag
// planes (the paper's complex-to-real splitting, Sec. 6.6) with leading
// dimensions padded to 16 elements so each column starts on a cache-line
// boundary. Tiles tagged fp16/bf16 (TlrMatrix precision tags, see
// tlr/precision.hpp) are PACKED as 16-bit planes in a separate uint16
// arena — consecutive same-precision tiles of a stack coalesce into one
// panel, and the widening hgemv kernels stream half the bytes per sweep,
// which on the memory-bound shapes of the paper is nearly 2x apply
// throughput. All arithmetic stays fp32: packing is lossless for
// pre-rounded (quantize_tlr) values, so a uniform-precision plan applies
// bitwise identically to the fp32 plan of the same rounded matrix. The
// phase-2 shuffle is flattened at build time into a program of (src, dst,
// len) segment copies with adjacent tiles merged, replacing the mt x nt
// nested copy loop of tlr_mvm_3phase with a short run of memcpys.
//
// The factors are deposited in one pass from a per-tile view (TileFactors)
// of wherever they already are: the stacks of a StackedTlr, or the bytes of
// an archive granule, whose packed half tiles are bit-copied into the
// 16-bit panels. A plan can hand its storage back (release_storage) and a
// build can take storage in, so a loader that recycles the plans it drops
// builds the next one into pages that are already mapped.
//
// apply()/apply_adjoint() run the planned 3-phase dataflow through the
// fused split-complex microkernels of la::simd; the _multi variants carry
// nrhs right-hand sides through one sweep over the arena, which is where
// the register-blocked multi-RHS kernels earn their ~4x arithmetic
// intensity. Results are bitwise independent of nrhs (each RHS column
// reduces in the same order as a single-RHS call).
//
// A plan is immutable after construction and safe to share across threads;
// per-call scratch lives in the caller's PlanWorkspace.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "tlrwse/common/aligned.hpp"
#include "tlrwse/la/simd.hpp"
#include "tlrwse/tlr/stacked.hpp"

namespace tlrwse::tlr {

/// One phase-2 copy: len floats from yv-space offset src to yu-space
/// offset dst (per RHS, applied to both planes).
struct ShuffleSegment {
  index_t src;
  index_t dst;
  index_t len;
};

/// Per-thread scratch for plan execution; grown on first use, reused
/// allocation-free afterwards. Not safe for concurrent calls.
struct PlanWorkspace {
  using Buf = std::vector<float, AlignedAllocator<float>>;
  Buf xr, xi;    // split input planes, n_in x nrhs
  Buf yvr, yvi;  // phase-1 outputs, total_rank x nrhs
  Buf yur, yui;  // shuffled phase-3 inputs, total_rank x nrhs
  Buf tr, ti;    // output planes before re-interleaving, n_out x nrhs
  Buf cr, ci;    // factored-core scratch (SharedBasisMvmPlan only)
};

/// One tile's factors where the caller holds them: column-major U
/// (tile_rows x rank, leading dimension ldu) and Vh (rank x tile_cols,
/// leading dimension ldvh), in complex elements. The elements are
/// interleaved cf32, or — a half tile as an archive stores it — packed
/// (re, im) 16-bit pairs. The pointers need no alignment.
struct TileFactors {
  const std::byte* u = nullptr;
  const std::byte* vh = nullptr;
  index_t ldu = 0;
  index_t ldvh = 0;
  bool packed = false;
};

class MvmPlan {
  // One same-precision run of tiles inside a stack. V panels split the
  // stack along its ROWS (disjoint output slices, so panel order cannot
  // change results); U panels split along its COLUMNS, and phase 3 chains
  // accumulation across panels in the same per-element FMA order as the
  // unsplit sweep, so a uniform-precision plan stays bitwise identical to
  // the single-panel layout.
  struct Panel {
    StoragePrecision prec;
    index_t re, im;  // plane offsets into arena (fp32) or arena16 (half)
    index_t ld;      // padded leading dimension, in elements
    index_t off;     // start along the split dimension of the stack
    index_t len;     // extent along the split dimension
  };
  // One tile column's V stack (m = rank sum x n = tile_cols) or one tile
  // row's U stack (m = tile_rows x n = rank sum).
  struct Stack {
    index_t m, n;
    index_t x_off;   // offset of this stack's slice of x (V) or y (U)
    index_t y_base;  // offset of this stack's segment in yv / yu space
    std::size_t p0, p1;  // its panels: [p0, p1) of Storage::panels,
                         // a partition of the rank extent by precision
    index_t fill;    // build cursor along the rank extent
  };

 public:
  /// Every buffer a plan owns. A build takes a Storage in and reuses its
  /// capacity: one with enough capacity allocates nothing, and the arena
  /// pages it brings are already mapped. Contents are overwritten.
  struct Storage {
    std::vector<float, UninitAlignedAllocator<float>> arena;
    std::vector<std::uint16_t, UninitAlignedAllocator<std::uint16_t>> arena16;
    std::vector<Panel> panels;
    std::vector<Stack> v;  // per tile column
    std::vector<Stack> u;  // per tile row
    std::vector<ShuffleSegment> shuffle;
  };

  /// Builds the plan of a `g`-shaped matrix from its rank table, its
  /// precision tags (empty = all fp32) and each tile's factors, all three
  /// in tile_index order. Packed factors are only valid for half tiles.
  /// `storage` is reused (see Storage). `kt` pins the kernel tier (for
  /// parity tests); nullptr uses the process-wide la::simd::dispatch()
  /// table.
  MvmPlan(const TileGrid& g, std::span<const index_t> ranks,
          std::span<const StoragePrecision> prec,
          std::span<const TileFactors> tiles, Storage storage = {},
          const la::simd::KernelTable* kt = nullptr);
  /// The same build over the stacks of `A`.
  explicit MvmPlan(const StackedTlr<cf32>& A,
                   const la::simd::KernelTable* kt = nullptr);

  /// Hands the plan's buffers back for another build; the plan is empty
  /// afterwards.
  [[nodiscard]] Storage release_storage() && { return std::move(s_); }

  /// y = A x  (x: cols(), y: rows()).
  void apply(std::span<const cf32> x, std::span<cf32> y,
             PlanWorkspace& ws) const;
  /// y = A^H x  (x: rows(), y: cols()).
  void apply_adjoint(std::span<const cf32> x, std::span<cf32> y,
                     PlanWorkspace& ws) const;
  /// Multi-RHS forms: X/Y hold nrhs contiguous vectors back to back
  /// (leading dimension = vector length). Each RHS column is bitwise
  /// identical to the corresponding single-RHS call.
  void apply_multi(std::span<const cf32> X, std::span<cf32> Y, index_t nrhs,
                   PlanWorkspace& ws) const;
  void apply_adjoint_multi(std::span<const cf32> X, std::span<cf32> Y,
                           index_t nrhs, PlanWorkspace& ws) const;

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t total_rank() const noexcept { return total_rank_; }
  /// Arena footprint in bytes: fp32 planes at 4 B/real plus packed 16-bit
  /// planes at 2 B/real — the real resident size of the factors.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return s_.arena.size() * sizeof(float) +
           s_.arena16.size() * sizeof(std::uint16_t);
  }
  /// Bytes the same planes would occupy stored uniformly fp32.
  [[nodiscard]] std::size_t fp32_equivalent_bytes() const noexcept {
    return (s_.arena.size() + 2 * s_.arena16.size()) * sizeof(float);
  }
  /// True when at least one stack panel is packed 16-bit.
  [[nodiscard]] bool has_half_panels() const noexcept {
    return !s_.arena16.empty();
  }
  [[nodiscard]] const std::vector<ShuffleSegment>& shuffle_program()
      const noexcept {
    return s_.shuffle;
  }
  [[nodiscard]] const la::simd::KernelTable& kernels() const noexcept {
    return *kt_;
  }

 private:
  void build(const TileGrid& g, std::span<const index_t> ranks,
             std::span<const StoragePrecision> prec,
             std::span<const TileFactors> tiles);

  const la::simd::KernelTable* kt_;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t total_rank_ = 0;
  Storage s_;
};

}  // namespace tlrwse::tlr
