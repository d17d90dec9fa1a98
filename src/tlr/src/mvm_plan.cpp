#include "tlrwse/tlr/mvm_plan.hpp"

#include <algorithm>
#include <cstring>

#include "tlrwse/common/error.hpp"
#include "tlrwse/la/half.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/tracer.hpp"

namespace tlrwse::tlr {

namespace {

// Leading dimensions round up to 16 elements: a multiple of every kernel
// tier's register width, so every arena column (and every plane, since
// plane sizes are ld * n) starts 64-byte aligned in the fp32 arena and
// 32-byte aligned in the uint16 arena — the kernels use unaligned loads,
// alignment is a throughput nicety, not a contract.
constexpr index_t kPadElems = 16;

index_t round_up(index_t v) {
  return (v + kPadElems - 1) / kPadElems * kPadElems;
}

void ensure(PlanWorkspace::Buf& b, std::size_t n) {
  if (b.size() < n) b.resize(n);
}

// Splits n complex elements at `src` into planes re/im. fp32 planes take
// interleaved cf32 only; 16-bit planes take cf32 values (packed through
// la/half.hpp, lossless for values pre-rounded by quantize_tlr) or packed
// (re, im) pairs, which are bit-copied. Sources may be unaligned, so each
// component is read by a memcpy of its own width (vectorisable loads).
template <class T>
T load(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

void put(const std::byte* src, bool /*packed*/, la::HalfFormat /*fmt*/,
         index_t n, float* __restrict re, float* __restrict im) {
  for (index_t r = 0; r < n; ++r) {
    re[r] = load<float>(src + 8 * r);
    im[r] = load<float>(src + 8 * r + 4);
  }
}

void put(const std::byte* src, bool packed, la::HalfFormat fmt, index_t n,
         std::uint16_t* __restrict re, std::uint16_t* __restrict im) {
  if (packed) {
    for (index_t r = 0; r < n; ++r) {
      re[r] = load<std::uint16_t>(src + 4 * r);
      im[r] = load<std::uint16_t>(src + 4 * r + 2);
    }
    return;
  }
  for (index_t r = 0; r < n; ++r) {
    re[r] = la::f32_to_half_bits(load<float>(src + 8 * r), fmt);
    im[r] = la::f32_to_half_bits(load<float>(src + 8 * r + 4), fmt);
  }
}

/// Bytes of one complex element of a tile view.
std::size_t elem_bytes(const TileFactors& t) {
  return t.packed ? 2 * sizeof(std::uint16_t) : sizeof(cf32);
}

}  // namespace

MvmPlan::MvmPlan(const TileGrid& g, std::span<const index_t> ranks,
                 std::span<const StoragePrecision> prec,
                 std::span<const TileFactors> tiles, Storage storage,
                 const la::simd::KernelTable* kt)
    : kt_(kt != nullptr ? kt : &la::simd::dispatch()), s_(std::move(storage)) {
  build(g, ranks, prec, tiles);
}

MvmPlan::MvmPlan(const StackedTlr<cf32>& A, const la::simd::KernelTable* kt)
    : kt_(kt != nullptr ? kt : &la::simd::dispatch()) {
  const TileGrid& g = A.grid();
  const auto ntiles = static_cast<std::size_t>(g.num_tiles());
  std::vector<index_t> ranks(ntiles);
  std::vector<StoragePrecision> prec(ntiles);
  std::vector<TileFactors> tiles(ntiles);
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      const auto t = static_cast<std::size_t>(g.tile_index(i, j));
      ranks[t] = A.rank(i, j);
      prec[t] = A.precision(i, j);
      const la::Matrix<cf32>& us = A.u_stack(i);
      const la::Matrix<cf32>& vs = A.v_stack(j);
      tiles[t] = {reinterpret_cast<const std::byte*>(us.col(A.u_offset(i, j))),
                  reinterpret_cast<const std::byte*>(vs.data() +
                                                     A.v_offset(i, j)),
                  us.rows(), vs.rows(), false};
    }
  }
  build(g, ranks, prec, tiles);
}

void MvmPlan::build(const TileGrid& g, std::span<const index_t> ranks,
                    std::span<const StoragePrecision> prec,
                    std::span<const TileFactors> tiles) {
  const auto ntiles = static_cast<std::size_t>(g.num_tiles());
  TLRWSE_REQUIRE(ranks.size() == ntiles && tiles.size() == ntiles &&
                     (prec.empty() || prec.size() == ntiles),
                 "plan build: ", ranks.size(), " ranks, ", prec.size(),
                 " precision tags and ", tiles.size(), " tile views for ",
                 ntiles, " tiles");
  const auto rank = [&](index_t i, index_t j) {
    return ranks[static_cast<std::size_t>(g.tile_index(i, j))];
  };
  const auto precision = [&](index_t i, index_t j) {
    return prec.empty() ? StoragePrecision::kFp32
                        : prec[static_cast<std::size_t>(g.tile_index(i, j))];
  };
  rows_ = g.rows();
  cols_ = g.cols();
  total_rank_ = 0;
  s_.panels.clear();
  s_.v.clear();
  s_.u.clear();
  s_.shuffle.clear();

  // Lay out all planes: per-column V re/im, then per-row U re/im, each
  // stack partitioned into same-precision panels. fp32 panels go into the
  // float arena, fp16/bf16 panels into the packed uint16 arena; both
  // offsets advance independently and plane sizes stay multiples of 16
  // elements.
  index_t off32 = 0;
  index_t off16 = 0;
  auto place = [&](Panel& p, index_t plane_elems) {
    index_t& off = is_half(p.prec) ? off16 : off32;
    p.re = off;
    p.im = off + plane_elems;
    off += 2 * plane_elems;
  };
  // Appends the panels of one stack: one per run of same-precision tiles
  // along its rank extent (zero-rank tiles contribute nothing and do not
  // break a run). Returns the extent.
  auto runs = [&](Stack& s, index_t count, auto&& rank_at, auto&& prec_at) {
    s.p0 = s_.panels.size();
    index_t off = 0;
    for (index_t t = 0; t < count; ++t) {
      const index_t len = rank_at(t);
      if (len == 0) continue;
      const StoragePrecision p = prec_at(t);
      if (s_.panels.size() > s.p0 && s_.panels.back().prec == p) {
        s_.panels.back().len += len;
      } else {
        s_.panels.push_back({p, 0, 0, 0, off, len});
      }
      off += len;
    }
    s.p1 = s_.panels.size();
    return off;
  };

  s_.v.resize(static_cast<std::size_t>(g.nt()));
  for (index_t j = 0; j < g.nt(); ++j) {
    Stack& c = s_.v[static_cast<std::size_t>(j)];
    c.n = g.tile_cols(j);
    c.x_off = g.col_offset(j);
    c.y_base = total_rank_;
    c.fill = 0;
    // V stacks split along their rows (ranks).
    c.m = runs(
        c, g.mt(), [&](index_t i) { return rank(i, j); },
        [&](index_t i) { return precision(i, j); });
    for (std::size_t k = c.p0; k < c.p1; ++k) {
      Panel& p = s_.panels[k];
      p.ld = round_up(p.len);
      place(p, p.ld * c.n);
    }
    total_rank_ += c.m;
  }
  s_.u.resize(static_cast<std::size_t>(g.mt()));
  index_t yu_base = 0;
  for (index_t i = 0; i < g.mt(); ++i) {
    Stack& r = s_.u[static_cast<std::size_t>(i)];
    r.m = g.tile_rows(i);
    r.x_off = g.row_offset(i);
    r.y_base = yu_base;
    r.fill = 0;
    // U stacks split along their columns (ranks): every panel keeps the
    // full tile height, so all panels of a row share one leading dim.
    r.n = runs(
        r, g.nt(), [&](index_t j) { return rank(i, j); },
        [&](index_t j) { return precision(i, j); });
    yu_base += r.n;
    for (std::size_t k = r.p0; k < r.p1; ++k) {
      Panel& p = s_.panels[k];
      p.ld = round_up(r.m);
      place(p, p.ld * p.len);
    }
  }

  // Every arena element is written below — factors, then zero padding —
  // so the resize leaves them unwritten (UninitAlignedAllocator). Zero
  // bits are +0.0f in fp32, fp16 and bf16 alike, so padding contributes
  // exact zeros to any kernel sweep.
  s_.arena.resize(static_cast<std::size_t>(off32));
  s_.arena16.resize(static_cast<std::size_t>(off16));

  // Deposits len complex elements per column into `ncols` columns of
  // panel p, starting at (row0, col0): column c of the source begins at
  // src + c * ld_src elements.
  auto deposit = [&](const Panel& p, const std::byte* src,
                     std::size_t ld_src_bytes, bool packed, index_t row0,
                     index_t col0, index_t len, index_t ncols) {
    const la::HalfFormat fmt = half_format(p.prec);
    auto into = [&](auto* arena) {
      for (index_t c = 0; c < ncols; ++c) {
        const index_t at = (col0 + c) * p.ld + row0;
        put(src + static_cast<std::size_t>(c) * ld_src_bytes, packed, fmt,
            len, arena + p.re + at, arena + p.im + at);
      }
    };
    if (is_half(p.prec)) {
      into(s_.arena16.data());
    } else {
      into(s_.arena.data());
    }
  };
  // Zero-fills rows [from, ld) of every column of panel p.
  auto pad = [&](const Panel& p, index_t from, index_t ncols) {
    auto into = [&](auto* arena) {
      for (index_t c = 0; c < ncols; ++c) {
        std::fill(arena + p.re + c * p.ld + from, arena + p.re + (c + 1) * p.ld,
                  0);
        std::fill(arena + p.im + c * p.ld + from, arena + p.im + (c + 1) * p.ld,
                  0);
      }
    };
    if (is_half(p.prec)) {
      into(s_.arena16.data());
    } else {
      into(s_.arena.data());
    }
  };

  // The panel of stack s that holds rank offset `off`.
  auto panel_at = [&](const Stack& s, index_t off) -> const Panel& {
    std::size_t k = s.p0;
    while (off >= s_.panels[k].off + s_.panels[k].len) ++k;
    return s_.panels[k];
  };

  // One walk over the tiles, j outer / i inner (the loop order of
  // tlr_mvm_3phase): tile (i, j)'s Vh rows land at column j's V cursor,
  // its U columns at row i's U cursor, and the flattened phase-2 shuffle
  // copies the one to the other. Segments contiguous in BOTH spaces merge
  // (zero-rank tiles vanish entirely).
  for (index_t j = 0; j < g.nt(); ++j) {
    Stack& c = s_.v[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < g.mt(); ++i) {
      const index_t r = rank(i, j);
      if (r == 0) continue;
      Stack& row = s_.u[static_cast<std::size_t>(i)];
      const TileFactors& t =
          tiles[static_cast<std::size_t>(g.tile_index(i, j))];
      const Panel& pv = panel_at(c, c.fill);
      TLRWSE_REQUIRE(!t.packed || is_half(pv.prec),
                     "plan build: packed factors on fp32 tile (", i, ", ", j,
                     ")");
      deposit(pv, t.vh, static_cast<std::size_t>(t.ldvh) * elem_bytes(t),
              t.packed, c.fill - pv.off, 0, r, c.n);
      const Panel& pu = panel_at(row, row.fill);
      deposit(pu, t.u, static_cast<std::size_t>(t.ldu) * elem_bytes(t),
              t.packed, 0, row.fill - pu.off, row.m, r);

      const index_t src = c.y_base + c.fill;
      const index_t dst = row.y_base + row.fill;
      c.fill += r;
      row.fill += r;
      if (!s_.shuffle.empty()) {
        ShuffleSegment& last = s_.shuffle.back();
        if (last.src + last.len == src && last.dst + last.len == dst) {
          last.len += r;
          continue;
        }
      }
      s_.shuffle.push_back({src, dst, r});
    }
    // V columns pad below their rank extent ...
    for (std::size_t k = c.p0; k < c.p1; ++k) {
      pad(s_.panels[k], s_.panels[k].len, c.n);
    }
  }
  // ... and U columns below the tile height.
  for (const Stack& row : s_.u) {
    for (std::size_t k = row.p0; k < row.p1; ++k) {
      pad(s_.panels[k], row.m, s_.panels[k].len);
    }
  }
}

void MvmPlan::apply(std::span<const cf32> x, std::span<cf32> y,
                    PlanWorkspace& ws) const {
  apply_multi(x, y, 1, ws);
}

void MvmPlan::apply_adjoint(std::span<const cf32> x, std::span<cf32> y,
                            PlanWorkspace& ws) const {
  apply_adjoint_multi(x, y, 1, ws);
}

void MvmPlan::apply_multi(std::span<const cf32> X, std::span<cf32> Y,
                          index_t nrhs, PlanWorkspace& ws) const {
  TLRWSE_TRACE_SPAN_DETAIL("tlr.plan_apply", "tlr");
  static obs::Counter& calls =
      obs::MetricsRegistry::instance().counter("tlr.plan_apply");
  calls.add();
  TLRWSE_REQUIRE(static_cast<index_t>(X.size()) == cols_ * nrhs, "X size");
  TLRWSE_REQUIRE(static_cast<index_t>(Y.size()) == rows_ * nrhs, "Y size");
  const la::simd::KernelTable& k = *kt_;

  ensure(ws.xr, static_cast<std::size_t>(cols_ * nrhs));
  ensure(ws.xi, static_cast<std::size_t>(cols_ * nrhs));
  ensure(ws.yvr, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.yvi, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.yur, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.yui, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.tr, static_cast<std::size_t>(rows_ * nrhs));
  ensure(ws.ti, static_cast<std::size_t>(rows_ * nrhs));

  for (index_t r = 0; r < nrhs; ++r) {
    k.split_complex(cols_, X.data() + r * cols_, ws.xr.data() + r * cols_,
                    ws.xi.data() + r * cols_);
  }

  // Phase 1: V-batch per tile column, all RHS in one sweep over the
  // planes. Panels partition the output rows of the stack, so each panel
  // writes its own disjoint yv slice.
  for (const Stack& c : s_.v) {
    for (std::size_t pi = c.p0; pi < c.p1; ++pi) {
      const Panel& p = s_.panels[pi];
      float* yr = ws.yvr.data() + c.y_base + p.off;
      float* yi = ws.yvi.data() + c.y_base + p.off;
      if (is_half(p.prec)) {
        k.hgemv_split_multi(half_format(p.prec), p.len, c.n,
                            s_.arena16.data() + p.re, s_.arena16.data() + p.im,
                            p.ld, ws.xr.data() + c.x_off,
                            ws.xi.data() + c.x_off, cols_, yr, yi, total_rank_,
                            nrhs, /*accumulate=*/false);
      } else {
        k.sgemv_split_multi(p.len, c.n, s_.arena.data() + p.re,
                            s_.arena.data() + p.im, p.ld,
                            ws.xr.data() + c.x_off, ws.xi.data() + c.x_off,
                            cols_, yr, yi, total_rank_, nrhs,
                            /*accumulate=*/false);
      }
    }
  }

  // Phase 2: the precompiled shuffle program (per RHS, both planes).
  for (index_t r = 0; r < nrhs; ++r) {
    const float* sr = ws.yvr.data() + r * total_rank_;
    const float* si = ws.yvi.data() + r * total_rank_;
    float* dr = ws.yur.data() + r * total_rank_;
    float* di = ws.yui.data() + r * total_rank_;
    for (const ShuffleSegment& s : s_.shuffle) {
      std::memcpy(dr + s.dst, sr + s.src,
                  static_cast<std::size_t>(s.len) * sizeof(float));
      std::memcpy(di + s.dst, si + s.src,
                  static_cast<std::size_t>(s.len) * sizeof(float));
    }
  }

  // Phase 3: U-batch per tile row; rows partition the output. Panels split
  // the reduction over the stack's columns, chaining accumulation in the
  // same per-element FMA order as an unsplit sweep.
  for (const Stack& u : s_.u) {
    if (u.m == 0) continue;
    if (u.p0 == u.p1) {
      // All tiles of the row have rank zero: the output slice is zero.
      for (index_t r = 0; r < nrhs; ++r) {
        std::memset(ws.tr.data() + r * rows_ + u.x_off, 0,
                    static_cast<std::size_t>(u.m) * sizeof(float));
        std::memset(ws.ti.data() + r * rows_ + u.x_off, 0,
                    static_cast<std::size_t>(u.m) * sizeof(float));
      }
      continue;
    }
    bool accumulate = false;
    for (std::size_t pi = u.p0; pi < u.p1; ++pi) {
      const Panel& p = s_.panels[pi];
      const float* xr = ws.yur.data() + u.y_base + p.off;
      const float* xi = ws.yui.data() + u.y_base + p.off;
      if (is_half(p.prec)) {
        k.hgemv_split_multi(half_format(p.prec), u.m, p.len,
                            s_.arena16.data() + p.re, s_.arena16.data() + p.im,
                            p.ld, xr, xi, total_rank_,
                            ws.tr.data() + u.x_off, ws.ti.data() + u.x_off,
                            rows_, nrhs, accumulate);
      } else {
        k.sgemv_split_multi(u.m, p.len, s_.arena.data() + p.re,
                            s_.arena.data() + p.im, p.ld, xr, xi, total_rank_,
                            ws.tr.data() + u.x_off, ws.ti.data() + u.x_off,
                            rows_, nrhs, accumulate);
      }
      accumulate = true;
    }
  }

  for (index_t r = 0; r < nrhs; ++r) {
    k.merge_complex(rows_, ws.tr.data() + r * rows_, ws.ti.data() + r * rows_,
                    Y.data() + r * rows_);
  }
}

void MvmPlan::apply_adjoint_multi(std::span<const cf32> X, std::span<cf32> Y,
                                  index_t nrhs, PlanWorkspace& ws) const {
  TLRWSE_TRACE_SPAN_DETAIL("tlr.plan_apply_adjoint", "tlr");
  static obs::Counter& calls =
      obs::MetricsRegistry::instance().counter("tlr.plan_apply_adjoint");
  calls.add();
  TLRWSE_REQUIRE(static_cast<index_t>(X.size()) == rows_ * nrhs, "X size");
  TLRWSE_REQUIRE(static_cast<index_t>(Y.size()) == cols_ * nrhs, "Y size");
  const la::simd::KernelTable& k = *kt_;

  ensure(ws.xr, static_cast<std::size_t>(rows_ * nrhs));
  ensure(ws.xi, static_cast<std::size_t>(rows_ * nrhs));
  ensure(ws.yvr, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.yvi, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.yur, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.yui, static_cast<std::size_t>(total_rank_ * nrhs));
  ensure(ws.tr, static_cast<std::size_t>(cols_ * nrhs));
  ensure(ws.ti, static_cast<std::size_t>(cols_ * nrhs));

  for (index_t r = 0; r < nrhs; ++r) {
    k.split_complex(rows_, X.data() + r * rows_, ws.xr.data() + r * rows_,
                    ws.xi.data() + r * rows_);
  }

  // Adjoint runs the dataflow backwards: U^H per tile row (panels
  // partition the yu outputs, so order is free) ...
  for (const Stack& u : s_.u) {
    for (std::size_t pi = u.p0; pi < u.p1; ++pi) {
      const Panel& p = s_.panels[pi];
      float* yr = ws.yur.data() + u.y_base + p.off;
      float* yi = ws.yui.data() + u.y_base + p.off;
      if (is_half(p.prec)) {
        k.hgemv_split_adjoint_multi(half_format(p.prec), u.m, p.len,
                                    s_.arena16.data() + p.re,
                                    s_.arena16.data() + p.im, p.ld,
                                    ws.xr.data() + u.x_off,
                                    ws.xi.data() + u.x_off, rows_, yr, yi,
                                    total_rank_, nrhs, /*accumulate=*/false);
      } else {
        k.sgemv_split_adjoint_multi(u.m, p.len, s_.arena.data() + p.re,
                                    s_.arena.data() + p.im, p.ld,
                                    ws.xr.data() + u.x_off,
                                    ws.xi.data() + u.x_off, rows_, yr, yi,
                                    total_rank_, nrhs, /*accumulate=*/false);
      }
    }
  }

  // ... the shuffle program applied in reverse (dst -> src) ...
  for (index_t r = 0; r < nrhs; ++r) {
    const float* sr = ws.yur.data() + r * total_rank_;
    const float* si = ws.yui.data() + r * total_rank_;
    float* dr = ws.yvr.data() + r * total_rank_;
    float* di = ws.yvi.data() + r * total_rank_;
    for (const ShuffleSegment& s : s_.shuffle) {
      std::memcpy(dr + s.src, sr + s.dst,
                  static_cast<std::size_t>(s.len) * sizeof(float));
      std::memcpy(di + s.src, si + s.dst,
                  static_cast<std::size_t>(s.len) * sizeof(float));
    }
  }

  // ... then V^H per tile column (columns partition the output). Panels
  // split the reduction over the stack's rows; partial dot results chain
  // through accumulate. A mixed-precision column therefore sums its
  // panels' reductions in panel order — deterministic, but grouped
  // differently than a single-panel sweep; uniform-precision plans keep
  // one panel and the historical bitwise behaviour.
  for (const Stack& c : s_.v) {
    if (c.n == 0) continue;
    if (c.p0 == c.p1) {
      for (index_t r = 0; r < nrhs; ++r) {
        std::memset(ws.tr.data() + r * cols_ + c.x_off, 0,
                    static_cast<std::size_t>(c.n) * sizeof(float));
        std::memset(ws.ti.data() + r * cols_ + c.x_off, 0,
                    static_cast<std::size_t>(c.n) * sizeof(float));
      }
      continue;
    }
    bool accumulate = false;
    for (std::size_t pi = c.p0; pi < c.p1; ++pi) {
      const Panel& p = s_.panels[pi];
      const float* xr = ws.yvr.data() + c.y_base + p.off;
      const float* xi = ws.yvi.data() + c.y_base + p.off;
      if (is_half(p.prec)) {
        k.hgemv_split_adjoint_multi(half_format(p.prec), p.len, c.n,
                                    s_.arena16.data() + p.re,
                                    s_.arena16.data() + p.im, p.ld, xr, xi,
                                    total_rank_, ws.tr.data() + c.x_off,
                                    ws.ti.data() + c.x_off, cols_, nrhs,
                                    accumulate);
      } else {
        k.sgemv_split_adjoint_multi(p.len, c.n, s_.arena.data() + p.re,
                                    s_.arena.data() + p.im, p.ld, xr, xi,
                                    total_rank_, ws.tr.data() + c.x_off,
                                    ws.ti.data() + c.x_off, cols_, nrhs,
                                    accumulate);
      }
      accumulate = true;
    }
  }

  for (index_t r = 0; r < nrhs; ++r) {
    k.merge_complex(cols_, ws.tr.data() + r * cols_, ws.ti.data() + r * cols_,
                    Y.data() + r * cols_);
  }
}

}  // namespace tlrwse::tlr
