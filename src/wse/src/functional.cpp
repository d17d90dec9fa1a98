#include "tlrwse/wse/functional.hpp"

#include "tlrwse/common/error.hpp"
#include "tlrwse/wse/cost_model.hpp"

namespace tlrwse::wse {

TlrRankSource::TlrRankSource(const std::vector<tlr::TlrMatrix<cf32>>& matrices)
    : matrices_(&matrices) {
  TLRWSE_REQUIRE(!matrices.empty(), "need at least one matrix");
  const auto& g0 = matrices.front().grid();
  for (const auto& m : matrices) {
    TLRWSE_REQUIRE(m.grid().rows() == g0.rows() &&
                       m.grid().cols() == g0.cols() && m.grid().nb() == g0.nb(),
                   "all matrices must share a tile grid");
  }
}

const tlr::TileGrid& TlrRankSource::grid() const {
  return matrices_->front().grid();
}

std::vector<index_t> TlrRankSource::tile_ranks(index_t q) const {
  TLRWSE_REQUIRE(q >= 0 && q < num_freqs(), "frequency index");
  const auto& m = (*matrices_)[static_cast<std::size_t>(q)];
  const auto& g = m.grid();
  std::vector<index_t> ranks(static_cast<std::size_t>(g.num_tiles()));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      ranks[static_cast<std::size_t>(g.tile_index(i, j))] = m.rank(i, j);
    }
  }
  return ranks;
}

std::vector<cf32> functional_wse_mvm(const tlr::StackedTlr<cf32>& A,
                                     index_t stack_width,
                                     std::span<const cf32> x,
                                     obs::FlightRecorder* recorder) {
  const tlr::TileGrid& g = A.grid();
  TLRWSE_REQUIRE(static_cast<index_t>(x.size()) == g.cols(), "x size");
  std::vector<cf32> y(static_cast<std::size_t>(g.rows()), cf32{});

  // Rank source view over this single matrix.
  struct SingleSource final : RankSource {
    const tlr::StackedTlr<cf32>* stacks;
    [[nodiscard]] index_t num_freqs() const override { return 1; }
    [[nodiscard]] const tlr::TileGrid& grid() const override {
      return stacks->grid();
    }
    [[nodiscard]] std::vector<index_t> tile_ranks(index_t) const override {
      const auto& gg = stacks->grid();
      std::vector<index_t> ranks(static_cast<std::size_t>(gg.num_tiles()));
      for (index_t j = 0; j < gg.nt(); ++j) {
        for (index_t i = 0; i < gg.mt(); ++i) {
          ranks[static_cast<std::size_t>(gg.tile_index(i, j))] =
              stacks->rank(i, j);
        }
      }
      return ranks;
    }
  } source;
  source.stacks = &A;

  index_t pe_index = 0;  // one PE per chunk, strategy-1 style
  const CostModelParams cost{};

  for_each_chunk(source, stack_width, [&](const Chunk& c) {
    if (recorder != nullptr) {
      // The chunk's eight MVM shapes (4x V, 4x U), computed in place: the
      // heap-allocating chunk_mvm_shapes() would dominate the hook cost.
      RealMvmShape v;
      v.m = static_cast<double>(c.h);
      v.n = static_cast<double>(c.nb);
      v.mn = v.m * v.n;
      RealMvmShape u;
      u.n = static_cast<double>(c.h);
      index_t prev_tile = -1;
      for (const auto& seg : c.segments) {
        u.mn += static_cast<double>(seg.count) * static_cast<double>(seg.mb);
        if (seg.tile_row != prev_tile) {
          u.m += static_cast<double>(seg.mb);
          prev_tile = seg.tile_row;
        }
      }
      PeWork pe;
      for (int k = 0; k < 4; ++k) pe.add_mvm(cost, v);
      for (int k = 0; k < 4; ++k) pe.add_mvm(cost, u);
      pe.cycles += cost.cycles_per_call;
      recorder->record(
          obs::Phase::kFusedColumn, pe_index,
          obs::PeSample{pe.cycles, pe.relative_bytes, pe.absolute_bytes,
                        pe.flops,
                        static_cast<double>(chunk_sram_bytes_strategy1(c))});
    }
    ++pe_index;
    const index_t j = c.tile_col;
    const auto& vs = A.v_stack(j);
    const cf32* xj = x.data() + g.col_offset(j);

    // Split-real x for this tile column (each PE keeps its own copy).
    std::vector<float> xr(static_cast<std::size_t>(c.nb));
    std::vector<float> xi(static_cast<std::size_t>(c.nb));
    for (index_t col = 0; col < c.nb; ++col) {
      xr[static_cast<std::size_t>(col)] = xj[col].real();
      xi[static_cast<std::size_t>(col)] = xj[col].imag();
    }

    // V batch, four real MVMs: yv = Vslice * x over the chunk's h rows.
    std::vector<float> yvr(static_cast<std::size_t>(c.h), 0.0f);
    std::vector<float> yvi(static_cast<std::size_t>(c.h), 0.0f);
    index_t row = 0;
    for (const auto& seg : c.segments) {
      const index_t base = A.v_offset(seg.tile_row, j) + seg.rank_begin;
      for (index_t r = 0; r < seg.count; ++r, ++row) {
        float acc_rr = 0.0f, acc_ii = 0.0f, acc_ri = 0.0f, acc_ir = 0.0f;
        for (index_t col = 0; col < c.nb; ++col) {
          const cf32 v = vs(base + r, col);
          // The four real batched MVMs: Vr*xr, Vi*xi, Vr*xi, Vi*xr.
          acc_rr += v.real() * xr[static_cast<std::size_t>(col)];
          acc_ii += v.imag() * xi[static_cast<std::size_t>(col)];
          acc_ri += v.real() * xi[static_cast<std::size_t>(col)];
          acc_ir += v.imag() * xr[static_cast<std::size_t>(col)];
        }
        yvr[static_cast<std::size_t>(row)] = acc_rr - acc_ii;
        yvi[static_cast<std::size_t>(row)] = acc_ri + acc_ir;
      }
    }

    // U batch, four real MVMs accumulated into the host-reduced y.
    row = 0;
    for (const auto& seg : c.segments) {
      const index_t i = seg.tile_row;
      const auto& us = A.u_stack(i);
      const index_t ubase = A.u_offset(i, j) + seg.rank_begin;
      cf32* yi_out = y.data() + g.row_offset(i);
      for (index_t r = 0; r < seg.count; ++r, ++row) {
        const float sr = yvr[static_cast<std::size_t>(row)];
        const float si = yvi[static_cast<std::size_t>(row)];
        const cf32* ucol = us.col(ubase + r);
        for (index_t out = 0; out < seg.mb; ++out) {
          const float ur = ucol[out].real();
          const float ui = ucol[out].imag();
          yi_out[out] += cf32{ur * sr - ui * si, ur * si + ui * sr};
        }
      }
    }
  });

  return y;
}

}  // namespace tlrwse::wse
