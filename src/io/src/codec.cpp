#include "codec.hpp"

#include <algorithm>

#include "tlrwse/common/error.hpp"
#include "tlrwse/la/half.hpp"

namespace tlrwse::io::codec {

namespace {

/// On-disk bytes of one complex element at the given storage precision:
/// fp32 stores cf32, half stores two packed uint16 (re, im bits).
std::int64_t complex_disk_bytes(tlr::StoragePrecision p) {
  return tlr::is_half(p) ? static_cast<std::int64_t>(2 * sizeof(std::uint16_t))
                         : static_cast<std::int64_t>(sizeof(cf32));
}

/// A matrix inside a container: its dims and, from a ByteReader, its
/// payload in place (null from a StreamReader).
struct MatrixView {
  index_t rows = 0;
  index_t cols = 0;
  const std::byte* data = nullptr;
};

/// Reads one matrix header, rejecting dims outside [0, max_rows] x [0,
/// max_cols] — the caller's structural bound, at most kMaxDim — and takes
/// its payload.
template <class Reader>
MatrixView take_matrix(Reader& in, index_t max_rows, index_t max_cols,
                       tlr::StoragePrecision p) {
  const auto rows = get<std::int64_t>(in);
  const auto cols = get<std::int64_t>(in);
  TLRWSE_REQUIRE(rows >= 0 && cols >= 0 && rows <= max_rows && cols <= max_cols,
                 "corrupt matrix header: dims out of range");
  return {rows, cols, in.take(rows * cols, complex_disk_bytes(p))};
}

/// A matrix copied out of a view: cf32 bytes as they are, packed half
/// pairs widened through la/half.hpp.
la::MatrixCF copy_matrix(const MatrixView& v, tlr::StoragePrecision p) {
  la::MatrixCF m(v.rows, v.cols);
  const auto n = static_cast<std::size_t>(v.rows * v.cols);
  if (!tlr::is_half(p)) {
    if (n > 0) std::memcpy(m.data(), v.data, n * sizeof(cf32));
    return m;
  }
  const la::HalfFormat fmt = tlr::half_format(p);
  cf32* d = m.data();
  for (std::size_t k = 0; k < n; ++k) {
    std::uint16_t bits[2];
    std::memcpy(bits, v.data + k * sizeof(bits), sizeof(bits));
    d[k] = cf32(la::half_bits_to_f32(bits[0], fmt),
                la::half_bits_to_f32(bits[1], fmt));
  }
  return m;
}

/// The one validation of a "TLRT" kernel header, for a header walk and a
/// granule parse alike: std::runtime_error for a bad magic or version,
/// std::invalid_argument for out-of-range dims, ranks or tags — and for a
/// tile count whose rank table and tile headers cannot fit in what `in`
/// has left, checked before the rank table is allocated.
template <class Reader>
TlrKernelHeader read_tlr_kernel_header(Reader& in, const std::string& path) {
  if (get<std::uint32_t>(in) != kTlrMagic) {
    throw std::runtime_error("tlrwse::io: bad kernel magic in " + path);
  }
  const auto version = get<std::uint32_t>(in);
  if (version != kFormatVersion && version != kFormatVersionMixed) {
    throw std::runtime_error("tlrwse::io: unsupported kernel version in " +
                             path);
  }
  const auto rows = get<std::int64_t>(in);
  const auto cols = get<std::int64_t>(in);
  const auto nb = get<std::int64_t>(in);
  TLRWSE_REQUIRE(rows <= kMaxDim && cols <= kMaxDim && nb <= kMaxDim,
                 "corrupt kernel header: dims out of range");
  TlrKernelHeader h{tlr::TileGrid(rows, cols, nb), {}, {}};
  const bool mixed = version == kFormatVersionMixed;
  // Per tile: a rank, a precision tag (version 2), and the two factors'
  // four dims.
  const std::int64_t min_tile_bytes =
      static_cast<std::int64_t>(5 * sizeof(std::int64_t)) + (mixed ? 1 : 0);
  const index_t ntiles = h.grid.num_tiles();
  TLRWSE_REQUIRE(ntiles <= in.left() / min_tile_bytes,
                 "corrupt kernel header: ", ntiles, " tiles cannot fit in the ",
                 in.left(), " bytes left of ", path);
  h.ranks.resize(static_cast<std::size_t>(ntiles));
  in.read(h.ranks.data(), ntiles * static_cast<std::int64_t>(sizeof(index_t)));
  for (index_t j = 0; j < h.grid.nt(); ++j) {
    for (index_t i = 0; i < h.grid.mt(); ++i) {
      const index_t rank =
          h.ranks[static_cast<std::size_t>(h.grid.tile_index(i, j))];
      TLRWSE_REQUIRE(rank >= 0 && rank <= std::min(h.grid.tile_rows(i),
                                                   h.grid.tile_cols(j)),
                     "corrupt kernel: tile rank out of range");
    }
  }
  if (mixed) {
    h.prec.resize(static_cast<std::size_t>(ntiles));
    in.read(h.prec.data(), ntiles);
    for (const tlr::StoragePrecision p : h.prec) {
      TLRWSE_REQUIRE(tlr::valid_precision_tag(static_cast<std::uint8_t>(p)),
                     "corrupt kernel: bad precision tag");
    }
  }
  return h;
}

/// Bytes of one kernel's tiles after its header: 4 i64 dims + factors
/// per tile. Summed in double (exact for any real file) so a corrupt rank
/// table cannot overflow it; a sum past 2^62 bytes is no file.
std::int64_t tile_payload_bytes(const TlrKernelHeader& h) {
  double bytes = 0.0;
  for (index_t j = 0; j < h.grid.nt(); ++j) {
    for (index_t i = 0; i < h.grid.mt(); ++i) {
      const auto t = static_cast<std::size_t>(h.grid.tile_index(i, j));
      bytes += static_cast<double>(4 * sizeof(std::int64_t)) +
               static_cast<double>(h.ranks[t]) *
                   static_cast<double>(h.grid.tile_rows(i) +
                                       h.grid.tile_cols(j)) *
                   static_cast<double>(complex_disk_bytes(h.precision(t)));
    }
  }
  TLRWSE_REQUIRE(bytes < 0x1p62, "corrupt kernel: tile payload out of range");
  return static_cast<std::int64_t>(bytes);
}

/// One "TLRB" band's header: grid, accuracy, frequency count and (version
/// 2) the band-uniform storage precision.
struct BandHeader {
  tlr::TileGrid grid;
  double acc = 0.0;
  index_t num_freqs = 0;
  tlr::StoragePrecision prec = tlr::StoragePrecision::kFp32;
};

/// The one walk over a band's layout: its header, the two shared bases of
/// every tile, then per frequency each tile's core — a factored flag, a
/// rank and one matrix (dense) or two (factored). Every dimension is
/// bounded by the structure read before it (bases by their tile, cores by
/// the basis ranks; from_parts enforces exactness), and the tile count by
/// the bytes left, before anything is allocated. `sink` receives the band:
/// begin(header), basis(t, u, vh) and core(f, t, factored, rank, a, b).
template <class Reader, class Sink>
void walk_band(Reader& in, const std::string& path, std::uint32_t version,
               index_t max_freqs, Sink& sink) {
  if (get<std::uint32_t>(in) != kBandMagic) {
    throw std::runtime_error("tlrwse::io: bad band magic in " + path);
  }
  const auto rows = get<std::int64_t>(in);
  const auto cols = get<std::int64_t>(in);
  const auto nb = get<std::int64_t>(in);
  BandHeader h;
  h.acc = get<double>(in);
  h.num_freqs = get<std::int64_t>(in);
  TLRWSE_REQUIRE(h.num_freqs >= 0 && h.num_freqs <= max_freqs,
                 "corrupt shared archive band");
  TLRWSE_REQUIRE(rows <= kMaxDim && cols <= kMaxDim && nb <= kMaxDim,
                 "corrupt shared archive band: dims out of range");
  if (version == kFormatVersionMixed) {
    const auto tag = get<std::uint8_t>(in);
    TLRWSE_REQUIRE(tlr::valid_precision_tag(tag),
                   "corrupt shared archive: bad precision tag");
    h.prec = static_cast<tlr::StoragePrecision>(tag);
  }
  h.grid = tlr::TileGrid(rows, cols, nb);
  const tlr::TileGrid& g = h.grid;
  // Per tile: the two basis headers, then per frequency a core's flag,
  // rank and at least one matrix header.
  const index_t ntiles = g.num_tiles();
  TLRWSE_REQUIRE(ntiles == 0 || (in.left() / ntiles >= 32 &&
                                 (in.left() / ntiles - 32) / 28 >= h.num_freqs),
                 "corrupt shared archive band: ", ntiles, " tiles of ",
                 h.num_freqs, " frequencies cannot fit in the ", in.left(),
                 " bytes left of ", path);
  sink.begin(h);
  // Basis ranks per tile: columns of U, rows of Vh.
  std::vector<index_t> ku(static_cast<std::size_t>(ntiles));
  std::vector<index_t> kv(static_cast<std::size_t>(ntiles));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      // A shared basis cannot out-rank its tile (orthonormal columns /
      // rows).
      const auto t = static_cast<std::size_t>(g.tile_index(i, j));
      const MatrixView u =
          take_matrix(in, g.tile_rows(i), g.tile_rows(i), h.prec);
      const MatrixView vh =
          take_matrix(in, g.tile_cols(j), g.tile_cols(j), h.prec);
      ku[t] = u.cols;
      kv[t] = vh.rows;
      sink.basis(t, u, vh);
    }
  }
  for (index_t f = 0; f < h.num_freqs; ++f) {
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        const auto t = static_cast<std::size_t>(g.tile_index(i, j));
        const bool factored = get<std::uint32_t>(in) != 0;
        const auto rank = get<std::int64_t>(in);
        if (factored) {
          const index_t rmax = std::min(ku[t], kv[t]);
          const MatrixView a = take_matrix(in, ku[t], rmax, h.prec);
          const MatrixView b = take_matrix(in, rmax, kv[t], h.prec);
          sink.core(f, t, true, rank, a, b);
        } else {
          const MatrixView a = take_matrix(in, ku[t], kv[t], h.prec);
          sink.core(f, t, false, rank, a, MatrixView{});
        }
      }
    }
  }
}

/// Sums a band's payload for skip_band, in the file's order.
struct BandBytesSink {
  BandBytes out;
  std::int64_t elem = 0;

  [[nodiscard]] double bytes(const MatrixView& m) const {
    return static_cast<double>(m.rows * m.cols * elem);
  }
  void begin(const BandHeader& h) {
    out.grid = h.grid;
    out.cores.assign(static_cast<std::size_t>(h.num_freqs), 0.0);
    elem = complex_disk_bytes(h.prec);
  }
  void basis(std::size_t, const MatrixView& u, const MatrixView& vh) {
    out.basis += bytes(u);
    out.basis += bytes(vh);
  }
  void core(index_t f, std::size_t, bool factored, index_t,
            const MatrixView& a, const MatrixView& b) {
    double& c = out.cores[static_cast<std::size_t>(f)];
    c += bytes(a);
    if (factored) c += bytes(b);
  }
};

using Band = tlr::SharedBasisStackedTlr<cf32>;

/// Copies a band's bases and the cores of frequencies [lo, hi) out of its
/// bytes, for parse_band.
struct BandBuilder {
  const std::string& path;
  const ShardExtent& e;
  index_t lo, hi;
  BandHeader h;
  std::vector<la::MatrixCF> u, vh;
  std::vector<std::vector<Band::Core>> cores;

  void begin(const BandHeader& header) {
    TLRWSE_REQUIRE(header.num_freqs == e.num_freqs,
                   "archive extents do not match ", path, ": band at byte ",
                   e.offset, " holds ", header.num_freqs,
                   " frequencies, not ", e.num_freqs);
    h = header;
    const auto ntiles = static_cast<std::size_t>(h.grid.num_tiles());
    u.resize(ntiles);
    vh.resize(ntiles);
    cores.assign(static_cast<std::size_t>(hi - lo),
                 std::vector<Band::Core>(ntiles));
  }
  void basis(std::size_t t, const MatrixView& bu, const MatrixView& bvh) {
    u[t] = copy_matrix(bu, h.prec);
    vh[t] = copy_matrix(bvh, h.prec);
  }
  void core(index_t f, std::size_t t, bool factored, index_t rank,
            const MatrixView& a, const MatrixView& b) {
    if (f < lo || f >= hi) return;
    Band::Core& c = cores[static_cast<std::size_t>(f - lo)][t];
    c.factored = factored;
    c.rank = rank;
    if (factored) {
      c.lr.U = copy_matrix(a, h.prec);
      c.lr.Vh = copy_matrix(b, h.prec);
    } else {
      c.dense = copy_matrix(a, h.prec);
    }
  }
};

}  // namespace

void write_matrix(std::ostream& os, const la::MatrixCF& m,
                  tlr::StoragePrecision p) {
  put_i64(os, m.rows());
  put_i64(os, m.cols());
  if (!tlr::is_half(p)) {
    os.write(reinterpret_cast<const char*>(m.data()),
             static_cast<std::streamsize>(static_cast<std::size_t>(m.size()) *
                                          sizeof(cf32)));
    return;
  }
  const la::HalfFormat fmt = tlr::half_format(p);
  const cf32* d = m.data();
  std::vector<std::uint16_t> buf(2 * static_cast<std::size_t>(m.size()));
  for (std::size_t k = 0; k < static_cast<std::size_t>(m.size()); ++k) {
    buf[2 * k] = la::f32_to_half_bits(d[k].real(), fmt);
    buf[2 * k + 1] = la::f32_to_half_bits(d[k].imag(), fmt);
  }
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size() * sizeof(std::uint16_t)));
}

void write_tlr_kernel(std::ostream& os, const tlr::TlrMatrix<cf32>& m) {
  const bool mixed = m.has_half_tiles();
  put_u32(os, kTlrMagic);
  put_u32(os, mixed ? kFormatVersionMixed : kFormatVersion);
  const auto& g = m.grid();
  put_i64(os, g.rows());
  put_i64(os, g.cols());
  put_i64(os, g.nb());
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) put_i64(os, m.rank(i, j));
  }
  if (mixed) {
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        os.put(static_cast<char>(m.precision(i, j)));
      }
    }
  }
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      const tlr::StoragePrecision p =
          mixed ? m.precision(i, j) : tlr::StoragePrecision::kFp32;
      write_matrix(os, m.tile(i, j).U, p);
      write_matrix(os, m.tile(i, j).Vh, p);
    }
  }
}

std::span<const char> read_granule(std::istream& is, std::int64_t offset,
                                   std::int64_t bytes,
                                   std::vector<char>& staging) {
  TLRWSE_REQUIRE(bytes >= 0, "archive extents: negative granule size");
  const auto n = static_cast<std::size_t>(bytes);
  if (staging.size() < n) staging.resize(n);
  is.seekg(offset);
  is.read(staging.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("tlrwse::io: truncated file");
  return {staging.data(), n};
}

FactorBytes factor_bytes(const TlrKernelHeader& h) {
  FactorBytes b;
  for (index_t j = 0; j < h.grid.nt(); ++j) {
    for (index_t i = 0; i < h.grid.mt(); ++i) {
      const auto t = static_cast<std::size_t>(h.grid.tile_index(i, j));
      const index_t rank = h.ranks[t];
      const auto elems = static_cast<double>(rank * h.grid.tile_rows(i) +
                                             rank * h.grid.tile_cols(j));
      b.stored += elems * sizeof(cf32) *
                  (tlr::bytes_per_real(h.precision(t)) / 4.0);
      b.fp32 += elems * sizeof(cf32);
    }
  }
  return b;
}

TlrKernelHeader skip_tlr_kernel(StreamReader& in, const std::string& path) {
  TlrKernelHeader h = read_tlr_kernel_header(in, path);
  in.take(tile_payload_bytes(h));
  return h;
}

void parse_tlr_granule(std::span<const char> bytes, const std::string& path,
                       std::int64_t offset, TlrGranule& out) {
  ByteReader in(bytes);
  out.h = read_tlr_kernel_header(in, path);
  const tlr::TileGrid& g = out.h.grid;
  TLRWSE_REQUIRE(tile_payload_bytes(out.h) == in.left(), "the kernel at byte ",
                 offset, " of ", path, " is not ", bytes.size(), " bytes");
  out.tiles.resize(static_cast<std::size_t>(g.num_tiles()));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      const auto t = static_cast<std::size_t>(g.tile_index(i, j));
      const index_t rank = out.h.ranks[t];
      const tlr::StoragePrecision p = out.h.precision(t);
      tlr::TileFactors& f = out.tiles[t];
      f.packed = tlr::is_half(p);
      f.ldu = g.tile_rows(i);
      f.ldvh = rank;
      // U (tile_rows x rank) then Vh (rank x tile_cols); the exact-size
      // check above keeps every take inside the bytes.
      const MatrixView u = take_matrix(in, g.tile_rows(i), rank, p);
      TLRWSE_REQUIRE(u.rows == g.tile_rows(i) && u.cols == rank,
                     "corrupt kernel: tile factors mismatch rank table");
      f.u = u.data;
      const MatrixView vh = take_matrix(in, rank, g.tile_cols(j), p);
      TLRWSE_REQUIRE(vh.rows == rank && vh.cols == g.tile_cols(j),
                     "corrupt kernel: tile factors mismatch rank table");
      f.vh = vh.data;
    }
  }
}

tlr::TlrMatrix<cf32> to_tlr_matrix(const TlrGranule& granule) {
  const tlr::TileGrid& g = granule.h.grid;
  std::vector<la::LowRankFactors<cf32>> tiles(
      static_cast<std::size_t>(g.num_tiles()));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      const auto t = static_cast<std::size_t>(g.tile_index(i, j));
      const index_t rank = granule.h.ranks[t];
      const tlr::StoragePrecision p = granule.h.precision(t);
      tiles[t].U = copy_matrix({g.tile_rows(i), rank, granule.tiles[t].u}, p);
      tiles[t].Vh =
          copy_matrix({rank, g.tile_cols(j), granule.tiles[t].vh}, p);
    }
  }
  tlr::TlrMatrix<cf32> m(g, std::move(tiles));
  if (!granule.h.prec.empty()) m.set_precision_tags(granule.h.prec);
  return m;
}

BandBytes skip_band(StreamReader& in, const std::string& path,
                    std::uint32_t version, index_t max_freqs) {
  BandBytesSink sink;
  walk_band(in, path, version, max_freqs, sink);
  return std::move(sink.out);
}

Band parse_band(std::span<const char> bytes, const std::string& path,
                std::uint32_t version, const ShardExtent& e, index_t keep_lo,
                index_t keep_hi) {
  ByteReader in(bytes);
  BandBuilder b{path, e, keep_lo, keep_hi, {}, {}, {}, {}};
  walk_band(in, path, version, e.num_freqs, b);
  TLRWSE_REQUIRE(in.left() == 0, "archive extents do not match ", path,
                 ": the granule at byte ", e.offset, " is not ", e.bytes,
                 " bytes");
  Band band = Band::from_parts(b.h.grid, b.h.acc, std::move(b.u),
                               std::move(b.vh), std::move(b.cores));
  // Re-tag the band: the payload values are already rounded, so
  // set_precision is a lossless no-op on the data and restores the
  // precision-aware byte accounting and packed-plan packing.
  if (tlr::is_half(b.h.prec)) band.set_precision(b.h.prec);
  return band;
}

}  // namespace tlrwse::io::codec
