#include "tlrwse/io/archive.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>

#include "tlrwse/common/error.hpp"
#include "tlrwse/io/serialize.hpp"
#include "tlrwse/tlr/mvm_plan.hpp"
#include "tlrwse/tlr/stacked.hpp"

namespace tlrwse::io {

namespace {
constexpr std::uint32_t kArchiveMagic = 0x544C5241;  // "TLRA"

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
std::int64_t read_i64(std::istream& is) {
  std::int64_t v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
double read_f64(std::istream& is) {
  double v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

// Upper bound on any single matrix dimension read from disk; a corrupt
// header past this is rejected before it can demand a huge allocation.
constexpr index_t kMaxArchiveDim = index_t{1} << 30;

/// On-disk bytes of one complex element at the given storage precision:
/// fp32 stores cf32, half stores two packed uint16 (re, im bits).
std::int64_t complex_disk_bytes(tlr::StoragePrecision p) {
  return tlr::is_half(p) ? static_cast<std::int64_t>(2 * sizeof(std::uint16_t))
                         : static_cast<std::int64_t>(sizeof(cf32));
}

void write_mat(std::ostream& os, const la::MatrixCF& m,
               tlr::StoragePrecision p = tlr::StoragePrecision::kFp32) {
  write_i64(os, m.rows());
  write_i64(os, m.cols());
  if (!tlr::is_half(p)) {
    os.write(reinterpret_cast<const char*>(m.data()),
             static_cast<std::streamsize>(static_cast<std::size_t>(m.size()) *
                                          sizeof(cf32)));
    return;
  }
  // Values were pre-rounded through la/half.hpp at quantize time, so the
  // packed payload reproduces them bitwise on reload.
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

/// Reads one matrix, rejecting dimensions outside [0, max_rows/cols] (the
/// caller's structural bound) and any short read — a truncated or corrupt
/// stream must throw, never hand back silently-garbage factors.
la::MatrixCF read_mat(std::istream& is, index_t max_rows, index_t max_cols,
                      tlr::StoragePrecision p = tlr::StoragePrecision::kFp32) {
  const index_t r = read_i64(is);
  const index_t c = read_i64(is);
  if (!is) throw std::runtime_error("tlrwse::io: truncated matrix header");
  TLRWSE_REQUIRE(r >= 0 && c >= 0 && r <= max_rows && c <= max_cols,
                 "corrupt matrix header: dims out of range");
  la::MatrixCF m(r, c);
  if (!tlr::is_half(p)) {
    is.read(reinterpret_cast<char*>(m.data()),
            static_cast<std::streamsize>(static_cast<std::size_t>(m.size()) *
                                         sizeof(cf32)));
    if (!is) throw std::runtime_error("tlrwse::io: truncated matrix payload");
    return m;
  }
  const la::HalfFormat fmt = tlr::half_format(p);
  std::vector<std::uint16_t> buf(2 * static_cast<std::size_t>(m.size()));
  is.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size() * sizeof(std::uint16_t)));
  if (!is) throw std::runtime_error("tlrwse::io: truncated matrix payload");
  cf32* d = m.data();
  for (std::size_t k = 0; k < static_cast<std::size_t>(m.size()); ++k) {
    d[k] = cf32(la::half_bits_to_f32(buf[2 * k], fmt),
                la::half_bits_to_f32(buf[2 * k + 1], fmt));
  }
  return m;
}

/// Reads a matrix header and seeks past its payload (slice loads and the
/// byte scan never touch skipped factors). Returns the payload bytes.
double skip_mat(std::istream& is,
                tlr::StoragePrecision p = tlr::StoragePrecision::kFp32) {
  const index_t r = read_i64(is);
  const index_t c = read_i64(is);
  if (!is) throw std::runtime_error("tlrwse::io: truncated matrix header");
  TLRWSE_REQUIRE(
      r >= 0 && c >= 0 && r <= kMaxArchiveDim && c <= kMaxArchiveDim,
      "corrupt matrix header: dims out of range");
  const auto bytes = static_cast<std::int64_t>(r) * c * complex_disk_bytes(p);
  is.seekg(bytes, std::ios::cur);
  if (!is) throw std::runtime_error("tlrwse::io: truncated matrix payload");
  return static_cast<double>(bytes);
}

/// Bounds-checked reads over one TLRA granule held whole in memory; a read
/// past its end is a short read.
class ByteReader {
 public:
  explicit ByteReader(std::span<const char> bytes) : bytes_(bytes) {}
  /// The next n bytes, in place.
  const std::byte* take(std::int64_t n) {
    if (n < 0 || n > left()) {
      throw std::runtime_error("tlrwse::io: truncated archive");
    }
    const auto* p = reinterpret_cast<const std::byte*>(bytes_.data()) + pos_;
    pos_ += n;
    return p;
  }
  void read(void* dst, std::int64_t n) {
    std::memcpy(dst, take(n), static_cast<std::size_t>(n));
  }
  [[nodiscard]] std::int64_t left() const {
    return static_cast<std::int64_t>(bytes_.size()) - pos_;
  }

 private:
  std::span<const char> bytes_;
  std::int64_t pos_ = 0;
};

/// The same reads from an archive stream, bounded by the file's size, so
/// the header-only walk validates exactly as the granule parser does.
class StreamReader {
 public:
  StreamReader(std::istream& is, std::int64_t file_bytes)
      : is_(is), end_(file_bytes) {}
  void read(void* dst, std::int64_t n) {
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is_) throw std::runtime_error("tlrwse::io: truncated archive");
  }
  /// Seeks past n bytes the file must hold.
  void skip(std::int64_t n) {
    if (n > left()) throw std::runtime_error("tlrwse::io: truncated archive");
    is_.seekg(n, std::ios::cur);
  }
  [[nodiscard]] std::int64_t left() const {
    return end_ - static_cast<std::int64_t>(is_.tellg());
  }

 private:
  std::istream& is_;
  std::int64_t end_;
};

template <class Reader>
std::uint32_t take_u32(Reader& in) {
  std::uint32_t v{};
  in.read(&v, sizeof(v));
  return v;
}
template <class Reader>
std::int64_t take_i64(Reader& in) {
  std::int64_t v{};
  in.read(&v, sizeof(v));
  return v;
}

/// One embedded TLRA kernel's magic, dims, rank table and (version 2)
/// per-tile precision table. The payload's exact size follows from ranks
/// and precisions, so skipping costs a single seek.
struct EmbeddedTlrHeader {
  tlr::TileGrid grid;
  std::vector<index_t> ranks;               // tile_index order
  std::vector<tlr::StoragePrecision> prec;  // empty = uniform fp32 (v1)

  [[nodiscard]] tlr::StoragePrecision precision(std::size_t t) const {
    return prec.empty() ? tlr::StoragePrecision::kFp32 : prec[t];
  }
};

/// The one validation of an embedded kernel header, for the extents walk
/// (a stream) and the granule parser (bytes) alike: std::runtime_error
/// for a short read, a bad magic or a bad version, std::invalid_argument
/// for out-of-range dims, ranks or tags — and for a tile count whose rank
/// table and tile headers cannot fit in what `in` has left, checked before
/// the rank table is allocated.
template <class Reader>
EmbeddedTlrHeader read_tlr_kernel_header(Reader& in, const std::string& path) {
  if (take_u32(in) != kTlrMagic) {
    throw std::runtime_error("tlrwse::io: bad kernel magic in " + path);
  }
  const std::uint32_t version = take_u32(in);
  if (version != kFormatVersion && version != kFormatVersionMixed) {
    throw std::runtime_error("tlrwse::io: unsupported kernel version");
  }
  const index_t rows = take_i64(in);
  const index_t cols = take_i64(in);
  const index_t nb = take_i64(in);
  TLRWSE_REQUIRE(rows <= kMaxArchiveDim && cols <= kMaxArchiveDim &&
                     nb <= kMaxArchiveDim,
                 "corrupt kernel header: dims out of range");
  EmbeddedTlrHeader h{tlr::TileGrid(rows, cols, nb), {}, {}};
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
  in.read(h.ranks.data(),
          ntiles * static_cast<std::int64_t>(sizeof(index_t)));
  for (index_t j = 0; j < h.grid.nt(); ++j) {
    for (index_t i = 0; i < h.grid.mt(); ++i) {
      const index_t rank =
          h.ranks[static_cast<std::size_t>(h.grid.tile_index(i, j))];
      TLRWSE_REQUIRE(rank >= 0 && rank <= std::min(h.grid.tile_rows(i),
                                                   h.grid.tile_cols(j)),
                     "corrupt archive: tile rank out of range");
    }
  }
  if (mixed) {
    h.prec.resize(static_cast<std::size_t>(ntiles));
    in.read(h.prec.data(), ntiles);
    for (const tlr::StoragePrecision p : h.prec) {
      TLRWSE_REQUIRE(tlr::valid_precision_tag(static_cast<std::uint8_t>(p)),
                     "corrupt archive: bad precision tag");
    }
  }
  return h;
}

/// One kernel's factor payload as stored (half tiles packed) and as it
/// would be stored uniformly fp32, summed in tile_index order exactly as
/// TlrMatrix::compressed_bytes() and fp32_bytes() sum them — the
/// residency currency cache admission and stream planning price against.
struct FactorBytes {
  double stored = 0.0;
  double fp32 = 0.0;
};
FactorBytes factor_bytes(const EmbeddedTlrHeader& h) {
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

/// Bytes of one kernel's tiles after its header: 4 i64 dims + factors
/// per tile. Summed in double (exact for any real file) so a corrupt rank
/// table cannot overflow it; a sum past 2^62 bytes is no file.
std::int64_t tile_payload_bytes(const EmbeddedTlrHeader& h) {
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
  TLRWSE_REQUIRE(bytes < 0x1p62, "corrupt archive: tile payload out of range");
  return static_cast<std::int64_t>(bytes);
}

/// A TLRA granule parsed in place: its header and a view of each tile's
/// factors inside the granule's bytes (tile_index order).
struct TlrGranule {
  EmbeddedTlrHeader h;
  std::vector<tlr::TileFactors> tiles;
};

/// Parses the TLRA granule that fills `bytes` (read from byte `offset` of
/// `path`): the header as read_tlr_kernel_header checks it, then every
/// tile's factor dims against the rank table (std::invalid_argument). A
/// granule whose rank table does not end it exactly at the end of `bytes`
/// is an extent that does not describe it (std::invalid_argument).
void parse_tlr_granule(std::span<const char> bytes, const std::string& path,
                       std::int64_t offset, TlrGranule& out) {
  ByteReader in(bytes);
  out.h = read_tlr_kernel_header(in, path);
  const tlr::TileGrid& g = out.h.grid;
  TLRWSE_REQUIRE(tile_payload_bytes(out.h) == in.left(),
                 "archive extents do not match ", path, ": the granule at "
                 "byte ", offset, " is not ", bytes.size(), " bytes");
  out.tiles.resize(static_cast<std::size_t>(g.num_tiles()));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      const auto t = static_cast<std::size_t>(g.tile_index(i, j));
      const index_t rank = out.h.ranks[t];
      const tlr::StoragePrecision p = out.h.precision(t);
      const std::int64_t elem = complex_disk_bytes(p);
      tlr::TileFactors& f = out.tiles[t];
      f.packed = tlr::is_half(p);
      f.ldu = g.tile_rows(i);
      f.ldvh = rank;
      // U (tile_rows x rank) then Vh (rank x tile_cols), each after its
      // (rows, cols) header.
      const std::int64_t u_rows = take_i64(in);
      const std::int64_t u_cols = take_i64(in);
      TLRWSE_REQUIRE(u_rows == g.tile_rows(i) && u_cols == rank,
                     "corrupt archive: tile factors mismatch rank table");
      f.u = in.take(u_rows * u_cols * elem);
      const std::int64_t v_rows = take_i64(in);
      const std::int64_t v_cols = take_i64(in);
      TLRWSE_REQUIRE(v_rows == rank && v_cols == g.tile_cols(j),
                     "corrupt archive: tile factors mismatch rank table");
      f.vh = in.take(v_rows * v_cols * elem);
    }
  }
}

/// Reads the granule of extent `e` with one call into `staging`.
std::span<const char> read_granule(std::istream& is, const ShardExtent& e,
                                   std::vector<char>& staging) {
  TLRWSE_REQUIRE(e.bytes >= 0, "archive extents: negative granule size");
  const auto n = static_cast<std::size_t>(e.bytes);
  if (staging.size() < n) staging.resize(n);
  is.seekg(e.offset);
  is.read(staging.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("tlrwse::io: truncated archive");
  return {staging.data(), n};
}

/// A factor copied out of a granule view into a matrix: cf32 bytes as they
/// are, packed half pairs widened through la/half.hpp.
la::MatrixCF copy_factor(const std::byte* src, index_t rows, index_t cols,
                         tlr::StoragePrecision p) {
  la::MatrixCF m(rows, cols);
  const auto n = static_cast<std::size_t>(rows * cols);
  if (!tlr::is_half(p)) {
    if (n > 0) std::memcpy(m.data(), src, n * sizeof(cf32));
    return m;
  }
  const la::HalfFormat fmt = tlr::half_format(p);
  cf32* d = m.data();
  for (std::size_t k = 0; k < n; ++k) {
    std::uint16_t v[2];
    std::memcpy(v, src + k * sizeof(v), sizeof(v));
    d[k] = cf32(la::half_bits_to_f32(v[0], fmt),
                la::half_bits_to_f32(v[1], fmt));
  }
  return m;
}
}  // namespace

KernelArchive build_archive(const seismic::SeismicDataset& data,
                            const tlr::CompressionConfig& compression) {
  KernelArchive archive;
  archive.nt = data.config.nt;
  archive.dt = data.config.dt;
  archive.freq_bins = data.freq_bins;
  archive.freqs_hz = data.freqs_hz;
  const auto dA = static_cast<float>(data.surface_element());
  archive.kernels.reserve(static_cast<std::size_t>(data.num_freqs()));
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    la::MatrixCF K = data.p_down[static_cast<std::size_t>(q)];
    for (index_t j = 0; j < K.cols(); ++j) {
      cf32* col = K.col(j);
      for (index_t i = 0; i < K.rows(); ++i) col[i] *= dA;
    }
    archive.kernels.push_back(tlr::compress_tlr(K, compression));
  }
  return archive;
}

void save_archive(const std::string& path, const KernelArchive& archive) {
  TLRWSE_REQUIRE(archive.freq_bins.size() == archive.kernels.size() &&
                     archive.freqs_hz.size() == archive.kernels.size(),
                 "inconsistent archive metadata");
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("tlrwse::io: cannot write " + path);
  write_u32(os, kArchiveMagic);
  write_u32(os, kFormatVersion);
  write_i64(os, archive.nt);
  write_f64(os, archive.dt);
  write_i64(os, archive.num_freqs());
  for (index_t q = 0; q < archive.num_freqs(); ++q) {
    write_i64(os, archive.freq_bins[static_cast<std::size_t>(q)]);
    write_f64(os, archive.freqs_hz[static_cast<std::size_t>(q)]);
  }
  os.close();
  // Kernels appended as individual TLR containers in side files would
  // complicate deployment; instead re-open and append them to the stream.
  std::ofstream app(path, std::ios::binary | std::ios::app);
  for (index_t q = 0; q < archive.num_freqs(); ++q) {
    // Reuse the TLR container format via a temporary in-memory detour is
    // wasteful; serialize inline with the same layout as save_tlr. Kernels
    // with half tiles write the version-2 container (precision table +
    // packed payloads); all-fp32 kernels stay byte-identical to version 1.
    const auto& m = archive.kernels[static_cast<std::size_t>(q)];
    const bool mixed = m.has_half_tiles();
    write_u32(app, kTlrMagic);
    write_u32(app, mixed ? kFormatVersionMixed : kFormatVersion);
    const auto& g = m.grid();
    write_i64(app, g.rows());
    write_i64(app, g.cols());
    write_i64(app, g.nb());
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) write_i64(app, m.rank(i, j));
    }
    if (mixed) {
      for (index_t j = 0; j < g.nt(); ++j) {
        for (index_t i = 0; i < g.mt(); ++i) {
          const auto tag = static_cast<std::uint8_t>(m.precision(i, j));
          app.write(reinterpret_cast<const char*>(&tag), 1);
        }
      }
    }
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        const auto& t = m.tile(i, j);
        const tlr::StoragePrecision p =
            mixed ? m.precision(i, j) : tlr::StoragePrecision::kFp32;
        write_mat(app, t.U, p);
        write_mat(app, t.Vh, p);
      }
    }
  }
  if (!app) throw std::runtime_error("tlrwse::io: write failed: " + path);
}

namespace {

std::ifstream open_archive(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("tlrwse::io: cannot read " + path);
  return is;
}

/// The one parse of the band-metadata header, for either container
/// format, leaving the stream positioned at the first kernel/band.
ArchiveInfo peek_header(std::istream& is, const std::string& path) {
  const std::uint32_t magic = read_u32(is);
  if (magic != kArchiveMagic && magic != kSharedMagic) {
    throw std::runtime_error("tlrwse::io: bad archive magic in " + path);
  }
  // "TLRA" containers stay at version 1; their kernels carry their own.
  const std::uint32_t version = read_u32(is);
  if (version != kFormatVersion &&
      (version != kFormatVersionMixed || magic != kSharedMagic)) {
    throw std::runtime_error("tlrwse::io: unsupported archive version");
  }
  ArchiveInfo info;
  info.format_version = version;
  info.nt = read_i64(is);
  info.dt = read_f64(is);
  const index_t nf = read_i64(is);
  if (!is) throw std::runtime_error("tlrwse::io: truncated archive header");
  TLRWSE_REQUIRE(nf >= 0, "corrupt archive");
  info.freq_bins.resize(static_cast<std::size_t>(nf));
  info.freqs_hz.resize(static_cast<std::size_t>(nf));
  for (index_t q = 0; q < nf; ++q) {
    info.freq_bins[static_cast<std::size_t>(q)] = read_i64(is);
    info.freqs_hz[static_cast<std::size_t>(q)] = read_f64(is);
  }
  if (magic == kSharedMagic) {
    // The shared header carries the payload size up front so cache
    // admission can budget residency without reading any kernel data.
    info.shared_basis = true;
    info.payload_bytes = read_f64(is);
    info.num_bands = read_i64(is);
    TLRWSE_REQUIRE(info.num_bands >= 0, "corrupt shared archive");
  }
  if (!is) throw std::runtime_error("tlrwse::io: truncated archive header");
  return info;
}

/// One "TLRS" band's header: grid, accuracy, frequency count and (version
/// 2) the band-uniform storage precision.
struct BandHeader {
  tlr::TileGrid grid;
  double acc = 0.0;
  index_t num_freqs = 0;
  tlr::StoragePrecision prec = tlr::StoragePrecision::kFp32;
};

/// `max_freqs` bounds the band's frequency count (what the archive header
/// has left to cover).
BandHeader read_band_header(std::istream& is, const std::string& path,
                            std::uint32_t version, index_t max_freqs) {
  if (read_u32(is) != kBandMagic) {
    throw std::runtime_error("tlrwse::io: bad band magic in " + path);
  }
  const index_t rows = read_i64(is);
  const index_t cols = read_i64(is);
  const index_t nb = read_i64(is);
  const double acc = read_f64(is);
  const index_t band_nf = read_i64(is);
  if (!is) throw std::runtime_error("tlrwse::io: truncated shared archive");
  TLRWSE_REQUIRE(band_nf >= 0 && band_nf <= max_freqs,
                 "corrupt shared archive band");
  TLRWSE_REQUIRE(rows <= kMaxArchiveDim && cols <= kMaxArchiveDim,
                 "corrupt shared archive band: dims out of range");
  tlr::StoragePrecision prec = tlr::StoragePrecision::kFp32;
  if (version == kFormatVersionMixed) {
    std::uint8_t tag{};
    is.read(reinterpret_cast<char*>(&tag), 1);
    if (!is) throw std::runtime_error("tlrwse::io: truncated shared archive");
    TLRWSE_REQUIRE(tlr::valid_precision_tag(tag),
                   "corrupt shared archive: bad precision tag");
    prec = static_cast<tlr::StoragePrecision>(tag);
  }
  return {tlr::TileGrid(rows, cols, nb), acc, band_nf, prec};
}

using Band = tlr::SharedBasisStackedTlr<cf32>;

/// Reads the band whose header `h` was just read. Every band-shared basis
/// is read; only the cores of the band's frequencies [keep_lo, keep_hi)
/// are kept and the others are seeked past, so the trimmed band's
/// per-frequency arithmetic matches the full band's exactly.
Band read_band(std::istream& is, const BandHeader& h, index_t keep_lo,
               index_t keep_hi) {
  const tlr::TileGrid& g = h.grid;
  const auto ntiles = static_cast<std::size_t>(g.num_tiles());
  std::vector<la::MatrixCF> u(ntiles), vh(ntiles);
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      // A shared basis cannot out-rank its tile (orthonormal columns /
      // rows); from_parts re-checks the exact dimensions below.
      const auto t = static_cast<std::size_t>(g.tile_index(i, j));
      u[t] = read_mat(is, g.tile_rows(i), g.tile_rows(i), h.prec);
      vh[t] = read_mat(is, g.tile_cols(j), g.tile_cols(j), h.prec);
    }
  }
  std::vector<std::vector<Band::Core>> cores(
      static_cast<std::size_t>(keep_hi - keep_lo),
      std::vector<Band::Core>(ntiles));
  for (index_t f = 0; f < h.num_freqs; ++f) {
    const bool keep = f >= keep_lo && f < keep_hi;
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        const auto t = static_cast<std::size_t>(g.tile_index(i, j));
        const bool factored = read_u32(is) != 0;
        const index_t rank = read_i64(is);
        if (!is) {
          throw std::runtime_error("tlrwse::io: truncated shared archive");
        }
        if (!keep) {
          (void)skip_mat(is, h.prec);
          if (factored) (void)skip_mat(is, h.prec);
          continue;
        }
        Band::Core& c = cores[static_cast<std::size_t>(f - keep_lo)][t];
        c.factored = factored;
        c.rank = rank;
        // Cores live inside the tile's shared bases, so their dims are
        // bounded by the basis ranks just read (exactness is enforced by
        // from_parts; the bound stops arena-overrun-sized reads).
        const index_t ku = u[t].cols();
        const index_t kv = vh[t].rows();
        if (c.factored) {
          const index_t rmax = std::min(ku, kv);
          c.lr.U = read_mat(is, ku, rmax, h.prec);
          c.lr.Vh = read_mat(is, rmax, kv, h.prec);
        } else {
          c.dense = read_mat(is, ku, kv, h.prec);
        }
      }
    }
  }
  if (!is) throw std::runtime_error("tlrwse::io: truncated shared archive");
  Band band = Band::from_parts(g, h.acc, std::move(u), std::move(vh),
                               std::move(cores));
  // Re-tag the band: the payload values are already rounded, so
  // set_precision is a lossless no-op on the data and restores the
  // precision-aware byte accounting and packed-plan packing.
  if (tlr::is_half(h.prec)) band.set_precision(h.prec);
  return band;
}

}  // namespace

ArchiveInfo peek_archive(const std::string& path) {
  std::ifstream is = open_archive(path);
  return peek_header(is, path);
}

namespace {

/// Size of the file behind `is`, leaving the stream where it was.
std::int64_t stream_bytes(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end = static_cast<std::int64_t>(is.tellg());
  is.seekg(here);
  return end;
}

/// The header-only walk over a "TLRA" container's kernels, from the
/// stream position just past the band-metadata header: validates each
/// kernel header, seeks past its tiles and records its extent.
void walk_tlr_extents(std::istream& is, const std::string& path,
                      ArchiveInfo& info) {
  StreamReader in(is, stream_bytes(is));
  const index_t nf = info.num_freqs();
  info.freq_payload_bytes.assign(static_cast<std::size_t>(nf), 0.0);
  info.extents.reserve(static_cast<std::size_t>(nf));
  double total = 0.0;
  for (index_t q = 0; q < nf; ++q) {
    const auto offset = static_cast<std::int64_t>(is.tellg());
    const EmbeddedTlrHeader h = read_tlr_kernel_header(in, path);
    if (q == 0) {
      info.rows = h.grid.rows();
      info.cols = h.grid.cols();
    }
    const double payload = factor_bytes(h).stored;
    in.skip(tile_payload_bytes(h));
    ShardExtent e;
    e.offset = offset;
    e.bytes = static_cast<std::int64_t>(is.tellg()) - offset;
    e.payload_bytes = payload;
    e.first_freq = q;
    e.num_freqs = 1;
    info.extents.push_back(e);
    info.freq_payload_bytes[static_cast<std::size_t>(q)] = payload;
    total += payload;
  }
  info.payload_bytes = total;
}

}  // namespace

ArchiveInfo peek_archive_extents(const std::string& path) {
  std::ifstream is = open_archive(path);
  ArchiveInfo info = peek_header(is, path);
  if (!info.shared_basis) {
    walk_tlr_extents(is, path, info);
    return info;
  }
  const index_t nf = info.num_freqs();
  info.freq_payload_bytes.assign(static_cast<std::size_t>(nf), 0.0);
  info.extents.reserve(static_cast<std::size_t>(info.num_bands));
  index_t band_start = 0;
  for (index_t bi = 0; bi < info.num_bands; ++bi) {
    const auto offset = static_cast<std::int64_t>(is.tellg());
    const BandHeader h =
        read_band_header(is, path, info.format_version, nf - band_start);
    if (bi == 0) {
      info.rows = h.grid.rows();
      info.cols = h.grid.cols();
    }
    const auto ntiles = static_cast<std::size_t>(h.grid.num_tiles());
    double basis_bytes = 0.0;
    for (std::size_t t = 0; t < 2 * ntiles; ++t) {
      basis_bytes += skip_mat(is, h.prec);
    }
    // Bases are shared by the whole band; amortise them evenly so the
    // per-frequency weights sum to the real resident cost.
    const double basis_share =
        h.num_freqs > 0 ? basis_bytes / static_cast<double>(h.num_freqs)
                        : 0.0;
    double band_payload = basis_bytes;
    for (index_t f = 0; f < h.num_freqs; ++f) {
      double core_bytes = 0.0;
      for (std::size_t t = 0; t < ntiles; ++t) {
        const bool factored = read_u32(is) != 0;
        (void)read_i64(is);
        if (!is) {
          throw std::runtime_error("tlrwse::io: truncated shared archive");
        }
        core_bytes += skip_mat(is, h.prec);
        if (factored) core_bytes += skip_mat(is, h.prec);
      }
      info.freq_payload_bytes[static_cast<std::size_t>(band_start + f)] =
          core_bytes + basis_share;
      band_payload += core_bytes;
    }
    ShardExtent e;
    e.offset = offset;
    e.bytes = static_cast<std::int64_t>(is.tellg()) - offset;
    e.payload_bytes = band_payload;
    e.first_freq = band_start;
    e.num_freqs = h.num_freqs;
    info.extents.push_back(e);
    band_start += h.num_freqs;
  }
  TLRWSE_REQUIRE(band_start == nf,
                 "corrupt shared archive: band frequency counts do not "
                 "cover the header frequency list");
  return info;
}

std::vector<double> archive_kernel_bytes(const std::string& path) {
  return peek_archive_extents(path).freq_payload_bytes;
}

KernelArchive load_archive(const std::string& path) {
  std::ifstream is = open_archive(path);
  ArchiveInfo info = peek_header(is, path);
  if (info.shared_basis) {
    throw std::runtime_error("tlrwse::io: bad archive magic in " + path);
  }
  walk_tlr_extents(is, path, info);
  KernelArchive archive;
  archive.nt = info.nt;
  archive.dt = info.dt;
  archive.freq_bins = info.freq_bins;
  archive.freqs_hz = info.freqs_hz;
  archive.kernels.reserve(static_cast<std::size_t>(info.num_freqs()));
  std::vector<char> staging;
  TlrGranule granule;
  for (const ShardExtent& e : info.extents) {
    parse_tlr_granule(read_granule(is, e, staging), path, e.offset, granule);
    const tlr::TileGrid& g = granule.h.grid;
    std::vector<la::LowRankFactors<cf32>> tiles(
        static_cast<std::size_t>(g.num_tiles()));
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        const auto t = static_cast<std::size_t>(g.tile_index(i, j));
        const index_t rank = granule.h.ranks[t];
        const tlr::StoragePrecision p = granule.h.precision(t);
        tiles[t].U = copy_factor(granule.tiles[t].u, g.tile_rows(i), rank, p);
        tiles[t].Vh = copy_factor(granule.tiles[t].vh, rank, g.tile_cols(j), p);
      }
    }
    tlr::TlrMatrix<cf32> m(g, std::move(tiles));
    if (!granule.h.prec.empty()) m.set_precision_tags(granule.h.prec);
    archive.kernels.push_back(std::move(m));
  }
  return archive;
}

void quantize_archive(KernelArchive& archive,
                      const tlr::MixedPrecisionPolicy& policy) {
  for (auto& k : archive.kernels) k = tlr::quantize_tlr(k, policy).matrix;
}

void quantize_shared_archive(SharedKernelArchive& archive,
                             tlr::StoragePrecision p) {
  for (auto& bp : archive.bands) {
    tlr::SharedBasisStackedTlr<cf32> band = *bp;
    band.set_precision(p);
    bp = std::make_shared<const tlr::SharedBasisStackedTlr<cf32>>(
        std::move(band));
  }
}

std::vector<std::unique_ptr<mdc::FrequencyMvm>> make_kernels(
    const KernelArchive& archive) {
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  kernels.reserve(static_cast<std::size_t>(archive.num_freqs()));
  for (const auto& k : archive.kernels) {
    kernels.push_back(std::make_unique<mdc::TlrMvm>(tlr::StackedTlr<cf32>(k)));
  }
  return kernels;
}

std::unique_ptr<mdc::MdcOperator> make_operator(const KernelArchive& archive) {
  return std::make_unique<mdc::MdcOperator>(archive.nt, archive.freq_bins,
                                            make_kernels(archive));
}

namespace {

/// Splits nf frequencies into consecutive bands of at most band_width
/// (0 = one band). Returns (start, length) pairs.
std::vector<std::pair<index_t, index_t>> split_bands(index_t nf,
                                                     index_t band_width) {
  TLRWSE_REQUIRE(band_width >= 0, "negative band width");
  if (band_width == 0 || band_width >= nf) return {{0, nf}};
  std::vector<std::pair<index_t, index_t>> out;
  for (index_t start = 0; start < nf; start += band_width) {
    out.emplace_back(start, std::min(band_width, nf - start));
  }
  return out;
}

}  // namespace

SharedKernelArchive build_shared_archive(const seismic::SeismicDataset& data,
                                         const tlr::SharedBasisConfig& cfg,
                                         index_t band_width) {
  SharedKernelArchive archive;
  archive.nt = data.config.nt;
  archive.dt = data.config.dt;
  archive.freq_bins = data.freq_bins;
  archive.freqs_hz = data.freqs_hz;
  const auto dA = static_cast<float>(data.surface_element());
  std::vector<la::MatrixCF> scaled;
  scaled.reserve(static_cast<std::size_t>(data.num_freqs()));
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    la::MatrixCF K = data.p_down[static_cast<std::size_t>(q)];
    for (index_t j = 0; j < K.cols(); ++j) {
      cf32* col = K.col(j);
      for (index_t i = 0; i < K.rows(); ++i) col[i] *= dA;
    }
    scaled.push_back(std::move(K));
  }
  for (const auto& [start, len] : split_bands(data.num_freqs(), band_width)) {
    archive.bands.push_back(
        std::make_shared<const tlr::SharedBasisStackedTlr<cf32>>(
            tlr::SharedBasisStackedTlr<cf32>::fit(
                std::span<const la::MatrixCF>(scaled).subspan(
                    static_cast<std::size_t>(start),
                    static_cast<std::size_t>(len)),
                cfg)));
  }
  return archive;
}

SharedKernelArchive shared_from_archive(const KernelArchive& archive,
                                        const tlr::SharedBasisConfig& cfg,
                                        index_t band_width) {
  SharedKernelArchive out;
  out.nt = archive.nt;
  out.dt = archive.dt;
  out.freq_bins = archive.freq_bins;
  out.freqs_hz = archive.freqs_hz;
  for (const auto& [start, len] :
       split_bands(archive.num_freqs(), band_width)) {
    out.bands.push_back(
        std::make_shared<const tlr::SharedBasisStackedTlr<cf32>>(
            tlr::SharedBasisStackedTlr<cf32>::from_tlr(
                std::span<const tlr::TlrMatrix<cf32>>(archive.kernels)
                    .subspan(static_cast<std::size_t>(start),
                             static_cast<std::size_t>(len)),
                cfg)));
  }
  return out;
}

void save_shared_archive(const std::string& path,
                         const SharedKernelArchive& archive) {
  index_t band_freqs = 0;
  for (const auto& b : archive.bands) {
    TLRWSE_REQUIRE(b != nullptr, "shared archive: null band");
    band_freqs += b->num_freqs();
  }
  TLRWSE_REQUIRE(band_freqs == archive.num_freqs() &&
                     archive.freqs_hz.size() == archive.freq_bins.size(),
                 "inconsistent shared archive metadata");
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("tlrwse::io: cannot write " + path);
  // Half-precision bands need the version-2 container (per-band precision
  // byte + packed payloads); all-fp32 archives stay byte-identical to v1.
  bool any_half = false;
  for (const auto& b : archive.bands) {
    if (tlr::is_half(b->precision())) any_half = true;
  }
  write_u32(os, kSharedMagic);
  write_u32(os, any_half ? kFormatVersionMixed : kFormatVersion);
  write_i64(os, archive.nt);
  write_f64(os, archive.dt);
  write_i64(os, archive.num_freqs());
  for (index_t q = 0; q < archive.num_freqs(); ++q) {
    write_i64(os, archive.freq_bins[static_cast<std::size_t>(q)]);
    write_f64(os, archive.freqs_hz[static_cast<std::size_t>(q)]);
  }
  write_f64(os, archive.shared_bytes());
  write_i64(os, archive.num_bands());
  for (const auto& bp : archive.bands) {
    const auto& b = *bp;
    const auto& g = b.grid();
    const tlr::StoragePrecision p = b.precision();
    write_u32(os, kBandMagic);
    write_i64(os, g.rows());
    write_i64(os, g.cols());
    write_i64(os, g.nb());
    write_f64(os, b.acc());
    write_i64(os, b.num_freqs());
    if (any_half) {
      const auto tag = static_cast<std::uint8_t>(p);
      os.write(reinterpret_cast<const char*>(&tag), 1);
    }
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        write_mat(os, b.basis_u(i, j), p);
        write_mat(os, b.basis_vh(i, j), p);
      }
    }
    for (index_t f = 0; f < b.num_freqs(); ++f) {
      for (index_t j = 0; j < g.nt(); ++j) {
        for (index_t i = 0; i < g.mt(); ++i) {
          const auto& c = b.core(f, i, j);
          write_u32(os, c.factored ? 1u : 0u);
          write_i64(os, c.rank);
          if (c.factored) {
            write_mat(os, c.lr.U, p);
            write_mat(os, c.lr.Vh, p);
          } else {
            write_mat(os, c.dense, p);
          }
        }
      }
    }
  }
  if (!os) throw std::runtime_error("tlrwse::io: write failed: " + path);
}

SharedKernelArchive load_shared_archive(const std::string& path) {
  std::ifstream is = open_archive(path);
  const ArchiveInfo info = peek_header(is, path);
  if (!info.shared_basis) {
    throw std::runtime_error("tlrwse::io: bad shared archive magic in " +
                             path);
  }
  SharedKernelArchive archive;
  archive.nt = info.nt;
  archive.dt = info.dt;
  archive.freq_bins = info.freq_bins;
  archive.freqs_hz = info.freqs_hz;
  index_t band_start = 0;  // global index of this band's first frequency
  for (index_t bi = 0; bi < info.num_bands; ++bi) {
    const BandHeader h = read_band_header(is, path, info.format_version,
                                          info.num_freqs() - band_start);
    Band band = read_band(is, h, 0, h.num_freqs);
    band_start += h.num_freqs;
    if (h.num_freqs > 0) {
      archive.bands.push_back(std::make_shared<const Band>(std::move(band)));
    }
  }
  TLRWSE_REQUIRE(band_start == info.num_freqs(),
                 "corrupt shared archive: band frequency counts do not "
                 "cover the header frequency list");
  return archive;
}

std::unique_ptr<mdc::MdcOperator> make_operator(
    const SharedKernelArchive& archive) {
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  kernels.reserve(static_cast<std::size_t>(archive.num_freqs()));
  for (const auto& band : archive.bands) {
    for (auto& k : mdc::make_shared_basis_kernels(*band)) {
      kernels.push_back(std::move(k));
    }
  }
  return std::make_unique<mdc::MdcOperator>(archive.nt, archive.freq_bins,
                                            std::move(kernels));
}

LoadedKernels load_kernels(const std::string& path, const ArchiveInfo& info,
                           index_t q_begin, index_t q_end, LoadState& state) {
  TLRWSE_REQUIRE(info.has_extents(),
                 "load_kernels needs an extents peek (peek_archive_extents)");
  TLRWSE_REQUIRE(q_begin >= 0 && q_begin <= q_end &&
                     q_end <= info.num_freqs(),
                 "archive range [", q_begin, ", ", q_end,
                 ") out of range for ", info.num_freqs(), " frequencies");
  std::ifstream is = open_archive(path);
  const ArchiveInfo head = peek_header(is, path);
  TLRWSE_REQUIRE(head.shared_basis == info.shared_basis &&
                     head.format_version == info.format_version &&
                     head.nt == info.nt && head.freq_bins == info.freq_bins &&
                     head.num_bands == info.num_bands,
                 "archive extents do not match ", path,
                 ": its header differs from the peek's");
  const std::uint32_t granule_magic =
      info.shared_basis ? kBandMagic : kTlrMagic;
  LoadedKernels out;
  out.kernels.reserve(static_cast<std::size_t>(q_end - q_begin));
  TlrGranule granule;
  for (const ShardExtent& e : info.extents) {
    const index_t begin = std::max(q_begin, e.first_freq);
    const index_t end = std::min(q_end, e.first_freq + e.num_freqs);
    if (begin >= end) continue;
    // A granule must start at its recorded offset and end where its
    // extent does; anything else means `info` peeked another file.
    if (!info.shared_basis) {
      // One read of the whole granule, one pass from its bytes into the
      // plan arena — built into storage a dropped kernel handed back
      // when there is some.
      const std::span<const char> bytes = read_granule(is, e, state.staging);
      std::uint32_t magic{};
      if (bytes.size() >= sizeof(magic)) {
        std::memcpy(&magic, bytes.data(), sizeof(magic));
      }
      TLRWSE_REQUIRE(magic == granule_magic, "archive extents do not match ",
                     path, ": no granule at byte ", e.offset);
      parse_tlr_granule(bytes, path, e.offset, granule);
      const FactorBytes fb = factor_bytes(granule.h);
      out.bytes += fb.stored;
      out.fp32_bytes += fb.fp32;
      tlr::MvmPlan::Storage storage;
      if (!state.spare.empty()) {
        storage = std::move(state.spare.back());
        state.spare.pop_back();
      }
      out.kernels.push_back(std::make_unique<mdc::TlrMvm>(
          tlr::MvmPlan(granule.h.grid, granule.h.ranks, granule.h.prec,
                       granule.tiles, std::move(storage))));
      continue;
    }
    is.seekg(e.offset);
    const std::uint32_t magic = read_u32(is);
    TLRWSE_REQUIRE(is && magic == granule_magic,
                   "archive extents do not match ", path,
                   ": no granule at byte ", e.offset);
    is.seekg(e.offset);
    const BandHeader h =
        read_band_header(is, path, info.format_version, e.num_freqs);
    TLRWSE_REQUIRE(h.num_freqs == e.num_freqs,
                   "archive extents do not match ", path, ": band at byte ",
                   e.offset, " holds ", h.num_freqs, " frequencies, not ",
                   e.num_freqs);
    const Band band =
        read_band(is, h, begin - e.first_freq, end - e.first_freq);
    out.bytes += band.shared_bytes();
    out.fp32_bytes += band.fp32_bytes();
    for (auto& k : mdc::make_shared_basis_kernels(band)) {
      out.kernels.push_back(std::move(k));
    }
    TLRWSE_REQUIRE(static_cast<std::int64_t>(is.tellg()) ==
                       e.offset + e.bytes,
                   "archive extents do not match ", path, ": the granule at "
                   "byte ", e.offset, " is not ", e.bytes, " bytes");
  }
  return out;
}

LoadedKernels load_kernels(const std::string& path, const ArchiveInfo& info,
                           index_t q_begin, index_t q_end) {
  LoadState state;
  return load_kernels(path, info, q_begin, q_end, state);
}

std::unique_ptr<mdc::MdcOperator> open_operator(const std::string& path) {
  const ArchiveInfo info = peek_archive_extents(path);
  LoadedKernels loaded = load_kernels(path, info, 0, info.num_freqs());
  return std::make_unique<mdc::MdcOperator>(info.nt, info.freq_bins,
                                            std::move(loaded.kernels));
}

}  // namespace tlrwse::io
