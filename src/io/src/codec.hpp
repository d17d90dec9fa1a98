// The byte encoding of the TLR containers, private to src/io: the scalar
// and matrix writers, the one "TLRT" kernel writer, and the one bounded
// parser of each piece a container is made of — "TLRT" kernels (a .tlr
// file, a TLRA granule), "TLRB" bands (a TLRS granule) and the matrices
// inside them. Files are untrusted input: every count and dimension is
// checked against what the bytes left can hold before anything is
// allocated for it.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tlrwse/io/archive.hpp"
#include "tlrwse/io/serialize.hpp"

namespace tlrwse::io::codec {

inline void put_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void put_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void put_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// One matrix: rows and cols (i64), then the column-major payload — cf32
/// as it is, or at a half precision each element as two packed uint16 (re,
/// im bits). Half values were pre-rounded through la/half.hpp at quantize
/// time, so the packed payload reproduces them bitwise on reload.
void write_matrix(std::ostream& os, const la::MatrixCF& m,
                  tlr::StoragePrecision p = tlr::StoragePrecision::kFp32);

/// One "TLRT" kernel, the whole of a .tlr file and each TLRA granule:
/// magic, version, rows/cols/nb, the rank table, (version 2) one precision
/// tag per tile, then every tile's U and Vh (column-of-tiles-major). An
/// all-fp32 kernel is written as version 1.
void write_tlr_kernel(std::ostream& os, const tlr::TlrMatrix<cf32>& m);

/// Upper bound on any single dimension read from disk.
inline constexpr index_t kMaxDim = index_t{1} << 30;

/// Bounds-checked reads over a granule held whole in memory. Its bytes
/// were read in full, so a read past their end is content that does not
/// fit its frame: std::invalid_argument.
class ByteReader {
 public:
  explicit ByteReader(std::span<const char> bytes) : bytes_(bytes) {}
  /// The next count * size bytes, in place.
  const std::byte* take(std::int64_t count, std::int64_t size = 1) {
    if (count < 0 || count > left() / size) {
      throw std::invalid_argument(
          "tlrwse::io: corrupt container: a field runs past the end of its "
          "granule");
    }
    const auto* p = reinterpret_cast<const std::byte*>(bytes_.data()) + pos_;
    pos_ += count * size;
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

/// The same reads from a file stream, bounded by the file's size, so a
/// header walk validates exactly as a granule parse does; take() seeks past
/// the bytes and hands none back. A read past the end of the file is a
/// truncated file: std::runtime_error.
class StreamReader {
 public:
  explicit StreamReader(std::istream& is) : is_(is) {
    const std::istream::pos_type here = is_.tellg();
    is_.seekg(0, std::ios::end);
    end_ = static_cast<std::int64_t>(is_.tellg());
    is_.seekg(here);
  }
  const std::byte* take(std::int64_t count, std::int64_t size = 1) {
    if (count < 0 || count > left() / size) truncated();
    is_.seekg(count * size, std::ios::cur);
    return nullptr;
  }
  void read(void* dst, std::int64_t n) {
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is_) truncated();
  }
  [[nodiscard]] std::int64_t offset() const {
    return static_cast<std::int64_t>(is_.tellg());
  }
  [[nodiscard]] std::int64_t left() const { return end_ - offset(); }

 private:
  [[noreturn]] static void truncated() {
    throw std::runtime_error("tlrwse::io: truncated file");
  }
  std::istream& is_;
  std::int64_t end_ = 0;
};

/// The next scalar of type T from either reader.
template <class T, class Reader>
T get(Reader& in) {
  T v{};
  in.read(&v, sizeof(v));
  return v;
}

/// Reads `bytes` bytes at `offset` with one call into `staging` (grown,
/// never shrunk), std::runtime_error when the file is shorter.
std::span<const char> read_granule(std::istream& is, std::int64_t offset,
                                   std::int64_t bytes,
                                   std::vector<char>& staging);

/// A "TLRT" kernel's grid, rank table and (version 2) per-tile precision
/// table. The payload's exact size follows from them.
struct TlrKernelHeader {
  tlr::TileGrid grid;
  std::vector<index_t> ranks;               // tile_index order
  std::vector<tlr::StoragePrecision> prec;  // empty = uniform fp32 (v1)

  [[nodiscard]] tlr::StoragePrecision precision(std::size_t t) const {
    return prec.empty() ? tlr::StoragePrecision::kFp32 : prec[t];
  }
};

/// One kernel's factor payload as stored (half tiles packed) and as it
/// would be stored uniformly fp32, summed in tile_index order exactly as
/// TlrMatrix::compressed_bytes() and fp32_bytes() sum them — the residency
/// currency cache admission and stream planning price against.
struct FactorBytes {
  double stored = 0.0;
  double fp32 = 0.0;
};
[[nodiscard]] FactorBytes factor_bytes(const TlrKernelHeader& h);

/// Validates the kernel header at the stream's position and seeks past
/// its tiles. Errors as parse_tlr_granule's header check.
TlrKernelHeader skip_tlr_kernel(StreamReader& in, const std::string& path);

/// A "TLRT" kernel parsed in place: its header and a view of each tile's
/// factors inside the kernel's bytes (tile_index order).
struct TlrGranule {
  TlrKernelHeader h;
  std::vector<tlr::TileFactors> tiles;
};

/// Parses the kernel that fills `bytes` (read from byte `offset` of
/// `path`): std::runtime_error for a bad magic or version,
/// std::invalid_argument for out-of-range dims, ranks or tags, for a tile
/// count whose tables cannot fit in the bytes (checked before they are
/// allocated), for factor dims that disagree with the rank table, and for
/// tiles that do not end the kernel exactly at the end of `bytes`.
void parse_tlr_granule(std::span<const char> bytes, const std::string& path,
                       std::int64_t offset, TlrGranule& out);

/// The kernel's tiles copied out of the granule into a TlrMatrix (half
/// tiles widened, precision tags kept).
[[nodiscard]] tlr::TlrMatrix<cf32> to_tlr_matrix(const TlrGranule& granule);

/// A "TLRB" band's payload bytes from a header walk that seeks past every
/// payload: both shared bases of every tile, and each frequency's cores.
struct BandBytes {
  tlr::TileGrid grid;
  double basis = 0.0;
  std::vector<double> cores;  // one per frequency of the band
};

/// Walks the band at the stream's position (at most `max_freqs`
/// frequencies of a TLRS archive of format `version`), validating every
/// header as parse_band does.
BandBytes skip_band(StreamReader& in, const std::string& path,
                    std::uint32_t version, index_t max_freqs);

/// Parses the band of extent `e` from its bytes, keeping every shared
/// basis and the cores of the band's frequencies [keep_lo, keep_hi) only,
/// so the trimmed band's per-frequency arithmetic matches the full band's
/// exactly. A band that does not hold e.num_freqs frequencies or does not
/// end at the end of `bytes` is one the extent does not describe
/// (std::invalid_argument).
[[nodiscard]] tlr::SharedBasisStackedTlr<cf32> parse_band(
    std::span<const char> bytes, const std::string& path,
    std::uint32_t version, const ShardExtent& e, index_t keep_lo,
    index_t keep_hi);

}  // namespace tlrwse::io::codec
