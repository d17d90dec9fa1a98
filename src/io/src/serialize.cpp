#include "tlrwse/io/serialize.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "codec.hpp"
#include "tlrwse/common/error.hpp"

namespace tlrwse::io {

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("tlrwse::io: cannot open for write: " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("tlrwse::io: cannot open for read: " + path);
  return is;
}

}  // namespace

void save_matrix(const std::string& path, const la::MatrixCF& m) {
  auto os = open_out(path);
  codec::put_u32(os, kDenseMagic);
  codec::put_u32(os, kFormatVersion);
  codec::write_matrix(os, m);
  if (!os) throw std::runtime_error("tlrwse::io: write failed: " + path);
}

la::MatrixCF load_matrix(const std::string& path) {
  auto is = open_in(path);
  codec::StreamReader in(is);
  if (codec::get<std::uint32_t>(in) != kDenseMagic) {
    throw std::runtime_error("tlrwse::io: bad magic in " + path);
  }
  if (codec::get<std::uint32_t>(in) != kFormatVersion) {
    throw std::runtime_error("tlrwse::io: unsupported version in " + path);
  }
  const auto rows = codec::get<std::int64_t>(in);
  const auto cols = codec::get<std::int64_t>(in);
  // The payload must fill the rest of the file exactly; checked before the
  // matrix is allocated.
  TLRWSE_REQUIRE(rows >= 0 && cols >= 0 && rows <= codec::kMaxDim &&
                     cols <= codec::kMaxDim &&
                     in.left() % static_cast<std::int64_t>(sizeof(cf32)) == 0 &&
                     rows * cols == in.left() /
                                        static_cast<std::int64_t>(sizeof(cf32)),
                 "corrupt matrix header in ", path, ": ", rows, " x ", cols,
                 " does not fill the ", in.left(), " bytes left");
  la::MatrixCF m(rows, cols);
  in.read(m.data(), in.left());
  return m;
}

void save_tlr(const std::string& path, const tlr::TlrMatrix<cf32>& m) {
  auto os = open_out(path);
  codec::write_tlr_kernel(os, m);
  if (!os) throw std::runtime_error("tlrwse::io: write failed: " + path);
}

tlr::TlrMatrix<cf32> load_tlr(const std::string& path) {
  auto is = open_in(path);
  // The file is one kernel, parsed as a granule that fills it.
  std::vector<char> staging;
  codec::TlrGranule granule;
  codec::parse_tlr_granule(
      codec::read_granule(
          is, 0, static_cast<std::int64_t>(std::filesystem::file_size(path)),
          staging),
      path, 0, granule);
  return codec::to_tlr_matrix(granule);
}

}  // namespace tlrwse::io
