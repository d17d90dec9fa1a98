// Tests for binary serialization and CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "test_helpers.hpp"
#include "tlrwse/io/csv.hpp"
#include "tlrwse/io/serialize.hpp"
#include "tlrwse/la/blas.hpp"
#include "tlrwse/tlr/mixed.hpp"

namespace tlrwse::io {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <class T>
void put(std::string& bytes, T v) {
  bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Every proper prefix of `bytes`, written to `path`, must make `load`
/// throw std::invalid_argument or std::runtime_error — never load, never
/// fail any other way.
template <class Load>
void expect_every_cut_throws(const std::string& path, const std::string& bytes,
                             Load load) {
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_bytes(path, bytes.substr(0, cut));
    try {
      load();
      ADD_FAILURE() << "a file cut at " << cut << " of " << bytes.size()
                    << " bytes loaded";
    } catch (const std::invalid_argument&) {
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SerializeMatrix, RoundTrip) {
  TempFile f("tlrwse_mat.bin");
  Rng rng(3);
  const auto m = tlrwse::testing::random_matrix<cf32>(rng, 17, 9);
  save_matrix(f.path, m);
  const auto back = load_matrix(f.path);
  EXPECT_TRUE(back == m);
}

TEST(SerializeMatrix, EmptyMatrix) {
  TempFile f("tlrwse_empty.bin");
  la::MatrixCF m;
  save_matrix(f.path, m);
  const auto back = load_matrix(f.path);
  EXPECT_EQ(back.rows(), 0);
  EXPECT_EQ(back.cols(), 0);
}

TEST(SerializeMatrix, RejectsBadMagic) {
  TempFile f("tlrwse_bad.bin");
  std::ofstream os(f.path, std::ios::binary);
  os << "not a tlrwse file at all";
  os.close();
  EXPECT_THROW((void)load_matrix(f.path), std::runtime_error);
}

TEST(SerializeMatrix, MissingFileThrows) {
  EXPECT_THROW((void)load_matrix("/nonexistent/nope.bin"), std::runtime_error);
}

TEST(SerializeMatrix, PayloadMustFillTheFile) {
  // A 24-byte header claiming 4096 x 4096 (128 MiB of payload) is rejected
  // before the matrix is allocated.
  TempFile f("tlrwse_mat_header_only.bin");
  std::string header;
  put(header, kDenseMagic);
  put(header, kFormatVersion);
  put(header, std::int64_t{4096});
  put(header, std::int64_t{4096});
  ASSERT_EQ(header.size(), 24u);
  write_bytes(f.path, header);
  EXPECT_THROW((void)load_matrix(f.path), std::invalid_argument);

  // A whole matrix followed by one byte more is not a TLRD file either.
  Rng rng(4);
  save_matrix(f.path, tlrwse::testing::random_matrix<cf32>(rng, 5, 3));
  write_bytes(f.path, read_bytes(f.path) + '\0');
  EXPECT_THROW((void)load_matrix(f.path), std::invalid_argument);
}

TEST(SerializeTlr, RoundTripPreservesTiles) {
  TempFile f("tlrwse_tlr.bin");
  const auto a = tlrwse::testing::oscillatory_matrix<cf32>(50, 34, 9.0);
  tlr::CompressionConfig cfg;
  cfg.nb = 12;
  cfg.acc = 1e-4;
  const auto t = tlr::compress_tlr(a, cfg);
  save_tlr(f.path, t);
  const auto back = load_tlr(f.path);

  EXPECT_EQ(back.rows(), t.rows());
  EXPECT_EQ(back.cols(), t.cols());
  EXPECT_EQ(back.grid().nb(), t.grid().nb());
  for (index_t j = 0; j < t.grid().nt(); ++j) {
    for (index_t i = 0; i < t.grid().mt(); ++i) {
      EXPECT_EQ(back.rank(i, j), t.rank(i, j));
      EXPECT_TRUE(back.tile(i, j).U == t.tile(i, j).U);
      EXPECT_TRUE(back.tile(i, j).Vh == t.tile(i, j).Vh);
    }
  }
  EXPECT_LT(la::frobenius_distance(back.reconstruct(), t.reconstruct()),
            1e-12);
}

TEST(SerializeTlr, WrongContainerMagicRejected) {
  TempFile f("tlrwse_cross.bin");
  Rng rng(5);
  const auto m = tlrwse::testing::random_matrix<cf32>(rng, 4, 4);
  save_matrix(f.path, m);
  EXPECT_THROW((void)load_tlr(f.path), std::runtime_error);
}

TEST(SerializeTlr, TileCountBeyondTheFileRejectedBeforeAllocation) {
  // A 40-byte file: the header of a 16384 x 16384 kernel in 16-wide tiles
  // and the first entry of its rank table. The 2^20 tiles' rank table alone
  // would take 8 MiB; the tile count cannot fit in the 8 bytes left, so it
  // is rejected before anything is allocated for it.
  TempFile f("tlrwse_tlr_header_only.bin");
  std::string header;
  put(header, kTlrMagic);
  put(header, kFormatVersion);
  put(header, std::int64_t{16384});
  put(header, std::int64_t{16384});
  put(header, std::int64_t{16});
  put(header, std::int64_t{16});  // rank of tile (0, 0)
  ASSERT_EQ(header.size(), 40u);
  write_bytes(f.path, header);
  EXPECT_THROW((void)load_tlr(f.path), std::invalid_argument);
}

tlr::TlrMatrix<cf32> small_kernel(bool mixed) {
  const auto a = tlrwse::testing::oscillatory_matrix<cf32>(20, 14, 9.0);
  tlr::CompressionConfig cfg;
  cfg.nb = 6;
  cfg.acc = 1e-4;
  auto t = tlr::compress_tlr(a, cfg);
  if (!mixed) return t;
  tlr::MixedPrecisionPolicy p;
  p.fp16_below = 0.8;
  p.bf16_below = 0.6;
  return tlr::quantize_tlr(t, p).matrix;
}

TEST(SerializeTlr, TrailingBytesRejected) {
  TempFile f("tlrwse_tlr_trailing.bin");
  save_tlr(f.path, small_kernel(false));
  write_bytes(f.path, read_bytes(f.path) + '\0');
  EXPECT_THROW((void)load_tlr(f.path), std::invalid_argument);
}

TEST(SerializeTlr, TruncatedFileThrowsAtEveryCut) {
  TempFile f("tlrwse_tlr_truncated.bin");
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed fp32/fp16/bf16 tiles" : "fp32 tiles");
    const auto t = small_kernel(mixed);
    EXPECT_EQ(t.has_half_tiles(), mixed);
    save_tlr(f.path, t);
    const std::string bytes = read_bytes(f.path);
    EXPECT_NO_THROW((void)load_tlr(f.path));
    expect_every_cut_throws(f.path, bytes, [&] { (void)load_tlr(f.path); });
  }
}

TEST(Csv, WritesHeaderAndRows) {
  TempFile f("tlrwse.csv");
  {
    CsvWriter csv(f.path, {"nb", "acc", "bw"});
    csv.add_row({"70", "1e-4", "92.58"});
    csv.add_row({"25", "1e-4", "87.73"});
    EXPECT_EQ(csv.rows(), 2u);
  }
  std::ifstream is(f.path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "nb,acc,bw");
  std::getline(is, line);
  EXPECT_EQ(line, "70,1e-4,92.58");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RejectsWrongArity) {
  TempFile f("tlrwse_arity.csv");
  CsvWriter csv(f.path, {"a", "b"});
  EXPECT_THROW(csv.add_row({"only"}), std::invalid_argument);
}

}  // namespace
}  // namespace tlrwse::io
