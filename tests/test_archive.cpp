// Tests for kernel archives: build, round trip, and operator equivalence
// (an operator from a reloaded archive gives the same MDD solution).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "tlrwse/io/archive.hpp"
#include "tlrwse/io/serialize.hpp"
#include "tlrwse/mdd/metrics.hpp"

namespace tlrwse::io {
namespace {

struct TempFile {
  std::string path;
  // The pid keeps concurrent ctest shards of this binary (each TEST runs
  // as its own process) from clobbering each other's fixture files.
  explicit TempFile(const char* name)
      : path((std::filesystem::temp_directory_path() /
              (std::to_string(::getpid()) + "." + name))
                 .string()) {}
  ~TempFile() { std::remove(path.c_str()); }
};

const seismic::SeismicDataset& dataset() {
  static const seismic::SeismicDataset data = [] {
    seismic::DatasetConfig cfg;
    cfg.geometry = seismic::AcquisitionGeometry::small_scale(8, 6, 6, 5);
    cfg.nt = 128;
    cfg.f_min = 4.0;
    cfg.f_max = 40.0;
    return seismic::build_dataset(cfg);
  }();
  return data;
}

tlr::CompressionConfig cc() {
  tlr::CompressionConfig c;
  c.nb = 12;
  c.acc = 1e-4;
  return c;
}

TEST(Archive, BuildHasAllKernelsAndMetadata) {
  const auto& data = dataset();
  const auto archive = build_archive(data, cc());
  EXPECT_EQ(archive.num_freqs(), data.num_freqs());
  EXPECT_EQ(archive.nt, data.config.nt);
  EXPECT_EQ(archive.freq_bins, data.freq_bins);
  EXPECT_GT(archive.compressed_bytes(), 0.0);
  for (const auto& k : archive.kernels) {
    EXPECT_EQ(k.rows(), data.num_sources());
    EXPECT_EQ(k.cols(), data.num_receivers());
  }
}

TEST(Archive, RoundTripPreservesEverything) {
  TempFile f("tlrwse_archive.bin");
  const auto& data = dataset();
  const auto archive = build_archive(data, cc());
  save_archive(f.path, archive);
  const auto back = load_archive(f.path);

  EXPECT_EQ(back.nt, archive.nt);
  EXPECT_DOUBLE_EQ(back.dt, archive.dt);
  EXPECT_EQ(back.freq_bins, archive.freq_bins);
  ASSERT_EQ(back.num_freqs(), archive.num_freqs());
  for (index_t q = 0; q < archive.num_freqs(); ++q) {
    const auto& a = archive.kernels[static_cast<std::size_t>(q)];
    const auto& b = back.kernels[static_cast<std::size_t>(q)];
    ASSERT_EQ(a.grid().nb(), b.grid().nb());
    for (index_t j = 0; j < a.grid().nt(); ++j) {
      for (index_t i = 0; i < a.grid().mt(); ++i) {
        EXPECT_TRUE(a.tile(i, j).U == b.tile(i, j).U);
        EXPECT_TRUE(a.tile(i, j).Vh == b.tile(i, j).Vh);
      }
    }
  }
}

TEST(Archive, ReloadedOperatorSolvesIdentically) {
  TempFile f("tlrwse_archive2.bin");
  const auto& data = dataset();
  const auto archive = build_archive(data, cc());
  save_archive(f.path, archive);
  const auto back = load_archive(f.path);

  const auto op_fresh = make_operator(archive);
  const auto op_back = make_operator(back);

  const index_t v = data.num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 20;
  const auto x1 = mdd::solve_mdd(*op_fresh, rhs, lsqr);
  const auto x2 = mdd::solve_mdd(*op_back, rhs, lsqr);
  ASSERT_EQ(x1.x.size(), x2.x.size());
  for (std::size_t i = 0; i < x1.x.size(); ++i) {
    EXPECT_EQ(x1.x[i], x2.x[i]);  // bit-identical: same kernels, same solver
  }
}

TEST(Archive, MatchesDirectTlrOperator) {
  // The archive path (dA folded at build) equals make_mdc_operator's TLR
  // backend with the same compression settings.
  const auto& data = dataset();
  const auto archive = build_archive(data, cc());
  const auto op_arch = make_operator(archive);
  const auto op_direct =
      mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, cc());
  const index_t v = 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 10;
  const auto a = mdd::solve_mdd(*op_arch, rhs, lsqr);
  const auto b = mdd::solve_mdd(*op_direct, rhs, lsqr);
  EXPECT_LT(mdd::nmse(a.x, b.x), 1e-8);
}

tlr::SharedBasisConfig sc() {
  tlr::SharedBasisConfig c;
  c.nb = 12;
  c.acc = 1e-4;
  return c;
}

TEST(SharedArchive, BuildSplitsBandsAndSaves) {
  const auto& data = dataset();
  const auto archive = build_shared_archive(data, sc(), 4);
  EXPECT_EQ(archive.num_freqs(), data.num_freqs());
  EXPECT_EQ(archive.nt, data.config.nt);
  EXPECT_EQ(archive.freq_bins, data.freq_bins);
  EXPECT_GT(archive.shared_bytes(), 0.0);
  index_t covered = 0;
  for (const auto& b : archive.bands) {
    EXPECT_LE(b->num_freqs(), 4);
    covered += b->num_freqs();
  }
  EXPECT_EQ(covered, archive.num_freqs());
  // band_width 0 = one band across the whole survey.
  const auto one = build_shared_archive(data, sc(), 0);
  EXPECT_EQ(one.num_bands(), 1);
  EXPECT_EQ(one.bands.front()->num_freqs(), data.num_freqs());
}

TEST(SharedArchive, RoundTripIsBitwise) {
  TempFile f("tlrwse_shared_archive.bin");
  const auto& data = dataset();
  const auto archive = build_shared_archive(data, sc(), 3);
  save_shared_archive(f.path, archive);
  const auto back = load_shared_archive(f.path);

  EXPECT_EQ(back.nt, archive.nt);
  EXPECT_DOUBLE_EQ(back.dt, archive.dt);
  EXPECT_EQ(back.freq_bins, archive.freq_bins);
  EXPECT_EQ(back.freqs_hz, archive.freqs_hz);
  ASSERT_EQ(back.num_bands(), archive.num_bands());
  EXPECT_DOUBLE_EQ(back.shared_bytes(), archive.shared_bytes());
  for (index_t b = 0; b < archive.num_bands(); ++b) {
    const auto& x = *archive.bands[static_cast<std::size_t>(b)];
    const auto& y = *back.bands[static_cast<std::size_t>(b)];
    ASSERT_EQ(x.num_freqs(), y.num_freqs());
    ASSERT_EQ(x.grid().nb(), y.grid().nb());
    EXPECT_DOUBLE_EQ(x.acc(), y.acc());
    for (index_t j = 0; j < x.grid().nt(); ++j) {
      for (index_t i = 0; i < x.grid().mt(); ++i) {
        EXPECT_TRUE(x.basis_u(i, j) == y.basis_u(i, j));
        EXPECT_TRUE(x.basis_vh(i, j) == y.basis_vh(i, j));
        for (index_t q = 0; q < x.num_freqs(); ++q) {
          const auto& cx = x.core(q, i, j);
          const auto& cy = y.core(q, i, j);
          ASSERT_EQ(cx.factored, cy.factored);
          EXPECT_EQ(cx.rank, cy.rank);
          if (cx.factored) {
            EXPECT_TRUE(cx.lr.U == cy.lr.U);
            EXPECT_TRUE(cx.lr.Vh == cy.lr.Vh);
          } else {
            EXPECT_TRUE(cx.dense == cy.dense);
          }
        }
      }
    }
  }
}

TEST(SharedArchive, PeekReportsPayloadWithoutLoadingKernels) {
  TempFile f("tlrwse_shared_peek.bin");
  const auto& data = dataset();
  const auto archive = build_shared_archive(data, sc(), 5);
  save_shared_archive(f.path, archive);

  const auto info = peek_archive(f.path);
  EXPECT_TRUE(info.shared_basis);
  EXPECT_EQ(info.num_bands, archive.num_bands());
  // The admission-control byte count equals what the loaded operator will
  // actually charge the cache.
  EXPECT_DOUBLE_EQ(info.payload_bytes, archive.shared_bytes());
  EXPECT_EQ(info.nt, archive.nt);
  EXPECT_EQ(info.freq_bins, archive.freq_bins);
  EXPECT_EQ(info.freqs_hz, archive.freqs_hz);

  // A per-frequency archive keeps the defaults.
  TempFile g("tlrwse_per_freq_peek.bin");
  save_archive(g.path, build_archive(data, cc()));
  const auto plain = peek_archive(g.path);
  EXPECT_FALSE(plain.shared_basis);
  EXPECT_EQ(plain.num_bands, 0);
}

TEST(SharedArchive, ReloadedOperatorSolvesIdentically) {
  TempFile f("tlrwse_shared_archive2.bin");
  const auto& data = dataset();
  const auto archive = build_shared_archive(data, sc(), 4);
  save_shared_archive(f.path, archive);
  const auto back = load_shared_archive(f.path);

  const auto op_fresh = make_operator(archive);
  const auto op_back = make_operator(back);
  EXPECT_EQ(op_fresh->num_freqs(), data.num_freqs());

  const index_t v = data.num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 20;
  const auto x1 = mdd::solve_mdd(*op_fresh, rhs, lsqr);
  const auto x2 = mdd::solve_mdd(*op_back, rhs, lsqr);
  ASSERT_EQ(x1.x.size(), x2.x.size());
  for (std::size_t i = 0; i < x1.x.size(); ++i) {
    EXPECT_EQ(x1.x[i], x2.x[i]);  // bitwise round trip -> bitwise solve
  }
}

TEST(SharedArchive, MatchesPerFrequencyOperator) {
  // Both formats approximate the same kernels at the same tolerance, so
  // their MDD solutions agree to solver precision.
  const auto& data = dataset();
  const auto shared = build_shared_archive(data, sc(), 4);
  const auto op_shared = make_operator(shared);
  const auto op_plain = make_operator(build_archive(data, cc()));
  const index_t v = 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 10;
  const auto a = mdd::solve_mdd(*op_shared, rhs, lsqr);
  const auto b = mdd::solve_mdd(*op_plain, rhs, lsqr);
  EXPECT_LT(mdd::nmse(a.x, b.x), 1e-4);
}

TEST(SharedArchive, ConversionFromPerFrequencyArchive) {
  const auto& data = dataset();
  // Tight per-frequency compression so the refit input is near-exact.
  auto tight = cc();
  tight.acc = 1e-6;
  const auto plain = build_archive(data, tight);
  const auto shared = shared_from_archive(plain, sc(), 4);
  EXPECT_EQ(shared.num_freqs(), plain.num_freqs());
  EXPECT_EQ(shared.nt, plain.nt);

  const auto op_shared = make_operator(shared);
  const auto op_plain = make_operator(plain);
  const index_t v = 1;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 10;
  const auto a = mdd::solve_mdd(*op_shared, rhs, lsqr);
  const auto b = mdd::solve_mdd(*op_plain, rhs, lsqr);
  EXPECT_LT(mdd::nmse(a.x, b.x), 1e-4);
}

TEST(SharedArchive, TruncatedFileThrows) {
  // A stream failure anywhere — mid-header, mid-matrix, one byte short —
  // must throw, never hand back silently-garbage factors.
  TempFile f("tlrwse_shared_truncated.bin");
  const auto& data = dataset();
  const auto archive = build_shared_archive(data, sc(), 4);
  save_shared_archive(f.path, archive);
  std::string bytes;
  {
    std::ifstream is(f.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 64u);
  std::vector<std::size_t> cuts = {16, bytes.size() / 3,
                                   (2 * bytes.size()) / 3, bytes.size() - 1};
  // One byte either side of where each band starts and ends.
  const ArchiveInfo info = peek_archive_extents(f.path);
  ASSERT_EQ(info.extents.size(), static_cast<std::size_t>(archive.num_bands()));
  for (const ShardExtent& e : info.extents) {
    for (const std::int64_t edge : {e.offset, e.offset + e.bytes}) {
      for (const std::int64_t cut : {edge - 1, edge + 1}) {
        if (cut < static_cast<std::int64_t>(bytes.size())) {
          cuts.push_back(static_cast<std::size_t>(cut));
        }
      }
    }
  }
  for (const std::size_t cut : cuts) {
    std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(cut));
    os.close();
    try {
      (void)load_shared_archive(f.path);
      ADD_FAILURE() << "cut at " << cut << " loaded";
    } catch (const std::invalid_argument&) {
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SharedArchive, CorruptDimensionsRejectedBeforeAllocation) {
  // On-disk dimensions are untrusted: absurd values must be rejected by
  // the bound checks before any allocation is attempted.
  TempFile f("tlrwse_shared_corrupt_dims.bin");
  const auto& data = dataset();
  const auto archive = build_shared_archive(data, sc(), 4);
  save_shared_archive(f.path, archive);
  std::string bytes;
  {
    std::ifstream is(f.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  // Header: magic(4) version(4) nt(8) dt(8) nf(8) + nf*(bin 8 + hz 8)
  //         + payload(8) + num_bands(8); then band magic(4) rows(8) ...
  const auto nf = static_cast<std::size_t>(archive.num_freqs());
  const std::size_t band_start = 48 + 16 * nf;
  auto write_patched = [&](std::size_t off, std::int64_t v) {
    ASSERT_LE(off + sizeof(v), bytes.size());
    std::string patched = bytes;
    std::memcpy(patched.data() + off, &v, sizeof(v));
    std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
    os.write(patched.data(), static_cast<std::streamsize>(patched.size()));
  };
  // Band grid rows blown up past any sane matrix dimension.
  write_patched(band_start + 4, std::int64_t{1} << 40);
  EXPECT_THROW((void)load_shared_archive(f.path), std::invalid_argument);
  // First shared-basis matrix claims more rows than its tile has.
  write_patched(band_start + 44, std::int64_t{1} << 40);
  EXPECT_THROW((void)load_shared_archive(f.path), std::invalid_argument);
}

tlr::MixedPrecisionPolicy all_fp16() {
  tlr::MixedPrecisionPolicy p;
  p.fp16_below = 2.0;  // every tile's relative norm is <= 1
  p.bf16_below = 0.0;
  return p;
}

TEST(MixedArchive, HalfRoundTripIsBitwise) {
  // A quantized archive's values are pre-rounded through la/half.hpp, so
  // the packed v2 payload must reload them bit-exactly, tags included.
  TempFile f("tlrwse_half_archive.bin");
  const auto& data = dataset();
  auto archive = build_archive(data, cc());
  const double fp32_bytes = archive.compressed_bytes();
  quantize_archive(archive, all_fp16());
  EXPECT_NEAR(archive.compressed_bytes(), fp32_bytes / 2.0,
              1e-6 * fp32_bytes);
  save_archive(f.path, archive);
  const auto back = load_archive(f.path);
  ASSERT_EQ(back.num_freqs(), archive.num_freqs());
  EXPECT_DOUBLE_EQ(back.compressed_bytes(), archive.compressed_bytes());
  for (index_t q = 0; q < archive.num_freqs(); ++q) {
    const auto& a = archive.kernels[static_cast<std::size_t>(q)];
    const auto& b = back.kernels[static_cast<std::size_t>(q)];
    for (index_t j = 0; j < a.grid().nt(); ++j) {
      for (index_t i = 0; i < a.grid().mt(); ++i) {
        EXPECT_EQ(b.precision(i, j), tlr::StoragePrecision::kFp16);
        EXPECT_TRUE(a.tile(i, j).U == b.tile(i, j).U);
        EXPECT_TRUE(a.tile(i, j).Vh == b.tile(i, j).Vh);
      }
    }
  }
}

TEST(MixedArchive, AllFp32ArchiveStaysLegacyVersion1) {
  // Writers emit the legacy v1 container when nothing is half, so archives
  // produced before the mixed format existed and archives written today
  // are byte-identical — old readers keep working on new fp32 files.
  TempFile f("tlrwse_legacy_archive.bin");
  const auto& data = dataset();
  const auto archive = build_archive(data, cc());
  save_archive(f.path, archive);
  std::ifstream is(f.path, std::ios::binary);
  // First embedded kernel's version field sits after the band-metadata
  // header: magic(4) version(4) nt(8) dt(8) nf(8) + nf*(bin 8 + hz 8).
  const auto nf = static_cast<std::size_t>(archive.num_freqs());
  is.seekg(static_cast<std::streamoff>(32 + 16 * nf + 4));
  std::uint32_t kernel_version{};
  is.read(reinterpret_cast<char*>(&kernel_version), 4);
  EXPECT_EQ(kernel_version, 1u);
  const auto back = load_archive(f.path);
  EXPECT_DOUBLE_EQ(back.compressed_bytes(), archive.compressed_bytes());
}

TEST(MixedArchive, ReloadedHalfOperatorSolvesIdentically) {
  TempFile f("tlrwse_half_archive2.bin");
  const auto& data = dataset();
  auto archive = build_archive(data, cc());
  quantize_archive(archive, all_fp16());
  save_archive(f.path, archive);
  const auto back = load_archive(f.path);

  const auto op_fresh = make_operator(archive);
  const auto op_back = make_operator(back);
  const index_t v = data.num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 20;
  const auto x1 = mdd::solve_mdd(*op_fresh, rhs, lsqr);
  const auto x2 = mdd::solve_mdd(*op_back, rhs, lsqr);
  ASSERT_EQ(x1.x.size(), x2.x.size());
  for (std::size_t i = 0; i < x1.x.size(); ++i) {
    EXPECT_EQ(x1.x[i], x2.x[i]);  // packed reload is lossless -> bitwise
  }
}

TEST(MixedArchive, ExtentsPriceHalfPayloadAtPackedBytes) {
  // The extents peek must price fp16 kernels at their true packed bytes —
  // this is what makes cache admission and stream planning see the ~2x
  // capacity win without any serve/oocache changes.
  TempFile f32("tlrwse_extents_fp32.bin"), f16("tlrwse_extents_fp16.bin");
  const auto& data = dataset();
  auto archive = build_archive(data, cc());
  save_archive(f32.path, archive);
  quantize_archive(archive, all_fp16());
  save_archive(f16.path, archive);

  const auto info32 = peek_archive_extents(f32.path);
  const auto info16 = peek_archive_extents(f16.path);
  EXPECT_DOUBLE_EQ(info16.payload_bytes, archive.compressed_bytes());
  EXPECT_NEAR(info16.payload_bytes, info32.payload_bytes / 2.0,
              1e-6 * info32.payload_bytes);
  ASSERT_EQ(info16.freq_payload_bytes.size(), info32.freq_payload_bytes.size());
  for (std::size_t q = 0; q < info16.freq_payload_bytes.size(); ++q) {
    EXPECT_NEAR(info16.freq_payload_bytes[q],
                info32.freq_payload_bytes[q] / 2.0,
                1e-6 * info32.freq_payload_bytes[q]);
  }
}

TEST(MixedArchive, TruncatedHalfArchiveThrows) {
  // The hostile-loader sweep of the fp32 path, rerun over a packed file:
  // a cut anywhere must throw, never hand back silently-garbage factors.
  TempFile f("tlrwse_half_truncated.bin");
  const auto& data = dataset();
  auto archive = build_archive(data, cc());
  quantize_archive(archive, all_fp16());
  save_archive(f.path, archive);
  std::string bytes;
  {
    std::ifstream is(f.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 64u);
  for (const std::size_t cut : {std::size_t{16}, bytes.size() / 3,
                                (2 * bytes.size()) / 3, bytes.size() - 1}) {
    std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(cut));
    os.close();
    EXPECT_THROW((void)load_archive(f.path), std::exception)
        << "cut at " << cut;
  }
}

TEST(MixedArchive, CorruptPrecisionTagRejected) {
  // On-disk precision tags are untrusted: a tag outside {0, 1, 2} must be
  // rejected before any payload is interpreted at the wrong width.
  TempFile f("tlrwse_half_bad_tag.bin");
  const auto& data = dataset();
  auto archive = build_archive(data, cc());
  quantize_archive(archive, all_fp16());
  save_archive(f.path, archive);
  std::string bytes;
  {
    std::ifstream is(f.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  // First kernel's precision table follows its rank table: band header
  // (32 + 16*nf) + kernel header (magic 4, version 4, rows/cols/nb 24)
  // + mt*nt ranks of 8 bytes.
  const auto nf = static_cast<std::size_t>(archive.num_freqs());
  const auto& g = archive.kernels.front().grid();
  const auto tiles = static_cast<std::size_t>(g.mt() * g.nt());
  const std::size_t tag_off = 32 + 16 * nf + 32 + 8 * tiles;
  ASSERT_LT(tag_off, bytes.size());
  bytes[tag_off] = 7;  // not a StoragePrecision
  {
    std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)load_archive(f.path), std::exception);
}

TEST(MixedSharedArchive, QuantizedBandRoundTripIsBitwise) {
  // Shared-basis archives quantize band-uniformly; the v2 container must
  // reload bases AND cores bit-exactly at the halved byte price.
  TempFile f("tlrwse_shared_half.bin");
  const auto& data = dataset();
  auto archive = build_shared_archive(data, sc(), 3);
  const double fp32_bytes = archive.shared_bytes();
  quantize_shared_archive(archive, tlr::StoragePrecision::kFp16);
  EXPECT_NEAR(archive.shared_bytes(), fp32_bytes / 2.0, 1e-6 * fp32_bytes);
  save_shared_archive(f.path, archive);

  const auto info = peek_archive(f.path);
  EXPECT_EQ(info.format_version, 2u);
  EXPECT_DOUBLE_EQ(info.payload_bytes, archive.shared_bytes());

  const auto back = load_shared_archive(f.path);
  ASSERT_EQ(back.num_bands(), archive.num_bands());
  EXPECT_DOUBLE_EQ(back.shared_bytes(), archive.shared_bytes());
  for (index_t b = 0; b < archive.num_bands(); ++b) {
    const auto& x = *archive.bands[static_cast<std::size_t>(b)];
    const auto& y = *back.bands[static_cast<std::size_t>(b)];
    EXPECT_EQ(y.precision(), tlr::StoragePrecision::kFp16);
    for (index_t j = 0; j < x.grid().nt(); ++j) {
      for (index_t i = 0; i < x.grid().mt(); ++i) {
        EXPECT_TRUE(x.basis_u(i, j) == y.basis_u(i, j));
        EXPECT_TRUE(x.basis_vh(i, j) == y.basis_vh(i, j));
        for (index_t q = 0; q < x.num_freqs(); ++q) {
          const auto& cx = x.core(q, i, j);
          const auto& cy = y.core(q, i, j);
          ASSERT_EQ(cx.factored, cy.factored);
          if (cx.factored) {
            EXPECT_TRUE(cx.lr.U == cy.lr.U);
            EXPECT_TRUE(cx.lr.Vh == cy.lr.Vh);
          } else {
            EXPECT_TRUE(cx.dense == cy.dense);
          }
        }
      }
    }
  }

  // And the reloaded operator solves bitwise like the in-memory one.
  const auto op_fresh = make_operator(archive);
  const auto op_back = make_operator(back);
  const index_t v = data.num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 15;
  const auto x1 = mdd::solve_mdd(*op_fresh, rhs, lsqr);
  const auto x2 = mdd::solve_mdd(*op_back, rhs, lsqr);
  ASSERT_EQ(x1.x.size(), x2.x.size());
  for (std::size_t i = 0; i < x1.x.size(); ++i) {
    EXPECT_EQ(x1.x[i], x2.x[i]);
  }
}

// ------------------------------------------------ format-blind loader --

struct LoaderCase {
  const char* name;
  bool shared;  // TLRS with 4-wide bands, else TLRA
  tlr::StoragePrecision precision;
  /// TLRA only: per-tile fp32/fp16/bf16 tags instead of `precision`.
  bool mixed = false;
  /// TLRA only: ragged tiles in both dimensions, a third of them rank 0.
  bool ragged = false;
};

void PrintTo(const LoaderCase& c, std::ostream* os) { *os << c.name; }

tlr::MixedPrecisionPolicy all_bf16() {
  tlr::MixedPrecisionPolicy p;
  p.fp16_below = 0.0;
  p.bf16_below = 2.0;  // every tile's relative norm is <= 1
  return p;
}

/// Tags the kernels' tiles with all three precisions: the strongest keep
/// fp32, the weakest go bf16.
tlr::MixedPrecisionPolicy mixed_policy() {
  tlr::MixedPrecisionPolicy p;
  p.fp16_below = 0.8;
  p.bf16_below = 0.6;
  return p;
}

/// `k` with every third tile (staggered by `q`) cut to rank 0.
tlr::TlrMatrix<cf32> with_zero_rank_tiles(const tlr::TlrMatrix<cf32>& k,
                                          index_t q) {
  const tlr::TileGrid& g = k.grid();
  std::vector<la::LowRankFactors<cf32>> tiles(
      static_cast<std::size_t>(g.num_tiles()));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      auto& t = tiles[static_cast<std::size_t>(g.tile_index(i, j))];
      if ((i + j + q) % 3 == 0) {
        t.U = la::MatrixCF(g.tile_rows(i), 0);
        t.Vh = la::MatrixCF(0, g.tile_cols(j));
      } else {
        t = k.tile(i, j);
      }
    }
  }
  return tlr::TlrMatrix<cf32>(g, std::move(tiles));
}

/// The case's archive at accuracy `acc`, saved to `path`.
void save_case(const LoaderCase& c, double acc, const std::string& path) {
  if (c.shared) {
    tlr::SharedBasisConfig cfg = sc();
    cfg.acc = acc;
    auto archive = build_shared_archive(dataset(), cfg, 4);
    quantize_shared_archive(archive, c.precision);
    save_shared_archive(path, archive);
  } else {
    tlr::CompressionConfig cfg = cc();
    cfg.acc = acc;
    if (c.ragged) cfg.nb = 11;  // 48 x 30 kernels: 4 + 4 rows, 8 cols left
    auto archive = build_archive(dataset(), cfg);
    if (c.ragged) {
      for (index_t q = 0; q < archive.num_freqs(); ++q) {
        auto& k = archive.kernels[static_cast<std::size_t>(q)];
        k = with_zero_rank_tiles(k, q);
      }
    }
    if (c.mixed) {
      quantize_archive(archive, mixed_policy());
    } else if (c.precision == tlr::StoragePrecision::kFp16) {
      quantize_archive(archive, all_fp16());
    } else if (c.precision == tlr::StoragePrecision::kBf16) {
      quantize_archive(archive, all_bf16());
    }
    save_archive(path, archive);
  }
}

using Band = tlr::SharedBasisStackedTlr<cf32>;

/// Frequencies [lo, hi) of a band, built here from its parts.
Band trimmed(const Band& b, index_t lo, index_t hi) {
  const tlr::TileGrid& g = b.grid();
  const auto ntiles = static_cast<std::size_t>(g.num_tiles());
  std::vector<la::MatrixCF> u(ntiles), vh(ntiles);
  std::vector<std::vector<Band::Core>> cores(
      static_cast<std::size_t>(hi - lo), std::vector<Band::Core>(ntiles));
  for (index_t j = 0; j < g.nt(); ++j) {
    for (index_t i = 0; i < g.mt(); ++i) {
      const auto t = static_cast<std::size_t>(g.tile_index(i, j));
      u[t] = b.basis_u(i, j);
      vh[t] = b.basis_vh(i, j);
      for (index_t f = lo; f < hi; ++f) {
        cores[static_cast<std::size_t>(f - lo)][t] = b.core(f, i, j);
      }
    }
  }
  Band out = Band::from_parts(g, b.acc(), std::move(u), std::move(vh),
                              std::move(cores));
  out.set_precision(b.precision());
  return out;
}

bool bitwise_equal(const std::vector<cf32>& a, const std::vector<cf32>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cf32)) == 0;
}

/// apply, apply_adjoint and a 4-RHS apply_batch of `got` must equal
/// those of `want` bit for bit.
void expect_same_kernel(const mdc::FrequencyMvm& want,
                        const mdc::FrequencyMvm& got, index_t q) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  constexpr index_t kRhs = 4;
  const auto m = static_cast<std::size_t>(want.rows());
  const auto n = static_cast<std::size_t>(want.cols());
  std::vector<cf32> x(kRhs * n), y(kRhs * m);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = cf32(std::sin(0.37f * static_cast<float>(k + q)),
                std::cos(0.11f * static_cast<float>(k)));
  }
  for (std::size_t k = 0; k < y.size(); ++k) {
    y[k] = cf32(std::cos(0.23f * static_cast<float>(k + q)),
                std::sin(0.05f * static_cast<float>(k)));
  }
  mdc::FrequencyWorkspace ws;
  std::vector<cf32> a(m), b(m), c(n), d(n), e(kRhs * m), f(kRhs * m);
  want.apply(std::span<const cf32>(x).first(n), a, ws);
  got.apply(std::span<const cf32>(x).first(n), b, ws);
  EXPECT_TRUE(bitwise_equal(a, b)) << "apply, frequency " << q;
  want.apply_adjoint(std::span<const cf32>(y).first(m), c, ws);
  got.apply_adjoint(std::span<const cf32>(y).first(m), d, ws);
  EXPECT_TRUE(bitwise_equal(c, d)) << "apply_adjoint, frequency " << q;
  want.apply_batch(x, e, kRhs, ws);
  got.apply_batch(x, f, kRhs, ws);
  EXPECT_TRUE(bitwise_equal(e, f)) << "apply_batch, frequency " << q;
}

class LoadKernelsRange : public ::testing::TestWithParam<LoaderCase> {};

TEST_P(LoadKernelsRange, EveryRangeIsBitwiseAndPricedPerGranule) {
  const LoaderCase& c = GetParam();
  TempFile file("tlrwse_load_kernels.bin"), other("tlrwse_load_other.bin");
  save_case(c, 1e-4, file.path);
  save_case(c, 1e-2, other.path);
  const ArchiveInfo info = peek_archive_extents(file.path);
  const ArchiveInfo other_info = peek_archive_extents(other.path);
  const index_t nf = info.num_freqs();
  ASSERT_GE(nf, 5);

  // The full-load reference: kernels and each whole granule's figures.
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> full;
  SharedKernelArchive shared;
  KernelArchive plain;
  if (c.shared) {
    shared = load_shared_archive(file.path);
    ASSERT_EQ(shared.num_bands(), static_cast<index_t>(info.extents.size()));
    for (const auto& band : shared.bands) {
      for (auto& k : mdc::make_shared_basis_kernels(*band)) {
        full.push_back(std::move(k));
      }
    }
  } else {
    plain = load_archive(file.path);
    full = make_kernels(plain);
  }
  ASSERT_EQ(static_cast<index_t>(full.size()), nf);

  if (c.mixed || c.ragged) {
    // The tags split stacks into precision runs, and rank-0 tiles sit
    // inside them.
    std::array<int, 3> tags{};
    int zero_rank = 0;
    for (const auto& k : plain.kernels) {
      for (index_t j = 0; j < k.grid().nt(); ++j) {
        for (index_t i = 0; i < k.grid().mt(); ++i) {
          ++tags[static_cast<std::size_t>(k.precision(i, j))];
          zero_rank += k.rank(i, j) == 0 ? 1 : 0;
        }
      }
    }
    for (const int n : tags) {
      EXPECT_GT(n, 0) << "fp32/fp16/bf16 tiles: " << tags[0] << "/" << tags[1]
                      << "/" << tags[2];
    }
    EXPECT_EQ(zero_rank > 0, c.ragged);
  }

  // One load state across every range, fed back the storage of the kernels
  // each range built: later ranges build into recycled arenas.
  LoadState state;
  for (index_t q0 = 0; q0 < nf; ++q0) {
    for (index_t q1 = q0 + 1; q1 <= nf; ++q1) {
      SCOPED_TRACE(testing::Message() << "range [" << q0 << ", " << q1 << ")");
      LoadedKernels got = load_kernels(file.path, info, q0, q1, state);
      ASSERT_EQ(static_cast<index_t>(got.kernels.size()), q1 - q0);
      for (index_t q = q0; q < q1; ++q) {
        expect_same_kernel(*full[static_cast<std::size_t>(q)],
                           *got.kernels[static_cast<std::size_t>(q - q0)], q);
      }
      for (auto& k : got.kernels) {
        if (auto* t = dynamic_cast<mdc::TlrMvm*>(k.get())) {
          state.spare.push_back(std::move(*t).release_storage());
        }
      }
      EXPECT_EQ(state.spare.empty(), c.shared);
      state.spare.resize(std::min<std::size_t>(state.spare.size(), 2));
      double bytes = 0.0, fp32_bytes = 0.0;
      for (std::size_t g = 0; g < info.extents.size(); ++g) {
        const ShardExtent& e = info.extents[g];
        const index_t lo = std::max(q0, e.first_freq);
        const index_t hi = std::min(q1, e.first_freq + e.num_freqs);
        if (lo >= hi) continue;
        if (c.shared) {
          const Band part = trimmed(*shared.bands[g], lo - e.first_freq,
                                    hi - e.first_freq);
          bytes += part.shared_bytes();
          fp32_bytes += part.fp32_bytes();
        } else {
          bytes += plain.kernels[g].compressed_bytes();
          fp32_bytes += plain.kernels[g].fp32_bytes();
        }
      }
      EXPECT_EQ(got.bytes, bytes);
      EXPECT_EQ(got.fp32_bytes, fp32_bytes);
      // An extents peek of another file never passes for this one.
      EXPECT_THROW((void)load_kernels(file.path, other_info, q0, q1),
                   std::invalid_argument);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, LoadKernelsRange,
    ::testing::Values(
        LoaderCase{"TlraFp32", false, tlr::StoragePrecision::kFp32},
        LoaderCase{"TlraFp16", false, tlr::StoragePrecision::kFp16},
        LoaderCase{"TlraBf16", false, tlr::StoragePrecision::kBf16},
        LoaderCase{"TlraMixed", false, tlr::StoragePrecision::kFp32, true},
        LoaderCase{"TlraRaggedZeroRank", false, tlr::StoragePrecision::kFp32,
                   true, true},
        LoaderCase{"TlrsFp32", true, tlr::StoragePrecision::kFp32},
        LoaderCase{"TlrsBf16", true, tlr::StoragePrecision::kBf16}),
    [](const ::testing::TestParamInfo<LoaderCase>& p) {
      return std::string(p.param.name);
    });

TEST(OpenOperator, SharedArchiveMatchesWholeLoadBitwise) {
  // The resident CLI and serve paths open a TLRS archive through here.
  TempFile f("tlrwse_open_operator.tlrs");
  save_shared_archive(f.path, build_shared_archive(dataset(), sc(), 4));
  const auto opened = open_operator(f.path);
  const auto loaded = make_operator(load_shared_archive(f.path));
  ASSERT_EQ(opened->rows(), loaded->rows());
  ASSERT_EQ(opened->cols(), loaded->cols());
  std::vector<float> x(static_cast<std::size_t>(loaded->cols()));
  std::vector<float> y(static_cast<std::size_t>(loaded->rows()));
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = std::sin(0.01f * static_cast<float>(k));
  }
  for (std::size_t k = 0; k < y.size(); ++k) {
    y[k] = std::cos(0.02f * static_cast<float>(k));
  }
  std::vector<float> a(y.size()), b(y.size()), c(x.size()), d(x.size());
  opened->apply(x, a);
  loaded->apply(x, b);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  opened->apply_adjoint(y, c);
  loaded->apply_adjoint(y, d);
  EXPECT_EQ(std::memcmp(c.data(), d.data(), c.size() * sizeof(float)), 0);
}

TEST(Archive, EachGranuleIsItsKernelsTlrFile) {
  // One kernel container: a kernel saved alone with save_tlr is byte for
  // byte its granule in the archive, at fp32 (version 1) and with mixed
  // fp32/fp16/bf16 tiles (version 2).
  TempFile archive_file("tlrwse_pinned_archive.tlra");
  TempFile kernel_file("tlrwse_pinned_kernel.tlr");
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed tiles" : "fp32 tiles");
    auto archive = build_archive(dataset(), cc());
    if (mixed) quantize_archive(archive, mixed_policy());
    save_archive(archive_file.path, archive);
    std::string bytes;
    {
      std::ifstream is(archive_file.path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    const ArchiveInfo info = peek_archive_extents(archive_file.path);
    ASSERT_EQ(info.num_freqs(), archive.num_freqs());
    for (index_t q = 0; q < archive.num_freqs(); ++q) {
      const auto& k = archive.kernels[static_cast<std::size_t>(q)];
      EXPECT_EQ(k.has_half_tiles(), mixed);
      save_tlr(kernel_file.path, k);
      std::ifstream is(kernel_file.path, std::ios::binary);
      const std::string kernel{std::istreambuf_iterator<char>(is), {}};
      const ShardExtent& e = info.extents[static_cast<std::size_t>(q)];
      EXPECT_TRUE(kernel == bytes.substr(static_cast<std::size_t>(e.offset),
                                         static_cast<std::size_t>(e.bytes)))
          << "frequency " << q;
    }
  }
}

TEST(Archive, TileCountBeyondTheFileRejectedBeforeAllocation) {
  // An 80-byte archive: one frequency, then a kernel header of 2^30 x 2^30
  // in 2^16 tiles, i.e. 2^28 tiles whose rank table alone would take 2 GiB.
  // The tile count cannot fit in the 0 bytes left, so the header walk
  // rejects it before allocating anything.
  TempFile f("tlrwse_huge_tile_count.tlra");
  {
    std::ofstream os(f.path, std::ios::binary);
    auto put = [&](auto v) {
      os.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(std::uint32_t{0x544C5241});  // "TLRA"
    put(kFormatVersion);
    put(std::int64_t{128});  // nt
    put(0.004);              // dt
    put(std::int64_t{1});    // one frequency: bin, Hz
    put(std::int64_t{3});
    put(12.0);
    put(kTlrMagic);
    put(kFormatVersion);
    put(std::int64_t{1} << 30);  // rows
    put(std::int64_t{1} << 30);  // cols
    put(std::int64_t{1} << 16);  // nb
  }
  ASSERT_EQ(std::filesystem::file_size(f.path), 80u);
  EXPECT_THROW((void)peek_archive_extents(f.path), std::invalid_argument);
  EXPECT_THROW((void)load_archive(f.path), std::invalid_argument);
}

TEST(Archive, RejectsCorruptFiles) {
  TempFile f("tlrwse_bad_archive.bin");
  {
    std::ofstream os(f.path, std::ios::binary);
    os << "garbage";
  }
  EXPECT_THROW((void)load_archive(f.path), std::runtime_error);
  EXPECT_THROW((void)load_archive("/nonexistent/a.bin"), std::runtime_error);
}

}  // namespace
}  // namespace tlrwse::io
