#include "tlrwse/io/archive.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>

#include "codec.hpp"
#include "tlrwse/common/error.hpp"
#include "tlrwse/tlr/stacked.hpp"

namespace tlrwse::io {

namespace {

constexpr std::uint32_t kArchiveMagic = 0x544C5241;  // "TLRA"

std::ifstream open_archive(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("tlrwse::io: cannot read " + path);
  return is;
}

/// The one parse of the band-metadata header, for either container
/// format, leaving the reader at the first kernel/band.
ArchiveInfo peek_header(codec::StreamReader& in, const std::string& path) {
  const auto magic = codec::get<std::uint32_t>(in);
  if (magic != kArchiveMagic && magic != kSharedMagic) {
    throw std::runtime_error("tlrwse::io: bad archive magic in " + path);
  }
  // "TLRA" containers stay at version 1; their kernels carry their own.
  const auto version = codec::get<std::uint32_t>(in);
  if (version != kFormatVersion &&
      (version != kFormatVersionMixed || magic != kSharedMagic)) {
    throw std::runtime_error("tlrwse::io: unsupported archive version");
  }
  ArchiveInfo info;
  info.format_version = version;
  info.nt = codec::get<std::int64_t>(in);
  info.dt = codec::get<double>(in);
  const auto nf = codec::get<std::int64_t>(in);
  // Each frequency's bin and Hz take 16 bytes of the file.
  TLRWSE_REQUIRE(nf >= 0 && nf <= in.left() / 16, "corrupt archive: ", nf,
                 " frequencies cannot fit in ", path);
  info.freq_bins.resize(static_cast<std::size_t>(nf));
  info.freqs_hz.resize(static_cast<std::size_t>(nf));
  for (index_t q = 0; q < nf; ++q) {
    info.freq_bins[static_cast<std::size_t>(q)] = codec::get<std::int64_t>(in);
    info.freqs_hz[static_cast<std::size_t>(q)] = codec::get<double>(in);
  }
  if (magic == kSharedMagic) {
    // The shared header carries the payload size up front so cache
    // admission can budget residency without reading any kernel data.
    info.shared_basis = true;
    info.payload_bytes = codec::get<double>(in);
    info.num_bands = codec::get<std::int64_t>(in);
    TLRWSE_REQUIRE(info.num_bands >= 0, "corrupt shared archive");
  }
  return info;
}

/// The header-only walk over an archive's granules — a kernel in "TLRA",
/// a band in "TLRS" — from just past the band-metadata header: validates
/// each granule's headers, seeks past its payload and records its extent
/// and per-frequency payload weights.
void walk_extents(codec::StreamReader& in, const std::string& path,
                  ArchiveInfo& info) {
  const index_t nf = info.num_freqs();
  info.freq_payload_bytes.assign(static_cast<std::size_t>(nf), 0.0);
  const index_t granules = info.shared_basis ? info.num_bands : nf;
  index_t q = 0;  // the granule's first frequency
  for (index_t gi = 0; gi < granules; ++gi) {
    ShardExtent e;
    e.offset = in.offset();
    e.first_freq = q;
    tlr::TileGrid grid;
    if (info.shared_basis) {
      const codec::BandBytes b =
          codec::skip_band(in, path, info.format_version, nf - q);
      grid = b.grid;
      e.num_freqs = static_cast<index_t>(b.cores.size());
      // Bases are shared by the whole band; amortise them evenly so the
      // per-frequency weights sum to the real resident cost.
      const double basis_share =
          e.num_freqs > 0 ? b.basis / static_cast<double>(e.num_freqs) : 0.0;
      e.payload_bytes = b.basis;
      for (index_t f = 0; f < e.num_freqs; ++f) {
        const double core = b.cores[static_cast<std::size_t>(f)];
        info.freq_payload_bytes[static_cast<std::size_t>(q + f)] =
            core + basis_share;
        e.payload_bytes += core;
      }
    } else {
      const codec::TlrKernelHeader h = codec::skip_tlr_kernel(in, path);
      grid = h.grid;
      e.num_freqs = 1;
      e.payload_bytes = codec::factor_bytes(h).stored;
      info.freq_payload_bytes[static_cast<std::size_t>(q)] = e.payload_bytes;
      // A "TLRA" header carries no payload figure; it is the kernels' sum.
      info.payload_bytes += e.payload_bytes;
    }
    if (gi == 0) {
      info.rows = grid.rows();
      info.cols = grid.cols();
    }
    e.bytes = in.offset() - e.offset;
    info.extents.push_back(e);
    q += e.num_freqs;
  }
  TLRWSE_REQUIRE(q == nf,
                 "corrupt shared archive: band frequency counts do not "
                 "cover the header frequency list");
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
  codec::put_u32(os, kArchiveMagic);
  codec::put_u32(os, kFormatVersion);
  codec::put_i64(os, archive.nt);
  codec::put_f64(os, archive.dt);
  codec::put_i64(os, archive.num_freqs());
  for (index_t q = 0; q < archive.num_freqs(); ++q) {
    codec::put_i64(os, archive.freq_bins[static_cast<std::size_t>(q)]);
    codec::put_f64(os, archive.freqs_hz[static_cast<std::size_t>(q)]);
  }
  for (const auto& k : archive.kernels) codec::write_tlr_kernel(os, k);
  if (!os) throw std::runtime_error("tlrwse::io: write failed: " + path);
}

ArchiveInfo peek_archive(const std::string& path) {
  std::ifstream is = open_archive(path);
  codec::StreamReader in(is);
  return peek_header(in, path);
}

ArchiveInfo peek_archive_extents(const std::string& path) {
  std::ifstream is = open_archive(path);
  codec::StreamReader in(is);
  ArchiveInfo info = peek_header(in, path);
  walk_extents(in, path, info);
  return info;
}

std::vector<double> archive_kernel_bytes(const std::string& path) {
  return peek_archive_extents(path).freq_payload_bytes;
}

KernelArchive load_archive(const std::string& path) {
  std::ifstream is = open_archive(path);
  codec::StreamReader in(is);
  ArchiveInfo info = peek_header(in, path);
  if (info.shared_basis) {
    throw std::runtime_error("tlrwse::io: bad archive magic in " + path);
  }
  walk_extents(in, path, info);
  KernelArchive archive;
  archive.nt = info.nt;
  archive.dt = info.dt;
  archive.freq_bins = info.freq_bins;
  archive.freqs_hz = info.freqs_hz;
  archive.kernels.reserve(static_cast<std::size_t>(info.num_freqs()));
  std::vector<char> staging;
  codec::TlrGranule granule;
  for (const ShardExtent& e : info.extents) {
    codec::parse_tlr_granule(codec::read_granule(is, e.offset, e.bytes, staging),
                             path, e.offset, granule);
    archive.kernels.push_back(codec::to_tlr_matrix(granule));
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
  codec::put_u32(os, kSharedMagic);
  codec::put_u32(os, any_half ? kFormatVersionMixed : kFormatVersion);
  codec::put_i64(os, archive.nt);
  codec::put_f64(os, archive.dt);
  codec::put_i64(os, archive.num_freqs());
  for (index_t q = 0; q < archive.num_freqs(); ++q) {
    codec::put_i64(os, archive.freq_bins[static_cast<std::size_t>(q)]);
    codec::put_f64(os, archive.freqs_hz[static_cast<std::size_t>(q)]);
  }
  codec::put_f64(os, archive.shared_bytes());
  codec::put_i64(os, archive.num_bands());
  for (const auto& bp : archive.bands) {
    const auto& b = *bp;
    const auto& g = b.grid();
    const tlr::StoragePrecision p = b.precision();
    codec::put_u32(os, kBandMagic);
    codec::put_i64(os, g.rows());
    codec::put_i64(os, g.cols());
    codec::put_i64(os, g.nb());
    codec::put_f64(os, b.acc());
    codec::put_i64(os, b.num_freqs());
    if (any_half) {
      os.put(static_cast<char>(p));
    }
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        codec::write_matrix(os, b.basis_u(i, j), p);
        codec::write_matrix(os, b.basis_vh(i, j), p);
      }
    }
    for (index_t f = 0; f < b.num_freqs(); ++f) {
      for (index_t j = 0; j < g.nt(); ++j) {
        for (index_t i = 0; i < g.mt(); ++i) {
          const auto& c = b.core(f, i, j);
          codec::put_u32(os, c.factored ? 1u : 0u);
          codec::put_i64(os, c.rank);
          if (c.factored) {
            codec::write_matrix(os, c.lr.U, p);
            codec::write_matrix(os, c.lr.Vh, p);
          } else {
            codec::write_matrix(os, c.dense, p);
          }
        }
      }
    }
  }
  if (!os) throw std::runtime_error("tlrwse::io: write failed: " + path);
}

SharedKernelArchive load_shared_archive(const std::string& path) {
  std::ifstream is = open_archive(path);
  codec::StreamReader in(is);
  ArchiveInfo info = peek_header(in, path);
  if (!info.shared_basis) {
    throw std::runtime_error("tlrwse::io: bad shared archive magic in " +
                             path);
  }
  walk_extents(in, path, info);
  SharedKernelArchive archive;
  archive.nt = info.nt;
  archive.dt = info.dt;
  archive.freq_bins = info.freq_bins;
  archive.freqs_hz = info.freqs_hz;
  std::vector<char> staging;
  for (const ShardExtent& e : info.extents) {
    auto band = std::make_shared<const tlr::SharedBasisStackedTlr<cf32>>(
        codec::parse_band(codec::read_granule(is, e.offset, e.bytes, staging),
                          path, info.format_version, e, 0, e.num_freqs));
    if (e.num_freqs > 0) archive.bands.push_back(std::move(band));
  }
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
  codec::StreamReader in(is);
  const ArchiveInfo head = peek_header(in, path);
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
  codec::TlrGranule granule;
  for (const ShardExtent& e : info.extents) {
    const index_t begin = std::max(q_begin, e.first_freq);
    const index_t end = std::min(q_end, e.first_freq + e.num_freqs);
    if (begin >= end) continue;
    // One read of the whole granule. It must start at its recorded offset
    // and end where its extent does; anything else means `info` peeked
    // another file.
    const std::span<const char> bytes =
        codec::read_granule(is, e.offset, e.bytes, state.staging);
    std::uint32_t magic{};
    if (bytes.size() >= sizeof(magic)) {
      std::memcpy(&magic, bytes.data(), sizeof(magic));
    }
    TLRWSE_REQUIRE(magic == granule_magic, "archive extents do not match ",
                   path, ": no granule at byte ", e.offset);
    if (info.shared_basis) {
      const tlr::SharedBasisStackedTlr<cf32> band =
          codec::parse_band(bytes, path, info.format_version, e,
                            begin - e.first_freq, end - e.first_freq);
      out.bytes += band.shared_bytes();
      out.fp32_bytes += band.fp32_bytes();
      for (auto& k : mdc::make_shared_basis_kernels(band)) {
        out.kernels.push_back(std::move(k));
      }
      continue;
    }
    // One pass from the granule's bytes into the plan arena — built into
    // storage a dropped kernel handed back when there is some.
    codec::parse_tlr_granule(bytes, path, e.offset, granule);
    const codec::FactorBytes fb = codec::factor_bytes(granule.h);
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
