// Kernel archives: the full set of TLR-compressed frequency kernels of a
// survey, persisted with band metadata.
//
// The paper excludes compression from its timed region because it happens
// once on the host (Sec. 6.6); a production workflow compresses a survey,
// archives the bases, and reuses them for every virtual source / every
// reprocessing. An archive is exactly what would be shipped to the CS-2
// cluster's host.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/seismic/modeling.hpp"
#include "tlrwse/tlr/mixed.hpp"
#include "tlrwse/tlr/mvm_plan.hpp"
#include "tlrwse/tlr/shared_basis.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"

namespace tlrwse::io {

struct KernelArchive {
  index_t nt = 0;
  double dt = 0.0;
  std::vector<index_t> freq_bins;
  std::vector<double> freqs_hz;
  std::vector<tlr::TlrMatrix<cf32>> kernels;  // dA already folded in

  [[nodiscard]] index_t num_freqs() const {
    return static_cast<index_t>(kernels.size());
  }
  [[nodiscard]] double compressed_bytes() const {
    double total = 0.0;
    for (const auto& k : kernels) total += k.compressed_bytes();
    return total;
  }
};

/// Compresses every frequency kernel of the dataset (with the MDC surface
/// element folded in) into an archive.
[[nodiscard]] KernelArchive build_archive(
    const seismic::SeismicDataset& data,
    const tlr::CompressionConfig& compression);

/// Binary round trip. A band-metadata header, then each kernel as the
/// exact bytes save_tlr (serialize.hpp) writes for it alone.
void save_archive(const std::string& path, const KernelArchive& archive);
[[nodiscard]] KernelArchive load_archive(const std::string& path);

/// Quantizes every kernel in place (tile factors rounded and tagged per
/// tlr::MixedPrecisionPolicy). A subsequent save_archive writes packed
/// version-2 payloads at roughly half the bytes for fp16/bf16 tiles, and
/// MvmPlan packs the tagged tiles as 16-bit arena panels.
void quantize_archive(KernelArchive& archive,
                      const tlr::MixedPrecisionPolicy& policy);

/// Shared-basis archive: the survey's frequencies split into consecutive
/// bands, each stored as one tlr::SharedBasisStackedTlr (bases fit once per
/// band, per-frequency cores only). This is the operator-cache-friendly
/// format — resident bytes shrink by the band's storage ratio.
struct SharedKernelArchive {
  index_t nt = 0;
  double dt = 0.0;
  std::vector<index_t> freq_bins;
  std::vector<double> freqs_hz;
  /// Consecutive bands; their num_freqs() sum to freq_bins.size().
  std::vector<std::shared_ptr<const tlr::SharedBasisStackedTlr<cf32>>> bands;

  [[nodiscard]] index_t num_freqs() const {
    return static_cast<index_t>(freq_bins.size());
  }
  [[nodiscard]] index_t num_bands() const {
    return static_cast<index_t>(bands.size());
  }
  /// Bytes of the shared representation — the OperatorCache currency.
  [[nodiscard]] double shared_bytes() const {
    double total = 0.0;
    for (const auto& b : bands) total += b->shared_bytes();
    return total;
  }
};

/// Compresses the dataset's kernels into shared-basis bands of (at most)
/// `band_width` consecutive frequencies (0 = one band for the whole set).
[[nodiscard]] SharedKernelArchive build_shared_archive(
    const seismic::SeismicDataset& data, const tlr::SharedBasisConfig& cfg,
    index_t band_width = 0);

/// Conversion path: refits an existing per-frequency archive into
/// shared-basis bands (tile-by-tile re-densification, never the full
/// matrices). All kernels must share one tile grid.
[[nodiscard]] SharedKernelArchive shared_from_archive(
    const KernelArchive& archive, const tlr::SharedBasisConfig& cfg,
    index_t band_width = 0);

/// Binary round trip of a shared archive ("TLRS" container). Factors and
/// cores survive bitwise.
void save_shared_archive(const std::string& path,
                         const SharedKernelArchive& archive);
[[nodiscard]] SharedKernelArchive load_shared_archive(const std::string& path);

/// Rounds every band to one uniform storage precision (bases and cores
/// alike, see SharedBasisStackedTlr::set_precision). Idempotent.
void quantize_shared_archive(SharedKernelArchive& archive,
                             tlr::StoragePrecision p);

/// Byte extent of one archive granule — a frequency kernel in a "TLRA"
/// container, a whole band in a "TLRS" one — measured during a single
/// header peek. `offset`/`bytes` frame the granule in the file (where
/// load_kernels seeks to); `payload_bytes` is the factor/core payload, the
/// residency currency of cache admission and stream planning.
struct ShardExtent {
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
  double payload_bytes = 0.0;
  index_t first_freq = 0;  // global index of the granule's first frequency
  index_t num_freqs = 0;   // frequencies covered (1 per TLRA kernel)
};

/// Band metadata of an archive, readable without touching the kernel
/// payload. The serving layer validates requests against this at admission
/// (a few hundred bytes of header) instead of paying a full kernel load
/// just to discover a missing or mismatched archive.
struct ArchiveInfo {
  index_t nt = 0;
  double dt = 0.0;
  /// Container format version of the file header (2 = half-precision
  /// payload encodings; "TLRA" containers stay at 1 and version their
  /// embedded kernels individually).
  std::uint32_t format_version = 1;
  std::vector<index_t> freq_bins;
  std::vector<double> freqs_hz;
  /// Shared-basis ("TLRS") archives only: format flag and number of bands.
  /// Per-frequency ("TLRA") archives keep the defaults.
  bool shared_basis = false;
  index_t num_bands = 0;
  /// Compressed payload bytes. "TLRS" headers carry it up front so the
  /// plain peek fills it; for "TLRA" it is known only after an extents
  /// peek (0.0 until then).
  double payload_bytes = 0.0;
  /// Filled by peek_archive_extents only (the plain peek stops at the
  /// band-metadata header): kernel dimensions, the per-granule byte
  /// extents, and the per-frequency payload weights (shared-basis bands
  /// amortise their basis bytes evenly over their frequencies).
  index_t rows = 0;
  index_t cols = 0;
  std::vector<ShardExtent> extents;
  std::vector<double> freq_payload_bytes;
  [[nodiscard]] index_t num_freqs() const {
    return static_cast<index_t>(freq_bins.size());
  }
  [[nodiscard]] bool has_extents() const { return !extents.empty(); }
};

/// Reads only the header of `path` (either container format). Throws like
/// load_archive on a missing file, bad magic, or unsupported version.
[[nodiscard]] ArchiveInfo peek_archive(const std::string& path);

/// One-pass peek that also walks the kernel headers (payloads are seeked
/// past, never read) and records each granule's byte extent. This is the
/// single directory read shared by the stream planner, the shard placer
/// and load_kernels — none of them re-scans headers.
[[nodiscard]] ArchiveInfo peek_archive_extents(const std::string& path);

/// Per-frequency compressed payload bytes, computed from headers and rank
/// tables alone (payloads are seeked past, never read) — the shard
/// planner's placement weights. Shared-basis archives amortise each band's
/// basis bytes evenly over their frequencies. Equivalent to
/// peek_archive_extents(path).freq_payload_bytes.
[[nodiscard]] std::vector<double> archive_kernel_bytes(
    const std::string& path);

/// Kernels of one frequency range with what they cost resident.
struct LoadedKernels {
  /// kernels[i] serves frequency q_begin + i.
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  /// Payload bytes as stored (half tiles packed) — the residency currency.
  double bytes = 0.0;
  /// The same payload stored uniformly fp32.
  double fp32_bytes = 0.0;
};

/// Buffers that repeated load_kernels calls reuse. A "TLRA" granule is read
/// with one call into `staging`; its plan is built into a `spare` storage
/// when there is one (the caller hands back the storage of kernels it
/// drops, see mdc::TlrMvm::release_storage), so a steady stream of loads
/// writes only into pages that are already mapped. One state must not be
/// shared by concurrent loads.
struct LoadState {
  std::vector<char> staging;
  std::vector<tlr::MvmPlan::Storage> spare;
};

/// The one archive loader behind every operator source (resident, streamed,
/// cluster shard), format-blind: builds the kernels of frequencies
/// [q_begin, q_end) of either container, one granule at a time — a kernel
/// in "TLRA", a band in "TLRS" — seeking straight to the granule offsets in
/// `info`, so no more than one granule is held in archive form beside the
/// kernels already built. A "TLRA" granule is one read into the state's
/// staging buffer and one pass from its bytes into the kernel's plan arena
/// (packed half tiles bit-copied); a band the range cuts keeps its
/// (band-shared) bases and only the overlapping cores. Every kernel is
/// bitwise equal to the same frequency of a whole-archive load.
/// `bytes`/`fp32_bytes` sum the loaded (trimmed) granules' figures. `info`
/// must be an extents peek of the same, unmodified file; one that does not
/// describe `path` throws std::invalid_argument before a payload is
/// trusted, a file cut short under it std::runtime_error.
[[nodiscard]] LoadedKernels load_kernels(const std::string& path,
                                         const ArchiveInfo& info,
                                         index_t q_begin, index_t q_end,
                                         LoadState& state);
/// The same with a state of its own.
[[nodiscard]] LoadedKernels load_kernels(const std::string& path,
                                         const ArchiveInfo& info,
                                         index_t q_begin, index_t q_end);

/// A resident MdcOperator over the whole archive of either container
/// format: one extents peek, then load_kernels over every frequency.
[[nodiscard]] std::unique_ptr<mdc::MdcOperator> open_operator(
    const std::string& path);

/// Builds the MDC operator directly from an archive (no recompression).
[[nodiscard]] std::unique_ptr<mdc::MdcOperator> make_operator(
    const KernelArchive& archive);

/// Shared-basis counterpart: one SharedBasisMvm per frequency, each band's
/// basis arena compiled once and shared by its frequencies.
[[nodiscard]] std::unique_ptr<mdc::MdcOperator> make_operator(
    const SharedKernelArchive& archive);

/// The per-frequency kernels behind make_operator(KernelArchive), for
/// callers that already hold an in-memory archive and drive frequencies
/// directly.
[[nodiscard]] std::vector<std::unique_ptr<mdc::FrequencyMvm>> make_kernels(
    const KernelArchive& archive);

}  // namespace tlrwse::io
