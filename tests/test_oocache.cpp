// Out-of-core streaming tests: StreamPlan's pinned-prefix and ring-window
// arithmetic, typed budget rejection, bitwise parity of streamed solves
// against fully resident operators (TLRA, TLRS, and injected dense
// kernels), steady sweeps that stream only the ring, hostile streams
// (archive truncated mid-shard, archive deleted between loads — typed kIo,
// never a hang), cancellation during a prefetch stall, a sweep aborted
// with the ring loaded ahead, a shard larger than planned (typed, never a
// wait), concurrent sweeps over one streamer, the process-wide residency
// gauge, and the serve-layer streamed-resident entries.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "test_helpers.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/cancellation.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/oocache/streamed_operator.hpp"
#include "tlrwse/serve/solve_service.hpp"

namespace tlrwse::oocache {
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

/// One TLRA archive on disk, shared by every streaming test (built once).
const std::string& tlra_path() {
  static const TempFile file("tlrwse_oocache.tlra");
  static const bool built = [] {
    io::save_archive(file.path, io::build_archive(dataset(), cc()));
    return true;
  }();
  (void)built;
  return file.path;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// --- StreamPlan -------------------------------------------------------------

TEST(StreamPlan, PinsTheLongestPrefixBesideTheRingWindow) {
  const std::vector<double> bytes(8, 10.0);
  const std::vector<index_t> freqs(8, 1);
  StreamPlanConfig cfg;
  cfg.budget_bytes = 50.0;  // 3 pinned + a 20-byte ring pair; 4 would be 60
  const StreamPlan plan = compile_stream_plan(bytes, freqs, cfg);
  // The 3 pinned granules are one shard; every ring granule is its own.
  ASSERT_EQ(plan.num_shards(), 6);
  EXPECT_EQ(plan.shard(0).q_begin, 0);
  EXPECT_EQ(plan.shard(0).q_end, 3);
  EXPECT_EQ(plan.shard(0).bytes, 30.0);
  for (index_t s = 1; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.shard(s).bytes, 10.0);
    EXPECT_EQ(plan.shard(s).q_begin, s + 2);
    EXPECT_EQ(plan.shard(s).q_end, s + 3);
  }
  EXPECT_EQ(plan.num_freqs(), 8);
  EXPECT_EQ(plan.total_bytes(), 80.0);
  EXPECT_EQ(plan.pinned_shards(), 1);
  EXPECT_EQ(plan.pinned_bytes(), 30.0);
  EXPECT_EQ(plan.window_bytes(), 50.0);
  EXPECT_EQ(plan.shard_at_step(0), 0);
  EXPECT_EQ(plan.shard_at_step(9), 3);  // steps run on across sweeps
}

TEST(StreamPlan, OversizedGranuleStaysInTheRing) {
  const std::vector<double> bytes{50.0, 10.0, 10.0};
  const std::vector<index_t> freqs{2, 1, 1};
  StreamPlanConfig cfg;
  cfg.budget_bytes = 40.0;  // below every window: nothing is pinned
  const StreamPlan small = compile_stream_plan(bytes, freqs, cfg);
  ASSERT_EQ(small.num_shards(), 3);
  EXPECT_EQ(small.shard(0).q_end, 2);
  EXPECT_EQ(small.shard(2).q_end, 4);
  EXPECT_EQ(small.pinned_shards(), 0);
  // The 50-byte granule pairs with its neighbour and, wrapping, with the
  // last granule of the previous sweep.
  EXPECT_EQ(small.window_bytes(), 60.0);

  cfg.budget_bytes = 65.0;  // the empty prefix fits; pinning 50 needs 70
  const StreamPlan mid = compile_stream_plan(bytes, freqs, cfg);
  EXPECT_EQ(mid.pinned_shards(), 0);
  EXPECT_EQ(mid.window_bytes(), 60.0);
}

TEST(StreamPlan, EverythingFitsLeavesAnEmptyRing) {
  const std::vector<double> bytes(4, 10.0);
  const std::vector<index_t> freqs(4, 1);
  StreamPlanConfig cfg;
  cfg.budget_bytes = 100.0;
  const StreamPlan plan = compile_stream_plan(bytes, freqs, cfg);
  ASSERT_EQ(plan.num_shards(), 1);  // all 4 granules in the pinned shard
  EXPECT_EQ(plan.shard(0).q_end, 4);
  EXPECT_EQ(plan.pinned_shards(), 1);
  EXPECT_EQ(plan.pinned_bytes(), 40.0);
  EXPECT_EQ(plan.window_bytes(), 40.0);  // no ring pair on top

  cfg.budget_bytes = 39.0;  // one byte short: the ring takes over
  const StreamPlan tight = compile_stream_plan(bytes, freqs, cfg);
  EXPECT_EQ(tight.pinned_shards(), 1);
  EXPECT_EQ(tight.shard(0).q_end, 1);
  EXPECT_EQ(tight.window_bytes(), 30.0);
}

TEST(StreamPlan, RejectsNonPartitionShards) {
  std::vector<StreamShard> shards(2);
  shards[0] = StreamShard{0, 2, 1.0};
  shards[1] = StreamShard{3, 4, 1.0};  // gap: q 2 unowned
  StreamPlanConfig cfg;
  cfg.budget_bytes = 4.0;
  EXPECT_THROW(StreamPlan(std::move(shards), cfg), std::invalid_argument);
}

TEST(StreamPlan, ArchiveExtentsPeekFeedsThePlanner) {
  const io::ArchiveInfo info = io::peek_archive_extents(tlra_path());
  ASSERT_TRUE(info.has_extents());
  EXPECT_GT(info.payload_bytes, 0.0);
  EXPECT_EQ(static_cast<index_t>(info.extents.size()), info.num_freqs());
  index_t q = 0;
  std::int64_t prev_end = 0;
  double payload = 0.0;
  for (const io::ShardExtent& e : info.extents) {
    EXPECT_EQ(e.first_freq, q);
    EXPECT_GE(e.offset, prev_end);  // ascending, non-overlapping
    EXPECT_GT(e.bytes, 0);
    q += e.num_freqs;
    prev_end = e.offset + e.bytes;
    payload += e.payload_bytes;
  }
  EXPECT_EQ(q, info.num_freqs());
  EXPECT_NEAR(payload, info.payload_bytes, 1.0);

  StreamPlanConfig cfg;
  cfg.budget_bytes = info.payload_bytes / 4.0;
  const StreamPlan plan = compile_stream_plan(info, cfg);
  EXPECT_GT(plan.num_shards(), 1);
  EXPECT_EQ(plan.num_freqs(), info.num_freqs());
  EXPECT_NEAR(plan.total_bytes(), info.payload_bytes, 1.0);
}

// --- Injected sources -------------------------------------------------------

/// Dense kernels fabricated per frequency: granule q is an oscillatory
/// ns x nr matrix, so a streamed operator over this source can be checked
/// bitwise against a resident MdcOperator holding the same matrices.
struct DenseSource final : ShardSource {
  index_t ns, nr, nq;
  std::atomic<int> loads{0};
  int fail_after = -1;          // >=0: throw once this many loads happened
  int delay_ms = 0;             // per-load sleep (stall/cancel tests)

  DenseSource(index_t ns_, index_t nr_, index_t nq_)
      : ns(ns_), nr(nr_), nq(nq_) {}
  [[nodiscard]] index_t rows() const override { return ns; }
  [[nodiscard]] index_t cols() const override { return nr; }
  [[nodiscard]] static la::MatrixCF matrix_for(index_t ns, index_t nr,
                                               index_t q) {
    return tlrwse::testing::oscillatory_matrix<cf32>(
        ns, nr, 4.0 + 2.5 * static_cast<double>(q));
  }
  ShardKernels load(index_t q_begin, index_t q_end) override {
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    const int n = loads.fetch_add(1);
    if (fail_after >= 0 && n >= fail_after) {
      throw std::runtime_error("injected source failure");
    }
    ShardKernels out;
    for (index_t q = q_begin; q < q_end; ++q) {
      out.kernels.push_back(
          std::make_unique<mdc::DenseMvm>(matrix_for(ns, nr, q)));
      out.bytes += static_cast<double>(ns * nr) * sizeof(cf32);
    }
    return out;
  }
};

/// Streamer over a DenseSource with one single-frequency granule per bin.
std::shared_ptr<ShardStreamer> dense_streamer(
    const std::shared_ptr<DenseSource>& src, double budget_fraction,
    StreamConfig cfg = {}) {
  const double granule =
      static_cast<double>(src->ns * src->nr) * sizeof(cf32);
  const std::vector<double> bytes(static_cast<std::size_t>(src->nq), granule);
  const std::vector<index_t> freqs(static_cast<std::size_t>(src->nq), 1);
  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes =
      std::max(granule * 2.0, granule * src->nq * budget_fraction);
  cfg.budget_bytes = plan_cfg.budget_bytes;
  return std::make_shared<ShardStreamer>(
      src, compile_stream_plan(bytes, freqs, plan_cfg), cfg);
}

constexpr index_t kNt = 64;
const std::vector<index_t> kBins{3, 5, 7, 9, 11, 14, 17, 20, 23, 26};

std::unique_ptr<mdc::MdcOperator> dense_resident(index_t ns, index_t nr) {
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  for (std::size_t q = 0; q < kBins.size(); ++q) {
    kernels.push_back(std::make_unique<mdc::DenseMvm>(
        DenseSource::matrix_for(ns, nr, static_cast<index_t>(q))));
  }
  return std::make_unique<mdc::MdcOperator>(kNt, kBins, std::move(kernels));
}

// --- Typed budget rejection -------------------------------------------------

TEST(ShardStreamer, BudgetBelowWindowIsTypedRejection) {
  auto src = std::make_shared<DenseSource>(6, 5, 10);
  const std::vector<double> bytes(10, 100.0);
  const std::vector<index_t> freqs(10, 1);
  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes = 150.0;  // one granule per shard, window = 200
  StreamPlan plan = compile_stream_plan(bytes, freqs, plan_cfg);
  StreamConfig cfg;
  cfg.budget_bytes = 150.0;
  try {
    ShardStreamer streamer(src, plan, cfg);
    FAIL() << "expected StreamError(kBudgetTooSmall)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamError::Code::kBudgetTooSmall);
    EXPECT_NE(std::string(e.what()).find("double-buffer"), std::string::npos);
  }
  EXPECT_EQ(src->loads.load(), 0) << "rejected stream must not touch disk";

  // grow_to_window turns the same request into a servable stream.
  cfg.grow_to_window = true;
  ShardStreamer grown(src, plan, cfg);
  EXPECT_EQ(grown.budget_bytes(), plan.window_bytes());
}

// --- Bitwise parity ---------------------------------------------------------

TEST(StreamedOperator, TlraQuarterBudgetSolveIsBitwiseIdentical) {
  const auto archive = io::load_archive(tlra_path());
  const auto resident = io::make_operator(archive);
  const double payload = archive.compressed_bytes();

  StreamConfig cfg;
  cfg.budget_bytes = payload / 4.0;
  cfg.grow_to_window = true;  // tiny test archives: never reject, still tight
  auto streamed = make_streamed_operator(tlra_path(), cfg);
  ASSERT_GT(streamed.streamer->plan().num_shards(), 1)
      << "quarter budget must actually shard the archive";

  const index_t v = dataset().num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(dataset(), v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 8;
  const auto ref = mdd::solve_mdd(*resident, rhs, lsqr);
  const auto got = mdd::solve_mdd(*streamed.op, rhs, lsqr);
  EXPECT_TRUE(bitwise_equal(ref.x, got.x));
  EXPECT_EQ(ref.iterations, got.iterations);

  const StreamStats st = streamed.streamer->stats();
  EXPECT_GT(st.loads, 0u);
  EXPECT_GT(st.evictions, 0u) << "a sharded sweep under budget must evict";
  EXPECT_GT(st.bytes_streamed, payload) << "multiple sweeps re-stream";
  EXPECT_LE(st.peak_resident_bytes,
            streamed.streamer->budget_bytes() + 1.0)
      << "residency must respect the budget";
}

TEST(StreamedOperator, SharedBasisArchiveStreamsBands) {
  TempFile file("tlrwse_oocache.tlrs");
  tlr::SharedBasisConfig sb;
  sb.nb = cc().nb;
  sb.acc = cc().acc;
  const auto shared = io::build_shared_archive(dataset(), sb, 4);
  io::save_shared_archive(file.path, shared);
  const auto resident = io::make_operator(io::load_shared_archive(file.path));

  StreamConfig cfg;
  cfg.budget_bytes = shared.shared_bytes() / 4.0;
  cfg.grow_to_window = true;
  auto streamed = make_streamed_operator(file.path, cfg);
  ASSERT_TRUE(streamed.info.shared_basis);
  ASSERT_GT(streamed.streamer->plan().num_shards(), 1);

  const index_t v = dataset().num_receivers() / 3;
  const auto rhs = mdd::virtual_source_rhs(dataset(), v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 8;
  const auto ref = mdd::solve_mdd(*resident, rhs, lsqr);
  const auto got = mdd::solve_mdd(*streamed.op, rhs, lsqr);
  EXPECT_TRUE(bitwise_equal(ref.x, got.x));
}

TEST(StreamedOperator, SharedBasisPlanPinsWholeBandsAsOneShard) {
  // A TLRS granule is a band; the pinned prefix merges whole bands into
  // one shard (one slice load, one parallel region) and every ring shard
  // stays exactly one band. The merged sweep stays bitwise.
  TempFile file("tlrwse_oocache_pinned.tlrs");
  tlr::SharedBasisConfig sb;
  sb.nb = cc().nb;
  sb.acc = cc().acc;
  const auto shared = io::build_shared_archive(dataset(), sb, 4);
  io::save_shared_archive(file.path, shared);
  const io::ArchiveInfo info = io::peek_archive_extents(file.path);
  ASSERT_TRUE(info.shared_basis);
  ASSERT_GT(info.extents.size(), 3u);

  StreamConfig cfg;
  cfg.budget_bytes = 0.9 * info.payload_bytes;
  auto streamed = make_streamed_operator(file.path, cfg);
  const StreamPlan& plan = streamed.streamer->plan();
  ASSERT_EQ(plan.pinned_shards(), 1);
  // Shard 0 ends on a band boundary after at least two bands.
  std::size_t bands = 0;
  double bytes = 0.0;
  while (bands < info.extents.size() &&
         info.extents[bands].first_freq < plan.shard(0).q_end) {
    bytes += info.extents[bands].payload_bytes;
    ++bands;
  }
  EXPECT_GE(bands, 2u);
  EXPECT_EQ(info.extents[bands - 1].first_freq +
                info.extents[bands - 1].num_freqs,
            plan.shard(0).q_end);
  EXPECT_DOUBLE_EQ(plan.shard(0).bytes, bytes);
  ASSERT_EQ(static_cast<std::size_t>(plan.num_shards()),
            info.extents.size() - bands + 1);
  for (index_t s = 1; s < plan.num_shards(); ++s) {
    const io::ShardExtent& band =
        info.extents[bands + static_cast<std::size_t>(s) - 1];
    EXPECT_EQ(plan.shard(s).q_begin, band.first_freq);
    EXPECT_EQ(plan.shard(s).q_end, band.first_freq + band.num_freqs);
  }

  const auto resident = io::make_operator(io::load_shared_archive(file.path));
  const index_t v = dataset().num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(dataset(), v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 4;
  EXPECT_TRUE(bitwise_equal(mdd::solve_mdd(*resident, rhs, lsqr).x,
                            mdd::solve_mdd(*streamed.op, rhs, lsqr).x));
}

/// The all-fp16 quantized twin of tlra_path()'s archive, built once.
const std::string& half_tlra_path() {
  static const TempFile file("tlrwse_oocache_fp16.tlra");
  static const bool built = [] {
    auto archive = io::build_archive(dataset(), cc());
    tlr::MixedPrecisionPolicy policy;
    policy.fp16_below = 2.0;  // every tile
    policy.bf16_below = 0.0;
    io::quantize_archive(archive, policy);
    io::save_archive(file.path, archive);
    return true;
  }();
  (void)built;
  return file.path;
}

TEST(StreamedOperator, HalfArchiveStreamsBitwiseAtHalfThePayload) {
  // A packed fp16 archive must (a) be priced by the stream planner at its
  // true ~half payload and (b) stream bitwise identical to the fully
  // resident operator over the same file — streaming only changes
  // residency, never the widened arithmetic.
  const auto archive = io::load_archive(half_tlra_path());
  const auto resident = io::make_operator(archive);
  const double payload = archive.compressed_bytes();
  const double fp32_payload =
      io::peek_archive_extents(tlra_path()).payload_bytes;
  EXPECT_NEAR(payload, fp32_payload / 2.0, 1e-6 * fp32_payload);
  EXPECT_DOUBLE_EQ(io::peek_archive_extents(half_tlra_path()).payload_bytes,
                   payload);

  StreamConfig cfg;
  cfg.budget_bytes = payload / 4.0;
  cfg.grow_to_window = true;
  auto streamed = make_streamed_operator(half_tlra_path(), cfg);
  ASSERT_GT(streamed.streamer->plan().num_shards(), 1)
      << "quarter budget must actually shard the archive";

  const index_t v = dataset().num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(dataset(), v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 8;
  const auto ref = mdd::solve_mdd(*resident, rhs, lsqr);
  const auto got = mdd::solve_mdd(*streamed.op, rhs, lsqr);
  EXPECT_TRUE(bitwise_equal(ref.x, got.x));
  EXPECT_EQ(ref.iterations, got.iterations);
}

TEST(StreamedOperator, DenseKernelsStreamBitwise) {
  const auto resident = dense_resident(22, 17);
  std::vector<float> x(static_cast<std::size_t>(resident->cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i + 1));
  }
  std::vector<float> ref_y(static_cast<std::size_t>(resident->rows()));
  resident->apply(x, std::span<float>(ref_y));
  std::vector<float> ref_x(static_cast<std::size_t>(resident->cols()));
  resident->apply_adjoint(ref_y, std::span<float>(ref_x));

  auto src = std::make_shared<DenseSource>(
      22, 17, static_cast<index_t>(kBins.size()));
  auto streamer = dense_streamer(src, 0.25);
  mdc::MdcOperator op(kNt, kBins, streamer);

  std::vector<float> y(static_cast<std::size_t>(op.rows()));
  op.apply(x, std::span<float>(y));
  EXPECT_TRUE(bitwise_equal(ref_y, y));
  std::vector<float> xt(static_cast<std::size_t>(op.cols()));
  op.apply_adjoint(y, std::span<float>(xt));
  EXPECT_TRUE(bitwise_equal(ref_x, xt));
}

TEST(StreamedOperator, SteadySweepsStreamOnlyTheRing) {
  const auto resident = dense_resident(22, 17);
  std::vector<float> x(static_cast<std::size_t>(resident->cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.53 * static_cast<double>(i + 1));
  }
  std::vector<float> ref_y(static_cast<std::size_t>(resident->rows()));
  resident->apply(x, std::span<float>(ref_y));

  constexpr int kSweeps = 5;
  for (const bool prefetch : {false, true}) {
    auto src = std::make_shared<DenseSource>(
        22, 17, static_cast<index_t>(kBins.size()));
    StreamConfig cfg;
    cfg.prefetch = prefetch;
    auto streamer = dense_streamer(src, 0.5, cfg);  // 5 of 10 granules
    const StreamPlan& plan = streamer->plan();
    ASSERT_EQ(plan.pinned_shards(), 1);
    ASSERT_EQ(plan.shard(0).q_end, 3) << "3 pinned + a 2-granule ring pair";
    const double ring = plan.total_bytes() - plan.pinned_bytes();
    mdc::MdcOperator op(kNt, kBins, streamer);
    std::vector<float> y(static_cast<std::size_t>(op.rows()));
    double streamed = 0.0;
    for (int k = 0; k < kSweeps; ++k) {
      op.apply(x, std::span<float>(y));
      EXPECT_TRUE(bitwise_equal(ref_y, y)) << "prefetch=" << prefetch;
      const double now = streamer->stats().bytes_streamed;
      if (!prefetch) {
        // Exact: the first sweep reads everything, later ones the ring.
        EXPECT_EQ(now - streamed, k == 0 ? plan.total_bytes() : ring)
            << "sweep " << k;
      }
      streamed = now;
    }
    const StreamStats st = streamer->stats();
    EXPECT_GT(st.hits, 0u) << "prefetch=" << prefetch;
    const double floor = plan.total_bytes() + (kSweeps - 1) * ring;
    // The prefetcher may already hold the next sweep's first ring shards.
    EXPECT_GE(st.bytes_streamed, floor);
    EXPECT_LE(st.bytes_streamed,
              floor + streamer->budget_bytes() - plan.pinned_bytes());
  }
}

/// Forwards to an ArchiveShardSource, counting the shards handed back.
struct CountingSource final : ShardSource {
  std::shared_ptr<ArchiveShardSource> inner;
  std::atomic<std::uint64_t> recycled{0};

  explicit CountingSource(std::shared_ptr<ArchiveShardSource> s)
      : inner(std::move(s)) {}
  [[nodiscard]] index_t rows() const override { return inner->rows(); }
  [[nodiscard]] index_t cols() const override { return inner->cols(); }
  ShardKernels load(index_t q_begin, index_t q_end) override {
    return inner->load(q_begin, q_end);
  }
  void recycle(
      std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels) override {
    recycled.fetch_add(1);
    inner->recycle(std::move(kernels));
  }
};

TEST(StreamedOperator, DroppedRingShardsGoBackToTheSource) {
  // Every ring shard the streamer drops is handed back to the source, whose
  // next loads build into the returned arenas; the solve stays bitwise.
  const io::ArchiveInfo info = io::peek_archive_extents(tlra_path());
  auto src = std::make_shared<CountingSource>(
      std::make_shared<ArchiveShardSource>(tlra_path(), info));
  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes = info.payload_bytes / 4.0;
  StreamConfig cfg;
  cfg.budget_bytes = plan_cfg.budget_bytes;
  cfg.grow_to_window = true;
  auto streamer = std::make_shared<ShardStreamer>(
      src, compile_stream_plan(info, plan_cfg), cfg);
  mdc::MdcOperator op(info.nt, info.freq_bins, streamer);
  const auto resident = io::make_operator(io::load_archive(tlra_path()));

  const auto rhs =
      mdd::virtual_source_rhs(dataset(), dataset().num_receivers() / 2);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 4;
  EXPECT_TRUE(bitwise_equal(mdd::solve_mdd(*resident, rhs, lsqr).x,
                            mdd::solve_mdd(op, rhs, lsqr).x));
  const StreamStats st = streamer->stats();
  ASSERT_GT(st.evictions, 0u);
  // The last sweep's drops go back with the next load, which the
  // prefetcher starts as soon as that sweep's final release makes room.
  for (int i = 0; i < 1000 && src->recycled.load() < st.evictions; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(src->recycled.load(), st.evictions);
  EXPECT_EQ(streamer->stats().evictions, st.evictions);
}

TEST(StreamedOperator, EveryLoadIsTimedInTheRegistry) {
  // Achieved load bandwidth is oocache.bytes_streamed over oocache.load_s:
  // one histogram sample per installed load, matching StreamStats.
  obs::Histogram& hist =
      obs::MetricsRegistry::instance().histogram("oocache.load_s");
  const obs::Histogram::Snapshot before = hist.snapshot();
  StreamConfig cfg;
  cfg.budget_bytes = io::peek_archive_extents(tlra_path()).payload_bytes / 4.0;
  cfg.grow_to_window = true;
  cfg.prefetch = false;  // every load runs inside the solve
  auto streamed = make_streamed_operator(tlra_path(), cfg);
  const auto rhs =
      mdd::virtual_source_rhs(dataset(), dataset().num_receivers() / 3);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 3;
  (void)mdd::solve_mdd(*streamed.op, rhs, lsqr);
  const StreamStats st = streamed.streamer->stats();
  const obs::Histogram::Snapshot after = hist.snapshot();
  ASSERT_GT(st.loads, 0u);
  EXPECT_EQ(after.count - before.count, st.loads);
  EXPECT_GT(after.sum - before.sum, 0.0);
  EXPECT_GT(st.load_s, 0.0);
}

TEST(StreamedOperator, ConcurrentSweepsSerializeAndStayBitwise) {
  const auto resident = dense_resident(22, 17);
  std::vector<float> x(static_cast<std::size_t>(resident->cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(0.21 * static_cast<double>(i + 1));
  }
  std::vector<float> ref_y(static_cast<std::size_t>(resident->rows()));
  resident->apply(x, std::span<float>(ref_y));

  auto src = std::make_shared<DenseSource>(
      22, 17, static_cast<index_t>(kBins.size()));
  auto streamer = dense_streamer(src, 0.3);
  mdc::MdcOperator op(kNt, kBins, streamer);

  constexpr int kThreads = 3;
  std::vector<std::vector<float>> ys(
      kThreads, std::vector<float>(static_cast<std::size_t>(op.rows())));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { op.apply(x, std::span<float>(ys[static_cast<std::size_t>(t)])); });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(bitwise_equal(ref_y, ys[static_cast<std::size_t>(t)]))
        << "thread " << t;
  }
}

// --- Hostile streams --------------------------------------------------------

TEST(ShardStreamer, TruncatedArchiveSurfacesTypedIoError) {
  TempFile file("tlrwse_oocache_trunc.tlra");
  std::filesystem::copy_file(tlra_path(), file.path);
  const io::ArchiveInfo info = io::peek_archive_extents(file.path);
  // Chop the file mid-way through the last granule: the extents peek
  // succeeded, so the failure must come from the prefetch thread's slice
  // load and surface as StreamError(kIo) on the consumer's acquire.
  const io::ShardExtent& last = info.extents.back();
  std::filesystem::resize_file(
      file.path, static_cast<std::uintmax_t>(last.offset + last.bytes / 2));

  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes = info.payload_bytes / 4.0;
  StreamPlan plan = compile_stream_plan(info, plan_cfg);
  StreamConfig cfg;
  cfg.budget_bytes = plan_cfg.budget_bytes;
  cfg.grow_to_window = true;
  auto streamer = std::make_shared<ShardStreamer>(
      std::make_shared<ArchiveShardSource>(file.path, info), plan, cfg);
  mdc::MdcOperator op(info.nt, info.freq_bins, streamer);

  std::vector<float> x(static_cast<std::size_t>(op.cols()), 1.0F);
  std::vector<float> y(static_cast<std::size_t>(op.rows()));
  try {
    op.apply(x, std::span<float>(y));
    FAIL() << "expected StreamError(kIo)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamError::Code::kIo);
    EXPECT_NE(std::string(e.what()).find("tlrwse::oocache"),
              std::string::npos);
  }
  // The stream stays failed (no hang, no partial re-serve) on reuse.
  EXPECT_THROW(op.apply(x, std::span<float>(y)), StreamError);
}

TEST(ShardStreamer, ArchiveDeletedBetweenLoadsSurfacesTypedIoError) {
  TempFile file("tlrwse_oocache_gone.tlra");
  std::filesystem::copy_file(tlra_path(), file.path);
  const io::ArchiveInfo info = io::peek_archive_extents(file.path);
  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes = info.payload_bytes / 4.0;
  StreamPlan plan = compile_stream_plan(info, plan_cfg);
  StreamConfig cfg;
  cfg.budget_bytes = plan_cfg.budget_bytes;
  cfg.grow_to_window = true;
  cfg.prefetch = false;  // synchronous loads: the deletion point is exact
  auto streamer = std::make_shared<ShardStreamer>(
      std::make_shared<ArchiveShardSource>(file.path, info), plan, cfg);
  mdc::MdcOperator op(info.nt, info.freq_bins, streamer);

  // First sweep streams the (present) file end to end.
  std::vector<float> x(static_cast<std::size_t>(op.cols()), 1.0F);
  std::vector<float> y(static_cast<std::size_t>(op.rows()));
  op.apply(x, std::span<float>(y));

  // Delete it; the next sweep's first evicted-and-reloaded shard fails.
  std::filesystem::remove(file.path);
  try {
    op.apply(x, std::span<float>(y));
    FAIL() << "expected StreamError(kIo)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamError::Code::kIo);
  }
}

TEST(ShardStreamer, CancelDuringPrefetchStallThrowsCancelled) {
  auto src = std::make_shared<DenseSource>(22, 17,
                                           static_cast<index_t>(kBins.size()));
  src->delay_ms = 100;  // every load stalls the consumer
  auto streamer = dense_streamer(src, 0.25);
  mdc::MdcOperator op(kNt, kBins, streamer);

  std::vector<float> x(static_cast<std::size_t>(op.cols()), 1.0F);
  std::vector<float> y(static_cast<std::size_t>(op.rows()));
  {
    const auto start = std::chrono::steady_clock::now();
    mdc::CancelScope cancel([start] {
      return std::chrono::steady_clock::now() - start >
             std::chrono::milliseconds(30);
    });
    EXPECT_THROW(op.apply(x, std::span<float>(y)), mdc::CancelledError);
  }
  // The streamer survives a cancelled sweep: once the deadline scope is gone
  // the same operator serves the full apply.
  op.apply(x, std::span<float>(y));
  const auto resident = dense_resident(22, 17);
  std::vector<float> ref(static_cast<std::size_t>(resident->rows()));
  resident->apply(x, std::span<float>(ref));
  EXPECT_TRUE(bitwise_equal(ref, y));
}

TEST(ShardStreamer, AbortedSweepDropsTheRingItLoadedAhead) {
  const auto resident = dense_resident(22, 17);
  std::vector<float> x(static_cast<std::size_t>(resident->cols()), 1.0F);
  std::vector<float> ref(static_cast<std::size_t>(resident->rows()));
  resident->apply(x, std::span<float>(ref));

  auto src = std::make_shared<DenseSource>(
      22, 17, static_cast<index_t>(kBins.size()));
  auto streamer = dense_streamer(src, 0.5);  // 3 pinned, 2-granule ring
  const index_t pinned = streamer->plan().pinned_shards();
  ASSERT_EQ(pinned, 1);  // the 3 pinned granules load as one shard
  mdc::MdcOperator op(kNt, kBins, streamer);

  // Sweep by hand through the first ring shard, then abort: the prefetcher
  // has filled the ring with the two shards after it, which the next sweep
  // needs last.
  streamer->begin_sweep();
  for (index_t s = 0; s <= pinned; ++s) {
    (void)streamer->acquire_shard(s);
    streamer->release_shard(s);
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (streamer->stats().loads < static_cast<std::uint64_t>(pinned) + 3 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(streamer->stats().loads, static_cast<std::uint64_t>(pinned) + 3);
  streamer->end_sweep();

  // A ring left full would wedge the next sweep at its first ring shard;
  // the deadline turns that into a failure instead of a hang.
  std::vector<float> y(static_cast<std::size_t>(op.rows()));
  const auto start = std::chrono::steady_clock::now();
  {
    mdc::CancelScope deadline([start] {
      return std::chrono::steady_clock::now() - start >
             std::chrono::seconds(10);
    });
    op.apply(x, std::span<float>(y));
  }
  EXPECT_TRUE(bitwise_equal(ref, y));
}

TEST(ShardStreamer, ShardLargerThanPlannedIsTypedBudgetFailure) {
  // The plan prices each granule at 10 bytes, the source delivers ~3 kB:
  // after the first pinned shard nothing else fits and no ring shard can
  // be released to make room, so the prefetcher fails the stream instead
  // of waiting forever.
  auto src = std::make_shared<DenseSource>(
      22, 17, static_cast<index_t>(kBins.size()));
  const std::vector<double> bytes(kBins.size(), 10.0);
  const std::vector<index_t> freqs(kBins.size(), 1);
  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes = 50.0;
  StreamConfig cfg;
  cfg.budget_bytes = plan_cfg.budget_bytes;
  auto streamer = std::make_shared<ShardStreamer>(
      src, compile_stream_plan(bytes, freqs, plan_cfg), cfg);
  mdc::MdcOperator op(kNt, kBins, streamer);

  std::vector<float> x(static_cast<std::size_t>(op.cols()), 1.0F);
  std::vector<float> y(static_cast<std::size_t>(op.rows()));
  const auto start = std::chrono::steady_clock::now();
  mdc::CancelScope deadline([start] {
    return std::chrono::steady_clock::now() - start >
           std::chrono::seconds(10);
  });
  try {
    op.apply(x, std::span<float>(y));
    FAIL() << "expected StreamError(kBudgetTooSmall)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamError::Code::kBudgetTooSmall);
  }
}

TEST(ShardStreamer, ResidentGaugeSumsLiveStreamers) {
  const obs::Gauge& gauge =
      obs::MetricsRegistry::instance().gauge("oocache.bytes_resident");
  const std::int64_t before = gauge.value();
  const auto sweep = [](mdc::MdcOperator& op) {
    std::vector<float> x(static_cast<std::size_t>(op.cols()), 1.0F);
    std::vector<float> y(static_cast<std::size_t>(op.rows()));
    op.apply(x, std::span<float>(y));
  };
  {
    StreamConfig cfg;
    cfg.prefetch = false;  // after a sweep, exactly the pinned prefix
    const auto nq = static_cast<index_t>(kBins.size());
    auto a = dense_streamer(std::make_shared<DenseSource>(22, 17, nq), 0.5,
                            cfg);
    auto b = dense_streamer(std::make_shared<DenseSource>(13, 11, nq), 0.3,
                            cfg);
    mdc::MdcOperator op_a(kNt, kBins, a);
    mdc::MdcOperator op_b(kNt, kBins, b);
    sweep(op_a);
    sweep(op_b);
    ASSERT_GT(a->plan().pinned_bytes(), 0.0);
    ASSERT_GT(b->plan().pinned_bytes(), 0.0);
    EXPECT_EQ(gauge.value() - before,
              static_cast<std::int64_t>(a->plan().pinned_bytes() +
                                        b->plan().pinned_bytes()));
  }
  EXPECT_EQ(gauge.value(), before);
}

// --- Serve integration ------------------------------------------------------

TEST(SolveServiceStreaming, StreamedEntryMatchesResidentBitwise) {
  const auto archive = io::load_archive(tlra_path());
  const auto reference_op = io::make_operator(archive);
  const double payload = archive.compressed_bytes();
  const index_t v = 2;
  const auto rhs = mdd::virtual_source_rhs(dataset(), v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 6;
  const auto ref = mdd::solve_mdd(*reference_op, rhs, lsqr);

  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_resident_bytes = payload / 4.0;  // forces the streamed path
  serve::SolveService service(cfg);
  serve::SolveRequest req;
  req.op = serve::OperatorKey{tlra_path(), cc().nb, cc().acc};
  req.kind = serve::RequestKind::kLsqr;
  req.vsrc = v;
  req.rhs = rhs;
  req.lsqr = lsqr;
  const auto resp = service.submit(std::move(req)).get();
  ASSERT_EQ(resp.status, serve::SolveStatus::kOk) << resp.error;
  EXPECT_TRUE(bitwise_equal(ref.x, resp.x));

  // The cache charged the stream budget, not the full payload: admission
  // of an over-budget archive is exactly what the streamed entry buys.
  const serve::CacheStats cache = service.cache().stats();
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_LT(cache.bytes_resident, payload);
}

TEST(SolveServiceStreaming, UnservableBudgetIsTypedLoadFailure) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_resident_bytes = 64.0;  // below any double-buffer window
  serve::SolveService service(cfg);
  serve::SolveRequest req;
  req.op = serve::OperatorKey{tlra_path(), cc().nb, cc().acc};
  req.kind = serve::RequestKind::kAdjoint;
  req.vsrc = 0;
  req.rhs = mdd::virtual_source_rhs(dataset(), 0);
  const auto resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, serve::SolveStatus::kError);
  EXPECT_NE(resp.error.find("double-buffer"), std::string::npos)
      << resp.error;
}

}  // namespace
}  // namespace tlrwse::oocache
