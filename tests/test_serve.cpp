// Tests for the serving layer: operator cache (byte-budget LRU, load
// dedup, concurrency) and the solve service end to end —
// including the bitwise-vs-sequential guarantee and typed backpressure.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/obs/prometheus.hpp"
#include "tlrwse/serve/operator_cache.hpp"
#include "tlrwse/serve/solve_service.hpp"

namespace tlrwse::serve {
namespace {

// ---------------------------------------------------------------- cache --

OperatorKey key_of(const char* id) { return OperatorKey{id, 12, 1e-4}; }

OperatorCache::Value resident_of(double bytes) {
  auto r = std::make_shared<ResidentOperator>();
  r->bytes = bytes;
  return r;
}

TEST(OperatorCache, HitMissAccounting) {
  OperatorCache cache(1e9);
  int loads = 0;
  const auto loader = [&] {
    ++loads;
    return resident_of(100.0);
  };
  const auto a1 = cache.get_or_load(key_of("a"), loader);
  const auto a2 = cache.get_or_load(key_of("a"), loader);
  EXPECT_EQ(a1.get(), a2.get());  // one resident copy, shared
  EXPECT_EQ(loads, 1);

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_DOUBLE_EQ(s.bytes_resident, 100.0);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(OperatorCache, DistinctCompressionConfigsAreDistinctEntries) {
  OperatorCache cache(1e9);
  const OperatorKey coarse{"a", 12, 1e-2};
  const OperatorKey fine{"a", 12, 1e-6};
  (void)cache.get_or_load(coarse, [&] { return resident_of(10.0); });
  (void)cache.get_or_load(fine, [&] { return resident_of(20.0); });
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_DOUBLE_EQ(cache.stats().bytes_resident, 30.0);
}

TEST(OperatorCache, EvictsInLruOrder) {
  // Budget fits two 100-byte entries; touching A promotes it, so
  // inserting C evicts B (the LRU tail).
  OperatorCache cache(250.0);
  (void)cache.get_or_load(key_of("a"), [&] { return resident_of(100.0); });
  (void)cache.get_or_load(key_of("b"), [&] { return resident_of(100.0); });
  (void)cache.get_or_load(key_of("a"), [&] { return resident_of(100.0); });
  (void)cache.get_or_load(key_of("c"), [&] { return resident_of(100.0); });

  EXPECT_TRUE(cache.contains(key_of("a")));
  EXPECT_FALSE(cache.contains(key_of("b")));
  EXPECT_TRUE(cache.contains(key_of("c")));

  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_DOUBLE_EQ(s.bytes_evicted, 100.0);
  EXPECT_DOUBLE_EQ(s.bytes_resident, 200.0);
  EXPECT_EQ(s.entries, 2u);
}

TEST(OperatorCache, OversizedEntryStaysUntilDisplaced) {
  // An entry larger than the whole budget is never evicted by its own
  // insertion (requests holding its future must still get a value); the
  // next insertion displaces it.
  OperatorCache cache(50.0);
  (void)cache.get_or_load(key_of("big"), [&] { return resident_of(100.0); });
  EXPECT_TRUE(cache.contains(key_of("big")));
  EXPECT_DOUBLE_EQ(cache.stats().bytes_resident, 100.0);

  (void)cache.get_or_load(key_of("next"), [&] { return resident_of(10.0); });
  EXPECT_FALSE(cache.contains(key_of("big")));
  EXPECT_TRUE(cache.contains(key_of("next")));
}

TEST(OperatorCache, LoaderFailurePropagatesAndRetries) {
  OperatorCache cache(1e9);
  EXPECT_THROW((void)cache.get_or_load(
                   key_of("a"),
                   []() -> OperatorCache::Value {
                     throw std::runtime_error("archive unreadable");
                   }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains(key_of("a")));
  EXPECT_EQ(cache.stats().load_failures, 1u);

  // The failed entry was removed, so the next call retries the load.
  const auto v = cache.get_or_load(key_of("a"), [&] { return resident_of(7.0); });
  EXPECT_DOUBLE_EQ(v->bytes, 7.0);
  EXPECT_EQ(cache.stats().loads, 1u);
}

TEST(OperatorCache, BudgetIsOneGlobalLru) {
  // Ten 100-byte operators exactly fill a 1000-byte budget: every one
  // stays resident, whatever its key hashes to.
  OperatorCache cache(1000.0);
  for (int k = 0; k < 10; ++k) {
    const std::string id = "op" + std::to_string(k);
    (void)cache.get_or_load(key_of(id.c_str()),
                            [&] { return resident_of(100.0); });
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 10u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_DOUBLE_EQ(s.bytes_resident, 1000.0);
  for (int k = 0; k < 10; ++k) {
    const std::string id = "op" + std::to_string(k);
    EXPECT_TRUE(cache.contains(key_of(id.c_str()))) << id;
  }
}

TEST(OperatorCache, ClearEmptiesEverything) {
  OperatorCache cache(1e9);
  (void)cache.get_or_load(key_of("a"), [&] { return resident_of(1.0); });
  (void)cache.get_or_load(key_of("b"), [&] { return resident_of(2.0); });
  cache.clear();
  EXPECT_FALSE(cache.contains(key_of("a")));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().bytes_resident, 0.0);
}

TEST(OperatorCache, ConcurrentLoadsDeduplicate) {
  // Many threads racing one cold key ride a single loader invocation; the
  // loader sleeps so every thread arrives while the load is in flight.
  OperatorCache cache(1e9);
  std::atomic<int> loads{0};
  const auto loader = [&] {
    loads.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return resident_of(100.0);
  };
  std::vector<std::thread> threads;
  std::vector<OperatorCache::Value> values(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back(
        [&, t] { values[static_cast<std::size_t>(t)] = cache.get_or_load(key_of("hot"), loader); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
  for (const auto& v : values) EXPECT_EQ(v.get(), values[0].get());
  EXPECT_EQ(cache.stats().loads, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
}

TEST(OperatorCache, ConcurrentHammerStaysCoherent) {
  // 8 threads hammer 6 keys through a budget that can hold only 2 entries:
  // loads, evictions, and hits interleave freely. The
  // invariants: values are always usable, per-key bytes are what the loader
  // produced, and the final accounting is self-consistent.
  OperatorCache cache(250.0);
  std::atomic<int> loads{0};
  std::vector<OperatorKey> keys;
  for (int k = 0; k < 6; ++k) {
    keys.push_back(OperatorKey{std::string(1, static_cast<char>('a' + k)), 12, 1e-4});
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const OperatorKey& key = keys[static_cast<std::size_t>((i * 7 + t) % 6)];
        const auto v = cache.get_or_load(key, [&] {
          loads.fetch_add(1);
          return resident_of(100.0);
        });
        ASSERT_NE(v, nullptr);
        ASSERT_DOUBLE_EQ(v->bytes, 100.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto s = cache.stats();
  EXPECT_EQ(s.loads, static_cast<std::uint64_t>(loads.load()));
  EXPECT_EQ(s.hits + s.misses, 8u * 200u);
  EXPECT_EQ(s.misses, s.loads);
  EXPECT_EQ(s.loads, s.evictions + s.entries);
  EXPECT_DOUBLE_EQ(s.bytes_resident, 100.0 * static_cast<double>(s.entries));
}

// -------------------------------------------------------------- service --

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

/// One archive on disk, shared by every service test (built once).
const std::string& archive_path() {
  static const TempFile file("tlrwse_serve_test.tlra");
  static const bool built = [] {
    tlr::CompressionConfig cc;
    cc.nb = 12;
    cc.acc = 1e-4;
    io::save_archive(file.path, io::build_archive(dataset(), cc));
    return true;
  }();
  (void)built;
  return file.path;
}

OperatorKey archive_key() { return OperatorKey{archive_path(), 12, 1e-4}; }

SolveRequest make_request(RequestKind kind, index_t vsrc, int iters) {
  SolveRequest req;
  req.op = archive_key();
  req.kind = kind;
  req.vsrc = vsrc;
  req.rhs = mdd::virtual_source_rhs(dataset(), vsrc);
  req.lsqr.max_iters = iters;
  return req;
}

/// One lifecycle counter of the service's registry ("serve.*").
std::uint64_t counter(const SolveService& service, const char* name) {
  return service.registry().snapshot().counters.at(name);
}

std::int64_t gauge(const SolveService& service, const char* name) {
  return service.registry().snapshot().gauges.at(name);
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SolveService, ConcurrentClientsMatchSequentialBitwise) {
  // 8 closed-loop clients x 2 requests against one archive, mixed adjoint
  // and LSQR. Acceptance: every response is bitwise identical to the
  // sequential solve of a freshly loaded operator, and the archive was
  // loaded exactly once.
  constexpr int kClients = 8;
  constexpr int kPerClient = 2;
  constexpr int kIters = 6;
  const index_t nvsrc = 4;

  // Sequential references, full default OpenMP team (the service caps its
  // inner teams; PR 1's thread-count invariance makes that bitwise-safe).
  const auto archive = io::load_archive(archive_path());
  const auto reference_op = io::make_operator(archive);
  std::vector<std::vector<float>> ref_adjoint, ref_lsqr;
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = kIters;
  for (index_t v = 0; v < nvsrc; ++v) {
    const auto rhs = mdd::virtual_source_rhs(dataset(), v);
    ref_adjoint.push_back(mdd::adjoint_reflectivity(*reference_op, rhs));
    ref_lsqr.push_back(mdd::solve_mdd(*reference_op, rhs, lsqr).x);
  }

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 64;
  cfg.max_batch = 4;
  SolveService service(cfg);

  std::vector<std::thread> clients;
  std::vector<SolveResponse> responses(kClients * kPerClient);
  std::vector<RequestKind> kinds(kClients * kPerClient);
  std::vector<index_t> vsrcs(kClients * kPerClient);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const int j = c * kPerClient + r;
        const auto kind = j % 2 == 0 ? RequestKind::kAdjoint : RequestKind::kLsqr;
        const index_t v = j % nvsrc;
        kinds[static_cast<std::size_t>(j)] = kind;
        vsrcs[static_cast<std::size_t>(j)] = v;
        responses[static_cast<std::size_t>(j)] =
            service.submit(make_request(kind, v, kIters)).get();
      }
    });
  }
  for (auto& t : clients) t.join();

  for (int j = 0; j < kClients * kPerClient; ++j) {
    const auto& r = responses[static_cast<std::size_t>(j)];
    ASSERT_EQ(r.status, SolveStatus::kOk) << "request " << j << ": " << r.error;
    EXPECT_EQ(r.vsrc, vsrcs[static_cast<std::size_t>(j)]);
    const auto& ref = kinds[static_cast<std::size_t>(j)] == RequestKind::kAdjoint
                          ? ref_adjoint[static_cast<std::size_t>(r.vsrc)]
                          : ref_lsqr[static_cast<std::size_t>(r.vsrc)];
    EXPECT_TRUE(bitwise_equal(r.x, ref)) << "request " << j;
  }

  const auto m = service.metrics();
  const auto& counters = m.snapshot.counters;
  EXPECT_EQ(counters.at("serve.submitted"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(counters.at("serve.completed"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.cache.loads, 1u) << "archive must be loaded exactly once";
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.hits, counters.at("serve.batches") - 1);
  for (const auto& h : m.snapshot.histograms) {
    if (h.name != "serve.latency_s") continue;
    EXPECT_EQ(h.snap.count, static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_GT(h.snap.max, 0.0);
  }
}

TEST(SolveService, SharedBasisArchiveServedAndChargedSharedBytes) {
  // A shared-basis ("TLRS") archive goes through the same admission and
  // cache path: the service dispatches on the peeked header, the resident
  // entry charges the band-shared payload bytes (not the per-frequency
  // expansion), and responses are bitwise equal to a direct solve on an
  // operator rebuilt from the same file.
  TempFile file("tlrwse_serve_shared.tlrs");
  tlr::SharedBasisConfig sc;
  sc.nb = 12;
  sc.acc = 1e-4;
  const auto shared = io::build_shared_archive(dataset(), sc, 4);
  io::save_shared_archive(file.path, shared);

  const auto reference_op = io::make_operator(io::load_shared_archive(file.path));
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 6;
  const index_t v = 2;
  const auto rhs = mdd::virtual_source_rhs(dataset(), v);
  const auto ref = mdd::solve_mdd(*reference_op, rhs, lsqr).x;

  ServiceConfig cfg;
  cfg.workers = 2;
  SolveService service(cfg);
  SolveRequest req;
  req.op = OperatorKey{file.path, sc.nb, sc.acc};
  req.kind = RequestKind::kLsqr;
  req.vsrc = v;
  req.rhs = rhs;
  req.lsqr.max_iters = 6;
  const auto resp = service.submit(std::move(req)).get();
  ASSERT_EQ(resp.status, SolveStatus::kOk) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.x, ref));

  const auto m = service.metrics();
  EXPECT_EQ(m.cache.loads, 1u);
  // Residency is charged at the shared payload — exactly the number the
  // header advertises to admission control.
  EXPECT_DOUBLE_EQ(m.cache.bytes_resident, shared.shared_bytes());
  EXPECT_DOUBLE_EQ(io::peek_archive(file.path).payload_bytes,
                   shared.shared_bytes());
  EXPECT_GT(m.cache.datasets_per_gb(), 0.0);
}

TEST(SolveService, HalfArchiveChargedPackedBytesAndGaugesReportWin) {
  // A quantized (all-fp16) archive is admitted at its true packed bytes —
  // ~2x datasets_per_gb vs the fp32 twin — while the serve.cache.* gauges
  // report both the packed and the fp32-equivalent footprint so the
  // capacity win is observable. Solves stay bitwise equal to a direct
  // operator rebuilt from the same file.
  TempFile file("tlrwse_serve_fp16.tlra");
  tlr::CompressionConfig cc;
  cc.nb = 12;
  cc.acc = 1e-4;
  auto archive = io::build_archive(dataset(), cc);
  const double fp32_bytes = archive.compressed_bytes();
  tlr::MixedPrecisionPolicy policy;
  policy.fp16_below = 2.0;  // every tile
  policy.bf16_below = 0.0;
  io::quantize_archive(archive, policy);
  io::save_archive(file.path, archive);

  const auto reference_op = io::make_operator(io::load_archive(file.path));
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 6;
  const index_t v = 2;
  const auto rhs = mdd::virtual_source_rhs(dataset(), v);
  const auto ref = mdd::solve_mdd(*reference_op, rhs, lsqr).x;

  ServiceConfig cfg;
  cfg.workers = 2;
  SolveService service(cfg);
  SolveRequest req;
  req.op = OperatorKey{file.path, cc.nb, cc.acc};
  req.kind = RequestKind::kLsqr;
  req.vsrc = v;
  req.rhs = rhs;
  req.lsqr.max_iters = 6;
  const auto resp = service.submit(std::move(req)).get();
  ASSERT_EQ(resp.status, SolveStatus::kOk) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.x, ref));

  const auto m = service.metrics();
  EXPECT_DOUBLE_EQ(m.cache.bytes_resident, archive.compressed_bytes());
  EXPECT_NEAR(m.cache.bytes_resident, fp32_bytes / 2.0, 1e-6 * fp32_bytes);
  EXPECT_DOUBLE_EQ(m.cache.bytes_resident_fp32, fp32_bytes);
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(snap.gauges.at("serve.cache.packed_bytes"),
            static_cast<std::int64_t>(m.cache.bytes_resident));
  EXPECT_EQ(snap.gauges.at("serve.cache.fp32_equiv_bytes"),
            static_cast<std::int64_t>(m.cache.bytes_resident_fp32));
}

/// Holds the single worker inside an LSQR iteration until released, giving
/// the backpressure tests a deterministic "service is busy" state.
struct Blocker {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<SolveResponse> response;

  void start(SolveService& service) {
    SolveRequest req = make_request(RequestKind::kLsqr, 0, 30);
    auto gate = released;
    req.lsqr.should_stop = [gate] {
      gate.wait();
      return true;
    };
    response = service.submit(std::move(req));
  }
  /// Waits until the worker has dequeued the blocker (queue drained).
  void wait_until_running(SolveService& service) {
    while (gauge(service, "serve.queue_depth") > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(SolveService, CoalescedAdjointsShareOneMultiRhsSweep) {
  // Hold the single worker busy so four adjoint requests pile up into one
  // per-operator batch; on release the worker must serve them with a
  // single multi-RHS adjoint sweep (serve.multi_rhs counts the tickets),
  // and every response must stay bitwise identical to the sequential
  // single-RHS solve.
  constexpr index_t kAdjoints = 4;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.max_batch = 8;
  SolveService service(cfg);

  const auto archive = io::load_archive(archive_path());
  const auto reference_op = io::make_operator(archive);
  std::vector<std::vector<float>> refs;
  for (index_t v = 0; v < kAdjoints; ++v) {
    refs.push_back(mdd::adjoint_reflectivity(
        *reference_op, mdd::virtual_source_rhs(dataset(), v)));
  }

  Blocker blocker;
  blocker.start(service);
  blocker.wait_until_running(service);

  std::vector<std::future<SolveResponse>> futures;
  for (index_t v = 0; v < kAdjoints; ++v) {
    futures.push_back(service.submit(make_request(RequestKind::kAdjoint, v, 6)));
  }
  blocker.release.set_value();
  EXPECT_EQ(blocker.response.get().status, SolveStatus::kOk);

  for (index_t v = 0; v < kAdjoints; ++v) {
    const auto r = futures[static_cast<std::size_t>(v)].get();
    ASSERT_EQ(r.status, SolveStatus::kOk) << r.error;
    EXPECT_EQ(r.vsrc, v);
    EXPECT_EQ(r.batch_size, static_cast<std::size_t>(kAdjoints));
    EXPECT_TRUE(bitwise_equal(r.x, refs[static_cast<std::size_t>(v)]))
        << "vsrc " << v;
  }

  const auto snap = service.registry().snapshot();
  EXPECT_EQ(snap.counters.at("serve.multi_rhs"),
            static_cast<std::uint64_t>(kAdjoints));
  EXPECT_EQ(snap.counters.at("serve.coalesced"),
            static_cast<std::uint64_t>(kAdjoints));
}

TEST(SolveService, QueueFullIsTypedAndNonBlocking) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  SolveService service(cfg);

  Blocker blocker;
  blocker.start(service);
  blocker.wait_until_running(service);

  // The single queue slot takes one more request; the burst after it must
  // be rejected immediately with the typed status, not block.
  auto admitted = service.submit(make_request(RequestKind::kAdjoint, 1, 6));
  std::vector<std::future<SolveResponse>> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(service.submit(make_request(RequestKind::kAdjoint, 2, 6)));
  }
  for (auto& f : burst) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "rejection must resolve immediately";
    const auto r = f.get();
    EXPECT_EQ(r.status, SolveStatus::kQueueFull);
    EXPECT_FALSE(r.error.empty());
  }

  blocker.release.set_value();
  // The blocker aborted via its own hook with no deadline set: that is a
  // normal (if early) completion, solved in exactly one iteration.
  const auto b = blocker.response.get();
  EXPECT_EQ(b.status, SolveStatus::kOk);
  EXPECT_EQ(b.iterations, 1);
  EXPECT_EQ(admitted.get().status, SolveStatus::kOk);

  EXPECT_EQ(counter(service, "serve.rejected_queue_full"), 4u);
  EXPECT_EQ(counter(service, "serve.completed"), 2u);
  EXPECT_EQ(gauge(service, "serve.queue_peak_depth"), 1);
}

TEST(SolveService, DeadlineExceededWhileQueued) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  SolveService service(cfg);

  Blocker blocker;
  blocker.start(service);
  blocker.wait_until_running(service);

  SolveRequest doomed = make_request(RequestKind::kLsqr, 1, 6);
  doomed.deadline_s = 1e-3;
  auto f = service.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker.release.set_value();

  const auto r = f.get();
  EXPECT_EQ(r.status, SolveStatus::kDeadlineExceeded);
  EXPECT_TRUE(r.x.empty());  // dropped at dequeue, no solve work spent
  EXPECT_GE(r.queue_wait_s, 1e-3);
  EXPECT_EQ(blocker.response.get().status, SolveStatus::kOk);
  EXPECT_EQ(counter(service, "serve.rejected_deadline"), 1u);
}

TEST(SolveService, MissingArchiveRejectedAtAdmission) {
  SolveService service{ServiceConfig{}};
  SolveRequest req;
  req.op = OperatorKey{"/nonexistent/survey.tlra", 12, 1e-4};
  req.vsrc = 0;
  req.rhs.assign(128, 0.0f);
  auto f = service.submit(std::move(req));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  const auto r = f.get();
  EXPECT_EQ(r.status, SolveStatus::kArchiveMissing);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(counter(service, "serve.rejected_archive_missing"), 1u);
  EXPECT_EQ(counter(service, "serve.admitted"), 0u);
}

TEST(SolveService, ShutdownDrainsAdmittedRequests) {
  ServiceConfig cfg;
  cfg.workers = 2;
  SolveService service(cfg);
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(make_request(RequestKind::kAdjoint, i % 3, 6)));
  }
  service.shutdown();  // must finish everything already admitted
  for (auto& f : futures) EXPECT_EQ(f.get().status, SolveStatus::kOk);

  // A closed service rejects new work as backpressure, without blocking.
  auto late = service.submit(make_request(RequestKind::kAdjoint, 0, 6));
  EXPECT_EQ(late.get().status, SolveStatus::kQueueFull);
  service.shutdown();  // idempotent
}

/// Runs a mixed adjoint/LSQR load to completion and shuts the service down,
/// so nothing writes to its registry afterwards.
void run_quiescent(SolveService& service, int requests) {
  std::vector<std::future<SolveResponse>> futures;
  for (int j = 0; j < requests; ++j) {
    const auto kind = j % 2 == 0 ? RequestKind::kAdjoint : RequestKind::kLsqr;
    futures.push_back(service.submit(make_request(kind, j % 3, 4)));
  }
  for (auto& f : futures) ASSERT_EQ(f.get().status, SolveStatus::kOk);
  service.shutdown();
}

TEST(SolveService, MetricsJsonHasStableKeys) {
  // The registry is the service's only metrics store: metrics_json() and
  // the Prometheus text both render its snapshot, so lifecycle counters,
  // cache gauges, latency histograms and SLO gauges appear under the same
  // names in both.
  SolveService service{ServiceConfig{}};
  run_quiescent(service, 2);

  const std::string json = service.metrics_json();
  EXPECT_EQ(json, service.registry().snapshot().to_json());
  const std::string prom =
      obs::metrics_to_prometheus_text(service.registry().snapshot());
  for (const char* name :
       {"serve.submitted", "serve.completed", "serve.cache.hits",
        "serve.cache.fp32_equiv_bytes", "serve.latency_s",
        "serve.slo.p99_us"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << "json misses " << name;
    EXPECT_NE(prom.find(obs::prometheus_metric_name(name)), std::string::npos)
        << "prometheus misses " << name;
  }
  for (const char* k : {"\"counters\"", "\"gauges\"", "\"histograms\""}) {
    EXPECT_NE(json.find(k), std::string::npos) << "missing key " << k;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsServeParity, ServiceMetricsAgreesBitwiseWithRegistrySnapshot) {
  // ServiceMetrics is the registry snapshot plus the cache's own stats: at
  // a quiescent point its snapshot equals the registry's, and the
  // serve.cache.* gauges equal the CacheStats it carries.
  ServiceConfig cfg;
  cfg.workers = 2;
  SolveService service(cfg);
  constexpr int kRequests = 4;
  run_quiescent(service, kRequests);

  const auto m = service.metrics();
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(m.snapshot.counters, snap.counters);
  EXPECT_EQ(m.snapshot.gauges, snap.gauges);
  EXPECT_EQ(m.snapshot.to_json(), snap.to_json());

  const auto& counters = snap.counters;
  const auto& gauges = snap.gauges;
  const auto i = [](auto v) { return static_cast<std::int64_t>(v); };
  EXPECT_EQ(counters.at("serve.submitted"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(counters.at("serve.completed"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(gauges.at("serve.cache.hits"), i(m.cache.hits));
  EXPECT_EQ(gauges.at("serve.cache.misses"), i(m.cache.misses));
  EXPECT_EQ(gauges.at("serve.cache.loads"), i(m.cache.loads));
  EXPECT_EQ(gauges.at("serve.cache.load_failures"), i(m.cache.load_failures));
  EXPECT_EQ(gauges.at("serve.cache.evictions"), i(m.cache.evictions));
  EXPECT_EQ(gauges.at("serve.cache.bytes_evicted"), i(m.cache.bytes_evicted));
  EXPECT_EQ(gauges.at("serve.cache.entries"), i(m.cache.entries));
  EXPECT_EQ(gauges.at("serve.cache.budget_bytes"), i(cfg.cache_budget_bytes));
  EXPECT_EQ(gauges.at("serve.cache.packed_bytes"), i(m.cache.bytes_resident));
  EXPECT_EQ(gauges.at("serve.cache.fp32_equiv_bytes"),
            i(m.cache.bytes_resident_fp32));
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.loads, 1u);
  EXPECT_EQ(m.cache.entries, 1u);
  // One latency/queue-wait/solve sample per completed request.
  for (const auto& h : snap.histograms) {
    if (h.name == "serve.latency_s" || h.name == "serve.queue_wait_s" ||
        h.name == "serve.solve_s") {
      EXPECT_EQ(h.snap.count, counters.at("serve.completed")) << h.name;
      EXPECT_GE(h.snap.max, 0.0) << h.name;
    }
  }
}

TEST(SolveService, LoadFailureIsPublishedToTheCacheGauges) {
  // An archive that passes the admission peek but cannot load counts as a
  // cache load failure, and the gauges say so without another request.
  TempFile file("tlrwse_serve_truncated.tlra");
  {
    tlr::CompressionConfig cc;
    cc.nb = 12;
    cc.acc = 1e-4;
    io::save_archive(file.path, io::build_archive(dataset(), cc));
    std::filesystem::resize_file(
        file.path, std::filesystem::file_size(file.path) / 2);
  }
  SolveService service{ServiceConfig{}};
  SolveRequest req = make_request(RequestKind::kAdjoint, 0, 1);
  req.op = OperatorKey{file.path, 12, 1e-4};
  const auto r = service.submit(std::move(req)).get();
  EXPECT_EQ(r.status, SolveStatus::kError) << r.error;
  EXPECT_EQ(gauge(service, "serve.cache.load_failures"), 1);
  EXPECT_EQ(gauge(service, "serve.cache.loads"), 0);
  EXPECT_EQ(gauge(service, "serve.cache.entries"), 0);
}

TEST(ToString, CoversEveryStatus) {
  EXPECT_STREQ(to_string(SolveStatus::kOk), "ok");
  EXPECT_STREQ(to_string(SolveStatus::kQueueFull), "queue_full");
  EXPECT_STREQ(to_string(SolveStatus::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(SolveStatus::kArchiveMissing), "archive_missing");
  EXPECT_STREQ(to_string(SolveStatus::kError), "error");
}

}  // namespace
}  // namespace tlrwse::serve
