// One lifecycle suite for the request engine, run against both operator
// sources: the local OperatorCache-backed source and the remote source over
// an in-process fleet (LocalChannel round-trips every frame through the
// real encode/decode path). Every case drives serve::Frontend directly, so
// admission, queueing, deadlines, cancel, quotas, coalescing and the SLO
// window are proven once for whatever the operator lives behind.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "tlrwse/cluster/frontend.hpp"
#include "tlrwse/cluster/transport.hpp"
#include "tlrwse/cluster/worker.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/seismic/modeling.hpp"
#include "tlrwse/serve/frontend.hpp"
#include "tlrwse/serve/solve_service.hpp"

namespace tlrwse::serve {
namespace {

using namespace std::chrono_literals;

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

/// One per-frequency archive on disk, built once per process.
const std::string& archive_path() {
  static const TempFile file("tlrwse_frontend_test.tlra");
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

SolveRequest make_request(RequestKind kind, index_t vsrc, int iters = 6) {
  SolveRequest req;
  req.op = OperatorKey{archive_path(), 12, 1e-4};
  req.kind = kind;
  req.vsrc = vsrc;
  req.rhs = mdd::virtual_source_rhs(dataset(), vsrc);
  req.lsqr.max_iters = iters;
  return req;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

enum class Source { kLocal, kRemote };

/// The engine over one source, wired the way the facades wire it. Members
/// tear down in reverse: engine, then source (closing the fleet's
/// clients), then the in-process workers behind them.
struct Engine {
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<cluster::ShardWorker>> workers;
  std::unique_ptr<OperatorSource> source;
  std::unique_ptr<Frontend> frontend;

  Engine(Source kind, const FrontendConfig& cfg) {
    if (kind == Source::kLocal) {
      ServiceConfig sc;
      sc.workers = cfg.workers;
      source = std::make_unique<LocalSource>(sc, registry);
    } else {
      std::vector<std::unique_ptr<cluster::WorkerClient>> fleet;
      for (int i = 0; i < 2; ++i) {
        workers.push_back(std::make_unique<cluster::ShardWorker>());
        cluster::ShardWorker* worker = workers.back().get();
        fleet.push_back(std::make_unique<cluster::WorkerClient>(
            std::make_unique<cluster::LocalChannel>(
                [worker](const cluster::Frame& f) {
                  return worker->handle(f);
                }),
            "w" + std::to_string(i)));
      }
      source = std::make_unique<cluster::RemoteSource>(
          cluster::PlannerConfig{}, std::move(fleet), registry);
    }
    frontend = std::make_unique<Frontend>(cfg, *source, registry);
  }

  SubmittedRequest submit(SolveRequest req) {
    return frontend->submit(std::move(req));
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    return registry.snapshot().counters.at(
        std::string(source->metric_prefix()) + "." + name);
  }
  [[nodiscard]] std::int64_t gauge(const std::string& name) const {
    return registry.snapshot().gauges.at(
        std::string(source->metric_prefix()) + "." + name);
  }
};

/// Holds the engine's single worker inside an LSQR iteration until
/// released, giving each case a deterministic "engine is busy" state.
struct Blocker {
  std::shared_ptr<std::atomic<bool>> entered =
      std::make_shared<std::atomic<bool>>(false);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  SubmittedRequest handle;

  /// `stop_when_released` is what the caller's own hook answers after the
  /// gate opens (true: a normal early completion after one iteration).
  void start(Engine& engine, const std::string& tenant = "",
             bool stop_when_released = true) {
    SolveRequest req = make_request(RequestKind::kLsqr, 0, 50);
    req.tenant = tenant;
    req.lsqr.should_stop = [entered = entered, gate = gate,
                            stop_when_released] {
      entered->store(true);
      gate.wait();
      return stop_when_released;
    };
    handle = engine.submit(std::move(req));
    while (!entered->load()) std::this_thread::sleep_for(1ms);
  }
  SolveResponse finish() {
    release.set_value();
    return handle.response.get();
  }
};

class EngineLifecycle : public ::testing::TestWithParam<Source> {
 protected:
  static FrontendConfig single_worker() {
    FrontendConfig cfg;
    cfg.workers = 1;
    return cfg;
  }
};

TEST_P(EngineLifecycle, MissingArchiveRejectedAtAdmission) {
  Engine engine(GetParam(), FrontendConfig{});
  SolveRequest req;
  req.op = OperatorKey{"/nonexistent/survey.tlra", 12, 1e-4};
  req.kind = RequestKind::kAdjoint;
  req.rhs.assign(128, 0.0f);
  auto handle = engine.submit(std::move(req));
  ASSERT_EQ(handle.response.wait_for(5s), std::future_status::ready)
      << "rejection must resolve at admission";
  const auto r = handle.response.get();
  EXPECT_EQ(r.status, SolveStatus::kArchiveMissing);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.request_id, handle.request_id);
  EXPECT_EQ(engine.counter("rejected_archive_missing"), 1u);
  EXPECT_EQ(engine.counter("admitted"), 0u);
}

TEST_P(EngineLifecycle, TruncatedArchiveIsAnErrorOnBothSources) {
  // Half an archive passes the admission peek (its header is intact) but
  // cannot load: the file exists, so the failure is kError, not missing.
  TempFile cut("tlrwse_frontend_truncated.tlra");
  {
    std::ifstream in(archive_path(), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    std::ofstream out(cut.path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  Engine engine(GetParam(), FrontendConfig{});
  SolveRequest req = make_request(RequestKind::kAdjoint, 1);
  req.op.archive_id = cut.path;
  const auto r = engine.submit(std::move(req)).response.get();
  EXPECT_EQ(r.status, SolveStatus::kError) << r.error;
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(engine.counter("admitted"), 1u);
  EXPECT_EQ(engine.counter("failed"), 1u);
}

TEST_P(EngineLifecycle, QueueFullIsTypedAndNonBlocking) {
  FrontendConfig cfg = single_worker();
  cfg.queue_capacity = 1;
  Engine engine(GetParam(), cfg);
  Blocker blocker;
  blocker.start(engine);

  // The single queue slot takes one more request; the burst after it must
  // be rejected immediately with the typed status, not block.
  auto admitted = engine.submit(make_request(RequestKind::kAdjoint, 1));
  std::vector<SubmittedRequest> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(engine.submit(make_request(RequestKind::kAdjoint, 2)));
  }
  for (auto& h : burst) {
    ASSERT_EQ(h.response.wait_for(5s), std::future_status::ready);
    const auto r = h.response.get();
    EXPECT_EQ(r.status, SolveStatus::kQueueFull);
    EXPECT_FALSE(r.error.empty());
  }

  // The blocker stopped via its own hook with no deadline set: a normal
  // (if early) completion after exactly one iteration.
  const auto b = blocker.finish();
  EXPECT_EQ(b.status, SolveStatus::kOk) << b.error;
  EXPECT_EQ(b.iterations, 1);
  EXPECT_EQ(admitted.response.get().status, SolveStatus::kOk);
  EXPECT_EQ(engine.counter("rejected_queue_full"), 4u);
  EXPECT_EQ(engine.counter("completed"), 2u);
  EXPECT_EQ(engine.gauge("queue_peak_depth"), 1);
}

TEST_P(EngineLifecycle, DeadlineExpiredWhileQueued) {
  Engine engine(GetParam(), single_worker());
  Blocker blocker;
  blocker.start(engine);

  SolveRequest doomed = make_request(RequestKind::kLsqr, 1);
  doomed.deadline_s = 1e-3;
  auto handle = engine.submit(std::move(doomed));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(blocker.finish().status, SolveStatus::kOk);

  const auto r = handle.response.get();
  EXPECT_EQ(r.status, SolveStatus::kDeadlineExceeded);
  EXPECT_TRUE(r.x.empty());  // dropped at dequeue, no solve work spent
  EXPECT_EQ(r.solve_s, 0.0);
  EXPECT_GE(r.queue_wait_s, 1e-3);
  EXPECT_EQ(engine.counter("rejected_deadline"), 1u);
}

TEST_P(EngineLifecycle, CancelWhileQueued) {
  FrontendConfig cfg = single_worker();
  cfg.max_batch = 1;
  Engine engine(GetParam(), cfg);
  Blocker blocker;
  blocker.start(engine);

  // The victim sits behind the blocked solve; the cancel lands while it
  // is still queued, so it rejects at dequeue without any solve work.
  auto victim = engine.submit(make_request(RequestKind::kLsqr, 3));
  engine.frontend->cancel(victim.request_id);
  EXPECT_EQ(blocker.finish().status, SolveStatus::kOk);
  const auto r = victim.response.get();
  EXPECT_EQ(r.status, SolveStatus::kCancelled);
  EXPECT_TRUE(r.x.empty());
  EXPECT_EQ(engine.counter("cancelled"), 1u);
}

TEST_P(EngineLifecycle, CancelInFlight) {
  Engine engine(GetParam(), single_worker());
  // The caller's hook never stops the solve itself; only the cancel can.
  Blocker running;
  running.start(engine, "", /*stop_when_released=*/false);
  engine.frontend->cancel(running.handle.request_id);
  const auto r = running.finish();
  EXPECT_EQ(r.status, SolveStatus::kCancelled);
  EXPECT_LT(r.iterations, 50);
  EXPECT_GT(r.solve_s, 0.0);
  EXPECT_EQ(engine.counter("cancelled"), 1u);
  // Cancelling a finished request is a no-op.
  engine.frontend->cancel(running.handle.request_id);
  EXPECT_EQ(engine.counter("cancelled"), 1u);
}

TEST_P(EngineLifecycle, TenantQuotaRejectsAndReleases) {
  FrontendConfig cfg = single_worker();
  cfg.tenant_quota = 1;
  Engine engine(GetParam(), cfg);
  Blocker blocker;
  blocker.start(engine, "acme");  // in flight: acme's quota is charged

  auto second = make_request(RequestKind::kLsqr, 3);
  second.tenant = "acme";
  const auto rejected = engine.submit(std::move(second)).response.get();
  EXPECT_EQ(rejected.status, SolveStatus::kQuotaExceeded);
  // Quotas are per tenant: another tenant is still admitted.
  auto other = make_request(RequestKind::kAdjoint, 1);
  other.tenant = "zeta";
  auto other_handle = engine.submit(std::move(other));

  EXPECT_EQ(blocker.finish().status, SolveStatus::kOk);
  EXPECT_EQ(other_handle.response.get().status, SolveStatus::kOk);
  // Released on completion: the same tenant is admitted again.
  auto third = make_request(RequestKind::kLsqr, 3);
  third.tenant = "acme";
  EXPECT_EQ(engine.submit(std::move(third)).response.get().status,
            SolveStatus::kOk);
  EXPECT_EQ(engine.counter("rejected_quota"), 1u);
}

TEST_P(EngineLifecycle, CoalescedAdjointsMatchSingleProcessBitwise) {
  constexpr index_t kAdjoints = 4;
  const auto reference_op = io::make_operator(io::load_archive(archive_path()));
  FrontendConfig cfg = single_worker();
  cfg.max_batch = 8;
  Engine engine(GetParam(), cfg);
  Blocker blocker;
  blocker.start(engine);

  // Deadline-free adjoints pile up into one per-operator batch and are
  // served by a single multi-RHS sweep on release.
  std::vector<SubmittedRequest> handles;
  for (index_t v = 0; v < kAdjoints; ++v) {
    handles.push_back(engine.submit(make_request(RequestKind::kAdjoint, v)));
  }
  EXPECT_EQ(blocker.finish().status, SolveStatus::kOk);
  for (index_t v = 0; v < kAdjoints; ++v) {
    const auto r = handles[static_cast<std::size_t>(v)].response.get();
    ASSERT_EQ(r.status, SolveStatus::kOk) << r.error;
    EXPECT_EQ(r.vsrc, v);
    EXPECT_EQ(r.batch_size, static_cast<std::size_t>(kAdjoints));
    EXPECT_TRUE(bitwise_equal(
        r.x, mdd::adjoint_reflectivity(*reference_op,
                                       mdd::virtual_source_rhs(dataset(), v))))
        << "vsrc " << v;
  }
  EXPECT_EQ(engine.counter("multi_rhs"), static_cast<std::uint64_t>(kAdjoints));
}

TEST_P(EngineLifecycle, SloWindowCountsRejects) {
  Engine engine(GetParam(), single_worker());
  SolveRequest missing = make_request(RequestKind::kAdjoint, 0);
  missing.op.archive_id = "/nonexistent/survey.tlra";
  EXPECT_EQ(engine.submit(std::move(missing)).response.get().status,
            SolveStatus::kArchiveMissing);
  SolveRequest expired = make_request(RequestKind::kAdjoint, 0);
  expired.deadline_s = 1e-9;
  EXPECT_EQ(engine.submit(std::move(expired)).response.get().status,
            SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(engine.submit(make_request(RequestKind::kAdjoint, 1))
                .response.get()
                .status,
            SolveStatus::kOk);

  const auto win = engine.frontend->slo_window();
  EXPECT_EQ(win.count, 3u);
  EXPECT_EQ(win.errors, 2u);
}

TEST_P(EngineLifecycle, MetricNamesMatchTheOtherSource) {
  // Both sources describe the engine in one vocabulary: after the same
  // lifecycle, every name this source's registry holds (prefix stripped)
  // also exists under the other source's prefix, apart from the names only
  // one source has — the local cache gauges, the remote placement and
  // worker counters. The two instantiations check the two directions.
  const auto names_after_lifecycle = [](Source kind) {
    Engine engine(kind, FrontendConfig{});
    SolveRequest missing = make_request(RequestKind::kAdjoint, 0);
    missing.op.archive_id = "/nonexistent/survey.tlra";
    SolveRequest expired = make_request(RequestKind::kAdjoint, 0);
    expired.deadline_s = 1e-9;
    EXPECT_EQ(engine.submit(std::move(missing)).response.get().status,
              SolveStatus::kArchiveMissing);
    EXPECT_EQ(engine.submit(std::move(expired)).response.get().status,
              SolveStatus::kDeadlineExceeded);
    EXPECT_EQ(engine.submit(make_request(RequestKind::kAdjoint, 1))
                  .response.get()
                  .status,
              SolveStatus::kOk);
    EXPECT_EQ(engine.submit(make_request(RequestKind::kLsqr, 2))
                  .response.get()
                  .status,
              SolveStatus::kOk);
    const auto snap = engine.registry.snapshot();
    const std::string prefix =
        std::string(engine.source->metric_prefix()) + ".";
    std::set<std::string> names;
    const auto add = [&](const std::string& name) {
      EXPECT_EQ(name.rfind(prefix, 0), 0u) << name;
      names.insert(name.substr(prefix.size()));
    };
    for (const auto& [name, v] : snap.counters) add(name);
    for (const auto& [name, v] : snap.gauges) add(name);
    for (const auto& h : snap.histograms) add(h.name);
    return names;
  };
  const auto source_specific = [](const std::string& name) {
    return name.rfind("cache.", 0) == 0 || name == "placements" ||
           name == "replans" || name == "worker_deaths";
  };
  const Source other =
      GetParam() == Source::kLocal ? Source::kRemote : Source::kLocal;
  const std::set<std::string> mine = names_after_lifecycle(GetParam());
  const std::set<std::string> theirs = names_after_lifecycle(other);
  for (const char* lifecycle :
       {"submitted", "completed", "rejected_archive_missing",
        "rejected_deadline", "latency_s", "queue_peak_depth", "slo.p99_us",
        "stage.lsqr_s"}) {
    EXPECT_EQ(mine.count(lifecycle), 1u) << lifecycle;
  }
  for (const std::string& name : mine) {
    if (source_specific(name)) continue;
    EXPECT_EQ(theirs.count(name), 1u) << name << " has no twin";
  }
}

INSTANTIATE_TEST_SUITE_P(Sources, EngineLifecycle,
                         ::testing::Values(Source::kLocal, Source::kRemote),
                         [](const ::testing::TestParamInfo<Source>& p) {
                           return p.param == Source::kLocal ? "local"
                                                            : "remote";
                         });

}  // namespace
}  // namespace tlrwse::serve
