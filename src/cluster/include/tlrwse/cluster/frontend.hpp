// Distributed serving tier, frontend half: the fleet connection, the
// placement of operators onto workers, and the remote MDC operator.
//
// The frontend keeps the whole solve loop local — rFFT, LSQR, inverse rFFT
// — and ships only the per-frequency kernel MVMs to the workers, as
// RemoteMdcOperator. Because the workers run the exact FrequencyMvm
// arithmetic over the exact gathered bytes a local MdcOperator would (and
// each frequency bin is owned by exactly one shard), a distributed solve
// is bitwise identical to the single-process SolveService solving the same
// archive. The request lifecycle (admission, quotas, cancel, deadlines,
// coalescing, stages, SLO) is serve::Frontend's; RemoteSource is its
// operator source and ClusterService the facade over the two.
//
// Failure semantics: a worker death surfaces as TransportError inside one
// shard exchange; the operator marks the worker dead, retries the shard on
// the next live replica, and only when no replica remains does the request
// fail — typed kWorkerFailed, never a hang. Deadlines and cancellation are
// polled through the engine's CancelScope before every fan-out (and by
// LSQR once per iteration); the remaining deadline also travels in each
// ApplyMsg, so a worker abandons an expired shard mid-loop. A cancel
// never goes on the wire: it stops the frontend dispatching, and the
// shard exchange already in flight finishes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tlrwse/cluster/shard_planner.hpp"
#include "tlrwse/cluster/transport.hpp"
#include "tlrwse/cluster/wire.hpp"
#include "tlrwse/mdc/band_transform.hpp"
#include "tlrwse/mdc/linear_operator.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/slo_tracker.hpp"
#include "tlrwse/obs/trace_merge.hpp"
#include "tlrwse/serve/frontend.hpp"
#include "tlrwse/serve/operator_cache.hpp"

namespace tlrwse::cluster {

/// Raised when a shard has no live replica left to serve an exchange —
/// typed kWorkerFailed degradation, not a hang.
class WorkerFailure : public serve::SourceError {
 public:
  explicit WorkerFailure(const std::string& what)
      : serve::SourceError(serve::SolveStatus::kWorkerFailed, what) {}
};

/// One connected worker. call_async() queues the frame for a sender
/// thread, which keeps up to two requests on the connection, and a
/// receiver thread hands the replies back in request order. Fan-out to N
/// workers overlaps, and a busy worker finds its next request already
/// sent when it finishes the current one instead of idling for a round
/// trip. A TransportError marks the worker dead and fails everything
/// queued or in flight — callers re-route to replicas.
class WorkerClient {
 public:
  WorkerClient(std::unique_ptr<Channel> channel, std::string name);
  ~WorkerClient();
  WorkerClient(const WorkerClient&) = delete;
  WorkerClient& operator=(const WorkerClient&) = delete;

  [[nodiscard]] std::future<Frame> call_async(Frame request);
  /// Convenience synchronous exchange; rethrows the exchange's error.
  [[nodiscard]] Frame call(Frame request);

  [[nodiscard]] bool alive() const noexcept {
    return !dead_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Finishes the queued exchanges, stops both threads and closes the
  /// channel (a dead worker's calls have already failed).
  void close();

 private:
  struct Pending {
    Frame request;
    std::promise<Frame> reply;
  };

  void send_loop();
  void receive_loop();
  void mark_dead(const TransportError& err);

  std::unique_ptr<Channel> channel_;
  std::string name_;
  std::atomic<bool> dead_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;                  // queued, not yet sent
  std::deque<std::promise<Frame>> in_flight_;    // sent, in request order
  bool stop_ = false;
  bool sent_all_ = false;     // the sender has exited
  std::exception_ptr death_;  // the TransportError that killed the worker
  std::thread sender_;
  std::thread receiver_;
};

/// Placement of one operator's frequencies onto the fleet.
struct ShardAssignment {
  std::uint32_t shard_id = 0;
  index_t q_begin = 0;  // archive frequency-index range of this shard
  index_t q_end = 0;
  std::vector<index_t> freq_bins;  // global rFFT bins, one per kernel
  /// Worker indices (into the fleet) holding this shard, in retry order.
  /// Sharded placements have one entry; replicated placements list every
  /// worker that finished the load.
  std::vector<std::size_t> workers;
};

struct Placement {
  index_t nt = 0;
  index_t ns = 0;
  index_t nr = 0;
  bool replicated = false;
  /// Shards in ascending frequency order; their bins, concatenated, are
  /// the operator's retained band.
  std::vector<ShardAssignment> shards;
  /// The band transform over those bins, built once per placement and
  /// shared by every request on it (null: each operator builds its own).
  std::shared_ptr<const mdc::BandTransform> transform;
};

/// The MDC operator y = F^H K F x with the K stage executed remotely: the
/// placement's band transform F runs locally into a frequency-major
/// spectrum, each shard's bins are one contiguous slice of it (the
/// ApplyMsg.data layout) exchanged with a live replica, the replies land
/// back contiguously (shards own disjoint bins and cover the band), and
/// F^H runs locally. One instance per request; the placement and fleet
/// are shared.
class RemoteMdcOperator final : public mdc::LinearOperator {
 public:
  /// Every apply polls the calling thread's mdc::CancelScope and
  /// `deadline_at` before its fan-out and aborts with mdc::CancelledError,
  /// mirroring the local operator's poll; the remaining deadline also
  /// rides each ApplyMsg. `on_worker_death` is notified once per worker
  /// this operator discovers dead. `rt` (optional, not owned, must outlive
  /// the operator) accumulates per-stage latency and — when
  /// rt->ctx.sampled — spans and clock samples for the merged timeline.
  RemoteMdcOperator(std::span<const std::unique_ptr<WorkerClient>> fleet,
                    std::shared_ptr<const Placement> placement,
                    std::uint64_t request_id,
                    std::chrono::steady_clock::time_point deadline_at = {},
                    std::function<void(std::size_t)> on_worker_death = {},
                    obs::RequestTrace* rt = nullptr);

  [[nodiscard]] index_t rows() const override;
  [[nodiscard]] index_t cols() const override;

  void apply(std::span<const float> x, std::span<float> y) const override;
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override;
  /// Batched forms (nrhs wavefields back to back), one multi-RHS panel per
  /// remote frequency — the cluster counterpart of MdcOperator's batched
  /// applies, every RHS bitwise identical to its single-RHS call.
  void apply_batch(std::span<const float> X, std::span<float> Y,
                   index_t nrhs) const;
  void apply_adjoint_batch(std::span<const float> Y, std::span<float> X,
                           index_t nrhs) const override;

 private:
  void run(std::span<const float> in, std::span<float> out, index_t nrhs,
           bool adjoint) const;
  /// One shard exchange with replica retry; `worker_s` receives the
  /// serving worker's compute seconds. Throws WorkerFailure when the
  /// replica list is exhausted, mdc::CancelledError on a typed
  /// kDeadlineExceeded reply.
  [[nodiscard]] ApplyOkMsg exchange(const ShardAssignment& shard,
                                    ApplyMsg msg, double& worker_s) const;
  /// Folds one successful exchange's reply into `rt_` (clock sample,
  /// participating-worker set) and returns the worker's compute seconds
  /// (0 when the stamps are inconsistent: no clock sample is taken).
  double note_exchange(std::size_t worker, std::uint64_t t0_ns,
                       std::uint64_t t3_ns, const ApplyOkMsg& ok) const;
  void check_abort() const;
  [[nodiscard]] double remaining_deadline_s() const;

  std::span<const std::unique_ptr<WorkerClient>> fleet_;
  std::shared_ptr<const Placement> placement_;
  std::uint64_t request_id_;
  std::chrono::steady_clock::time_point deadline_at_;
  std::function<void(std::size_t)> on_worker_death_;
  obs::RequestTrace* rt_ = nullptr;  // not owned; may be null
  std::shared_ptr<const mdc::BandTransform> transform_;
  mutable std::mutex scratch_mu_;
  mutable std::vector<cf32> in_spec_, out_spec_;
};

/// The request/response types are the engine's; the cluster names stay
/// for callers written against the distributed tier.
using ClusterStatus = serve::SolveStatus;
using ClusterRequest = serve::SolveRequest;
using ClusterResponse = serve::SolveResponse;
using SubmittedRequest = serve::SubmittedRequest;
using serve::to_string;

struct ClusterConfig {
  int frontend_workers = 2;         // concurrent solve batches
  std::size_t queue_capacity = 64;  // admission bound
  std::size_t max_batch = 4;        // per-operator coalescing limit
  /// Max in-flight (queued + solving) requests per tenant; 0 = unlimited.
  std::size_t tenant_quota = 0;
  PlannerConfig planner;            // num_workers is overridden per plan
  /// Latency/availability objectives for the rolling SLO window; latency
  /// breaches persist exemplars when `slo.exemplar_dir` is set.
  obs::SloConfig slo;
};

/// Operators resolved onto a worker fleet: deduplicated placement (shard
/// loads) per archive, one RemoteMdcOperator per request, replan after a
/// worker death, "cluster.*" placement and death counters.
class RemoteSource final : public serve::OperatorSource {
 public:
  RemoteSource(PlannerConfig planner,
               std::vector<std::unique_ptr<WorkerClient>> fleet,
               obs::MetricsRegistry& registry);

  [[nodiscard]] const char* metric_prefix() const override {
    return "cluster";
  }
  /// A cached (or in-flight) placement counts as held.
  [[nodiscard]] bool holds(const serve::OperatorKey& key) const override;
  /// Resolves the placement: kWorkerFailed when no live worker can take a
  /// shard, otherwise archive failures as serve::archive_load_error types
  /// them (kArchiveMissing only for an absent file).
  [[nodiscard]] std::unique_ptr<Lease> acquire(
      const serve::OperatorKey& key) override;
  /// Drops the cached placement after a failed solve so the next request
  /// for this operator replans over the workers still alive. Solves
  /// already holding the placement keep it.
  void invalidate(const serve::OperatorKey& key) override;
  /// kTraceDump every participating worker and clock-align its spans from
  /// the request's RPC timestamp pairs.
  void collect_trace(obs::RequestTrace& rt,
                     std::vector<obs::WorkerTrace>& out) override;

  [[nodiscard]] std::span<const std::unique_ptr<WorkerClient>> fleet()
      const noexcept {
    return fleet_;
  }
  void note_worker_death(std::size_t worker);

 private:
  [[nodiscard]] std::shared_ptr<const Placement> build_placement(
      const serve::OperatorKey& key);

  PlannerConfig planner_;
  std::vector<std::unique_ptr<WorkerClient>> fleet_;
  obs::Counter& worker_deaths_;
  obs::Counter& placements_;
  obs::Counter& replans_;
  std::atomic<std::uint32_t> next_shard_id_{1};

  mutable std::mutex mu_;
  std::unordered_map<serve::OperatorKey,
                     std::shared_future<std::shared_ptr<const Placement>>,
                     serve::OperatorKeyHash>
      placements_cache_;
  std::unordered_set<std::size_t> dead_noted_;
};

/// The RPC front door: serve::Frontend (bounded admission, per-tenant
/// quotas, cancel, deadlines, adjoint coalescing, stages, SLO) over a
/// RemoteSource, plus fleet-wide health and merged metrics views.
class ClusterService {
 public:
  ClusterService(ClusterConfig cfg,
                 std::vector<std::unique_ptr<WorkerClient>> workers);
  ~ClusterService();
  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  [[nodiscard]] SubmittedRequest submit(ClusterRequest req) {
    return engine_.submit(std::move(req));
  }

  /// Flags the request: queued requests reject at dequeue, in-flight
  /// solves abort before their next fan-out or LSQR iteration. Nothing is
  /// sent to the workers; an exchange already in flight completes.
  void cancel(std::uint64_t request_id) { engine_.cancel(request_id); }

  /// Stops admission, drains admitted requests, joins the solve workers,
  /// then asks every live remote worker to shut down. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t live_workers() const;
  /// Frontend-only metrics ("cluster.*" names).
  [[nodiscard]] const obs::MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  /// Frontend snapshot merged with every live worker's (worker.* names),
  /// via obs::merge_snapshots.
  [[nodiscard]] obs::MetricsRegistry::Snapshot cluster_snapshot();
  /// Fleet-wide Prometheus exposition text: the frontend's and every live
  /// worker's snapshot merged, then rendered (cumulative histograms).
  [[nodiscard]] std::string fleet_prometheus_text();

  /// One worker's health as seen from the frontend. `alive == false`
  /// means the poll failed (or the worker was already marked dead); the
  /// embedded HealthOkMsg is then default-constructed.
  struct WorkerHealth {
    std::string name;
    bool alive = false;
    HealthOkMsg health;
  };
  /// Polls every fleet member with kHealth (dead workers are reported,
  /// not skipped, so the fleet view shows holes).
  [[nodiscard]] std::vector<WorkerHealth> fleet_health();
  /// fleet_health() rendered as a JSON document (for --health-out and the
  /// live --watch view).
  [[nodiscard]] std::string fleet_health_json();

  /// The rolling SLO window (p50/p95/p99, error-budget burn rate).
  [[nodiscard]] obs::SloTracker::Window slo_window() const {
    return engine_.slo_window();
  }

 private:
  /// The frontend's snapshot followed by every live worker's (kMetrics
  /// poll; a worker that fails the poll is simply absent).
  [[nodiscard]] std::vector<obs::MetricsRegistry::Snapshot> fleet_snapshots();

  std::atomic<bool> shut_down_{false};
  mutable obs::MetricsRegistry registry_;
  RemoteSource source_;
  serve::Frontend engine_;  // declared last: its workers use the members above
};

}  // namespace tlrwse::cluster
