// One request engine for every operator source: admit -> batch -> solve.
//
// The MDD solve is one algorithm — LSQR (or one adjoint pass) over the MDC
// operator F^H K F — whatever process holds the compressed kernels K. The
// Frontend owns everything about a request that does not depend on where
// K lives:
//   submit()  -- request id, archive-header peek (skipped when the source
//                already holds the operator; typed kArchiveMissing),
//                per-tenant in-flight quota (kQuotaExceeded), bounded
//                admission queue (kQueueFull);
//   workers   -- pop a per-operator batch (round-robin across operators),
//                resolve it once through the OperatorSource, drop tickets
//                that were cancelled or whose deadline passed while
//                queued, coalesce deadline-free adjoints into one
//                multi-RHS sweep, solve the rest singly under a
//                CancelScope that carries both cancel and deadline;
//   respond() -- the single exit: lifecycle counter for the final status,
//                latency histograms, SLO window (every response, rejects
//                included), breach exemplar, quota release.
// The OperatorSource decides where the operator lives: the local source
// (serve::LocalSource) resolves it through the OperatorCache into a
// resident or streamed MdcOperator, the remote source
// (cluster::RemoteSource) into a placement on a worker fleet and one
// RemoteMdcOperator per request. Every counter, gauge and histogram lands
// in the caller's registry under the source's prefix ("serve.*" /
// "cluster.*"); that registry is the engine's only metrics store, and no
// per-request state outlives the response.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "tlrwse/mdc/linear_operator.hpp"
#include "tlrwse/mdd/lsqr.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/slo_tracker.hpp"
#include "tlrwse/obs/stage_breakdown.hpp"
#include "tlrwse/obs/trace_merge.hpp"
#include "tlrwse/serve/admission_queue.hpp"
#include "tlrwse/serve/operator_cache.hpp"
#include "tlrwse/serve/task_executor.hpp"

namespace tlrwse::serve {

enum class RequestKind {
  kAdjoint,  // cross-correlation estimate x = A^T b (one adjoint pass)
  kLsqr,     // least-squares inversion (the paper's 30-iteration budget)
};

enum class SolveStatus {
  kOk,
  kQueueFull,         // bounded admission queue was full (backpressure)
  kQuotaExceeded,     // tenant's in-flight quota was exhausted
  kDeadlineExceeded,  // per-request deadline passed before/during the solve
  kArchiveMissing,    // archive absent, or its header unreadable at admission
  kWorkerFailed,      // a remote shard lost every replica mid-solve
  kCancelled,         // cancel(request_id) landed before completion
  kError,             // unexpected solve/loader failure (details in .error)
};
[[nodiscard]] const char* to_string(SolveStatus s);

struct SolveRequest {
  OperatorKey op;                      // archive_id doubles as the path
  RequestKind kind = RequestKind::kLsqr;
  std::string tenant;                  // quota bucket; empty = default bucket
  index_t vsrc = -1;                   // virtual-source tag (echoed back)
  std::vector<float> rhs;              // observed data b, nt x nS traces
  mdd::LsqrConfig lsqr;                // iteration budget, tolerances, hooks
  double deadline_s = 0.0;             // 0 = none; budget from admission on
  /// Request a merged timeline: frontend spans plus (remote source) the
  /// workers' spans, clock-aligned into SolveResponse::trace_json.
  bool trace = false;
};

struct SolveResponse {
  SolveStatus status = SolveStatus::kOk;
  index_t vsrc = -1;
  std::uint64_t request_id = 0;
  /// Solution traces. An LSQR stopped by cancel or deadline keeps its
  /// last consistent iterate; an interrupted apply leaves it empty.
  std::vector<float> x;
  int iterations = 0;
  double residual_norm = 0.0;
  double queue_wait_s = 0.0;           // admission -> dequeue
  double solve_s = 0.0;                // dequeue -> solved (0: never ran)
  double total_s = 0.0;                // admission -> response
  std::size_t batch_size = 0;          // requests dequeued in its batch
  /// Per-stage latency attribution, filled whenever a solve ran: queue,
  /// load, stall and lsqr on every source; fft/mvm/gather/rpc only where
  /// the source instruments them (the remote source).
  obs::StageBreakdown stages;
  /// chrome://tracing timeline; empty unless the request set `trace`.
  std::string trace_json;
  std::string error;                   // why a non-kOk request failed
};

/// Handle returned by submit(): the id is live immediately (usable for
/// cancel() while the request is still queued), the future resolves when
/// the request finishes or is rejected.
struct SubmittedRequest {
  std::uint64_t request_id = 0;
  std::future<SolveResponse> response;
};

/// A source failure with a typed outcome (kArchiveMissing, kWorkerFailed,
/// kError). Thrown by OperatorSource::acquire and by the operators a
/// lease binds; any other exception maps to kError.
class SourceError : public std::runtime_error {
 public:
  SourceError(SolveStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  [[nodiscard]] SolveStatus status() const noexcept { return status_; }

 private:
  SolveStatus status_;
};

/// The typed failure of an operator that could not be loaded from
/// `archive_id`: kArchiveMissing when the file is absent, kError when it
/// exists but does not load (truncated, corrupt). Every source's acquire
/// decides its archive-side failures through this one rule.
[[nodiscard]] SourceError archive_load_error(const std::string& archive_id,
                                             const std::string& what);

/// Where an operator lives: the seam between the Frontend and a backend.
/// Implementations must be safe to call from every engine worker at once.
class OperatorSource {
 public:
  using Clock = std::chrono::steady_clock;

  /// One batch's resolved operator.
  class Lease {
   public:
    virtual ~Lease() = default;
    /// Length of one right-hand side (nt x nS).
    [[nodiscard]] virtual index_t rows() const = 0;
    /// The operator one solve runs on. `request_id` 0 marks a coalesced
    /// adjoint group (no cancel can reach it); `deadline_at` is the
    /// request's absolute deadline ({} = none); `rt` collects the stages
    /// and spans the operator instruments. The local lease hands out its
    /// shared resident operator, the remote lease a RemoteMdcOperator
    /// bound to all three.
    [[nodiscard]] virtual std::shared_ptr<const mdc::LinearOperator> bind(
        std::uint64_t request_id, Clock::time_point deadline_at,
        obs::RequestTrace& rt) const = 0;
    /// Cumulative oocache stall seconds of the operator; a solve charges
    /// the delta across it to stream_stall_s. 0 when nothing streams.
    [[nodiscard]] virtual double stall_s() const { return 0.0; }
  };

  virtual ~OperatorSource() = default;

  /// Registry prefix of every engine and source metric ("serve"/"cluster").
  [[nodiscard]] virtual const char* metric_prefix() const = 0;
  /// True when `key` resolves without reading the archive (a cache entry
  /// or a cached placement): admission then skips the header peek.
  [[nodiscard]] virtual bool holds(const OperatorKey& key) const = 0;
  /// Resolves `key` for one batch; throws SourceError on a typed failure.
  [[nodiscard]] virtual std::unique_ptr<Lease> acquire(
      const OperatorKey& key) = 0;
  /// A solve on `key` failed with a SourceError: drop whatever the source
  /// holds for it, so the next batch resolves afresh.
  virtual void invalidate(const OperatorKey& key) { (void)key; }
  /// Forwarded by Frontend::cancel after the request is flagged.
  virtual void cancel(std::uint64_t request_id) { (void)request_id; }
  /// Appends the non-frontend half of a sampled request's timeline.
  virtual void collect_trace(obs::RequestTrace& rt,
                             std::vector<obs::WorkerTrace>& out) {
    (void)rt;
    (void)out;
  }
};

/// Engine limits; each facade derives them from its own config.
struct FrontendConfig {
  int workers = 4;                  // concurrent solve batches
  std::size_t queue_capacity = 64;  // admission bound (backpressure)
  std::size_t max_batch = 8;        // per-operator coalescing limit
  /// Max in-flight (queued + solving) requests per tenant; 0 = unlimited.
  std::size_t tenant_quota = 0;
  /// Latency/availability objectives for the rolling SLO window; latency
  /// breaches persist exemplars when `slo.exemplar_dir` is set.
  obs::SloConfig slo;
};

class Frontend {
 public:
  /// `source` and `registry` must outlive the engine.
  Frontend(FrontendConfig cfg, OperatorSource& source,
           obs::MetricsRegistry& registry);
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Never blocks on the solve: rejected requests resolve their future
  /// immediately with the typed status.
  [[nodiscard]] SubmittedRequest submit(SolveRequest req);

  /// Flags the request and forwards to the source: queued requests reject
  /// at dequeue, in-flight solves abort between frequency MVMs / remote
  /// exchanges / LSQR iterations. Unknown or finished ids are ignored.
  void cancel(std::uint64_t request_id);

  /// Stops admission, drains every admitted request, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// The rolling SLO window (p50/p95/p99, error-budget burn rate).
  [[nodiscard]] obs::SloTracker::Window slo_window() const {
    return slo_.window();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Ticket {
    SolveRequest req;
    std::uint64_t id = 0;
    std::promise<SolveResponse> done;
    Clock::time_point admitted;
    /// Set by cancel(); polled by the solve's CancelScope hook.
    std::shared_ptr<std::atomic<bool>> cancelled;
    bool holds_quota = false;
    std::size_t batch_size = 0;
  };

  void worker_loop();
  void process_batch(const OperatorKey& key, std::vector<Ticket> batch);
  void solve_ticket(Ticket& ticket, const OperatorSource::Lease& lease,
                    double load_s);
  /// Serves >= 2 coalesced adjoint tickets with ONE multi-RHS sweep (each
  /// result bitwise identical to its single-request solve).
  void solve_adjoint_group(std::vector<Ticket>& batch,
                           const std::vector<std::size_t>& group,
                           const OperatorSource::Lease& lease, double load_s);
  /// Maps a solve's exception to its status (invalidating the source on a
  /// SourceError); call from inside a catch block.
  [[nodiscard]] SolveStatus classify_failure(const Ticket& ticket,
                                             std::string& error);
  [[nodiscard]] std::string collect_trace(obs::RequestTrace& rt);
  void reject(Ticket& ticket, SolveStatus status, std::string error);
  /// The single exit of every request.
  void respond(Ticket& ticket, SolveResponse r);
  void record_slo(const SolveResponse& r);

  FrontendConfig cfg_;
  OperatorSource& source_;
  obs::MetricsRegistry& registry_;
  obs::Counter& submitted_;
  obs::Counter& admitted_;
  obs::Counter& batches_;
  obs::Counter& coalesced_;
  obs::Counter& multi_rhs_;  // tickets served by a shared multi-RHS sweep
  /// One counter per final status (kOk -> "completed"), indexed by value.
  std::vector<obs::Counter*> outcomes_;
  obs::Gauge& queue_depth_gauge_;
  obs::Gauge& queue_peak_gauge_;
  obs::Histogram& latency_hist_;
  obs::Histogram& queue_wait_hist_;
  obs::Histogram& solve_hist_;
  obs::StageRecorder stage_recorder_;
  obs::SloTracker slo_;
  obs::SloGauges slo_gauges_;

  AdmissionQueue<OperatorKey, Ticket, OperatorKeyHash> queue_;
  std::atomic<bool> shut_down_{false};
  std::atomic<std::uint64_t> next_request_id_{1};

  mutable std::mutex state_mu_;
  std::unordered_map<std::string, std::size_t> tenant_inflight_;
  /// Cancel flags of every request not yet answered.
  std::unordered_map<std::uint64_t, std::shared_ptr<std::atomic<bool>>>
      live_;

  TaskExecutor exec_;  // declared last: workers must see live members above
  std::vector<std::future<void>> worker_futures_;
};

}  // namespace tlrwse::serve
