// Multi-tenant MDD solve service: the Frontend over a local operator source.
//
// Turns the batch-mode archive->solve path into a concurrent service with
// the compute shape of a batched inference server holding model weights:
// compressed per-frequency TLR kernels are the resident "weights"
// (OperatorCache), MDD requests against one operator coalesce into shared
// batches that a worker drives back-to-back over the single resident copy,
// and overload surfaces as typed rejections from a bounded admission queue
// (backpressure) instead of latency collapse. Results are bitwise identical
// to a sequential solve of the same archive: batching only shares operator
// residency and dispatch, never the per-request arithmetic, and the
// frequency loop is thread-count invariant.
//
// The request lifecycle (admission, batching, deadlines, coalescing, SLO)
// is serve::Frontend's; this file holds the local OperatorSource — cache
// lookup, archive load into a resident or streamed MdcOperator, inner
// thread cap, "serve.cache.*" gauges — and the SolveService facade that
// wires the two together under the "serve.*" metric names. The service's
// registry is its one metrics store: metrics_json(), the Prometheus dump
// and every CLI printout render the same snapshot.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/slo_tracker.hpp"
#include "tlrwse/serve/frontend.hpp"
#include "tlrwse/serve/operator_cache.hpp"

namespace tlrwse::serve {

struct ServiceConfig {
  int workers = 4;                     // concurrent solve batches
  std::size_t queue_capacity = 64;     // admission bound (backpressure)
  std::size_t max_batch = 8;           // per-operator coalescing limit
  double cache_budget_bytes = 512.0 * 1024.0 * 1024.0;
  /// Residency cap per operator. 0 keeps every archive fully resident.
  /// Positive: archives whose compressed payload exceeds it are served
  /// out-of-core through a ShardStreamer with this byte budget — the cache
  /// charges the budget, not the payload — and rejected (typed load
  /// failure) only when the stream plan's window (the pinned prefix plus
  /// the largest pair of adjacent ring shards) cannot fit.
  double max_resident_bytes = 0.0;
  /// OpenMP team size of each solve's frequency loop; 0 divides the
  /// machine evenly between workers (never oversubscribing workers x
  /// omp_get_max_threads() ways).
  int inner_threads = 0;
  /// Latency/availability objectives for the rolling SLO window; latency
  /// breaches persist exemplars when `slo.exemplar_dir` is set.
  obs::SloConfig slo;
};

/// Operators resolved in-process: OperatorCache -> resident or streamed
/// MdcOperator, loaded from the archive exactly once per cache residency.
class LocalSource final : public OperatorSource {
 public:
  /// Uses cfg's cache, residency and inner-thread settings (inner_threads
  /// 0 resolves against cfg.workers).
  LocalSource(const ServiceConfig& cfg, obs::MetricsRegistry& registry);

  [[nodiscard]] const char* metric_prefix() const override { return "serve"; }
  [[nodiscard]] bool holds(const OperatorKey& key) const override {
    return cache_.contains(key);
  }
  [[nodiscard]] std::unique_ptr<Lease> acquire(const OperatorKey& key) override;

  [[nodiscard]] const OperatorCache& cache() const noexcept { return cache_; }

 private:
  [[nodiscard]] OperatorCache::Value load(const OperatorKey& key) const;
  /// Copies the cache's stats into the serve.cache.* gauges.
  void publish_cache_stats();

  double max_resident_bytes_;
  int inner_threads_;
  OperatorCache cache_;
  /// One gauge per CacheStats field, in kCacheGauges order.
  std::vector<obs::Gauge*> cache_gauges_;
  std::mutex publish_mu_;
};

/// The registry snapshot plus the cache's own stats, whose ratios
/// (hit_rate, datasets_per_gb) the integer gauges cannot carry.
struct ServiceMetrics {
  obs::MetricsRegistry::Snapshot snapshot;
  CacheStats cache;
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig cfg = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Never blocks on the solve: rejected requests (queue-full,
  /// archive-missing) resolve their future immediately with the typed
  /// status; admitted requests resolve when a worker finishes them.
  [[nodiscard]] std::future<SolveResponse> submit(SolveRequest req) {
    return engine_.submit(std::move(req)).response;
  }

  /// Stops admission, drains every admitted request, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown() { engine_.shutdown(); }

  [[nodiscard]] ServiceMetrics metrics() const {
    return {registry_.snapshot(), source_.cache().stats()};
  }
  /// The registry snapshot as JSON (MetricsRegistry::Snapshot::to_json).
  [[nodiscard]] std::string metrics_json() const {
    return registry_.snapshot().to_json();
  }
  [[nodiscard]] const OperatorCache& cache() const noexcept {
    return source_.cache();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

  /// The registry backing every lifecycle counter, gauge and histogram
  /// ("serve.*", cache gauges under "serve.cache.*"). Each service owns
  /// its registry so concurrent instances never mix numbers.
  [[nodiscard]] const obs::MetricsRegistry& registry() const noexcept {
    return registry_;
  }

  /// The rolling SLO window (p50/p95/p99, error-budget burn rate) over
  /// every response, rejects included.
  [[nodiscard]] obs::SloTracker::Window slo_window() const {
    return engine_.slo_window();
  }

 private:
  ServiceConfig cfg_;
  mutable obs::MetricsRegistry registry_;
  LocalSource source_;
  Frontend engine_;  // declared last: its workers use the members above
};

}  // namespace tlrwse::serve
