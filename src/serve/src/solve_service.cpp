#include "tlrwse/serve/solve_service.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tlrwse/io/archive.hpp"
#include "tlrwse/obs/tracer.hpp"
#include "tlrwse/oocache/streamed_operator.hpp"

namespace tlrwse::serve {

namespace {

/// Even split of the machine between request workers when the caller does
/// not pin an inner team size.
int default_inner_threads(int workers) {
#ifdef _OPENMP
  return std::max(1, omp_get_max_threads() / std::max(1, workers));
#else
  (void)workers;
  return 1;
#endif
}

/// serve.cache.* gauge suffixes, in cache_values() order.
constexpr const char* kCacheGauges[] = {
    "hits", "misses", "loads", "load_failures", "evictions", "bytes_evicted",
    "entries", "budget_bytes",
    // Resident operator bytes as stored (packed) vs stored uniformly fp32;
    // the gap is the mixed-precision capacity win of half archives.
    "packed_bytes", "fp32_equiv_bytes",
};

std::array<std::int64_t, std::size(kCacheGauges)> cache_values(
    const CacheStats& cs) {
  const auto i = [](auto v) { return static_cast<std::int64_t>(v); };
  return {i(cs.hits),          i(cs.misses),    i(cs.loads),
          i(cs.load_failures), i(cs.evictions), i(cs.bytes_evicted),
          i(cs.entries),       i(cs.budget_bytes),
          i(cs.bytes_resident), i(cs.bytes_resident_fp32)};
}

ServiceConfig resolved(ServiceConfig cfg) {
  if (cfg.inner_threads <= 0) {
    cfg.inner_threads = default_inner_threads(cfg.workers);
  }
  return cfg;
}

/// A batch's hold on one cache entry: the shared resident operator, which
/// polls the engine's CancelScope itself.
class LocalLease final : public OperatorSource::Lease {
 public:
  using Clock = OperatorSource::Clock;

  explicit LocalLease(OperatorCache::Value resident)
      : resident_(std::move(resident)) {}

  [[nodiscard]] index_t rows() const override { return resident_->op->rows(); }
  [[nodiscard]] std::shared_ptr<const mdc::LinearOperator> bind(
      std::uint64_t /*request_id*/, Clock::time_point /*deadline_at*/,
      obs::RequestTrace& /*rt*/) const override {
    return {resident_, resident_->op.get()};
  }
  [[nodiscard]] double stall_s() const override {
    // Shared streamer: concurrent solves on the same operator can bleed
    // stalls into each other's delta; the window is still the right order.
    return resident_->streamer ? resident_->streamer->stats().stall_s : 0.0;
  }

 private:
  OperatorCache::Value resident_;
};

}  // namespace

LocalSource::LocalSource(const ServiceConfig& cfg,
                         obs::MetricsRegistry& registry)
    : max_resident_bytes_(cfg.max_resident_bytes),
      inner_threads_(resolved(cfg).inner_threads),
      cache_(cfg.cache_budget_bytes) {
  for (const char* name : kCacheGauges) {
    cache_gauges_.push_back(
        &registry.gauge(std::string("serve.cache.") + name));
  }
  publish_cache_stats();
}

void LocalSource::publish_cache_stats() {
  // Stats are read under the lock, so the last publisher always writes the
  // newest values: the gauges match stats() at any quiescent point.
  const std::lock_guard<std::mutex> lock(publish_mu_);
  const auto values = cache_values(cache_.stats());
  for (std::size_t g = 0; g < values.size(); ++g) {
    cache_gauges_[g]->set(values[g]);
  }
}

std::unique_ptr<OperatorSource::Lease> LocalSource::acquire(
    const OperatorKey& key) {
  OperatorCache::Value resident;
  try {
    resident = cache_.get_or_load(key, [&] { return load(key); });
  } catch (const std::exception& e) {
    publish_cache_stats();  // counts the load failure
    throw archive_load_error(key.archive_id, e.what());
  }
  publish_cache_stats();
  return std::make_unique<LocalLease>(std::move(resident));
}

OperatorCache::Value LocalSource::load(const OperatorKey& key) const {
  TLRWSE_TRACE_SPAN("serve.load_operator", "serve");
  auto resident = std::make_shared<ResidentOperator>();
  // One extents peek prices the payload AND seeds every granule load (a
  // single directory read), whatever the container format.
  io::ArchiveInfo info = io::peek_archive_extents(key.archive_id);
  resident->nt = info.nt;
  resident->freqs_hz = info.freqs_hz;
  // Archives over the residency cap are served out-of-core. The cache is
  // charged the stream budget, so an over-budget archive is admitted as
  // long as the plan's window fits; otherwise the kBudgetTooSmall throw
  // propagates to every waiter as a typed load failure.
  if (max_resident_bytes_ > 0.0 && info.payload_bytes > max_resident_bytes_) {
    oocache::StreamConfig stream_cfg;
    stream_cfg.budget_bytes = max_resident_bytes_;
    oocache::StreamedOperator streamed = oocache::make_streamed_operator(
        key.archive_id, std::move(info), stream_cfg);
    resident->streamer = std::move(streamed.streamer);
    // Streamed entries are priced at their window budget regardless of
    // storage precision (fp32_bytes stays 0 = "same as bytes"); the
    // capacity win shows up as more frequencies per window instead.
    resident->bytes = resident->streamer->budget_bytes();
    resident->op = std::move(streamed.op);
  } else {
    // The cache is charged the payload as stored: shared-basis bands and
    // packed half tiles let more operators fit in one budget.
    io::LoadedKernels loaded =
        io::load_kernels(key.archive_id, info, 0, info.num_freqs());
    resident->bytes = loaded.bytes;
    resident->fp32_bytes = loaded.fp32_bytes;
    resident->op = std::make_unique<mdc::MdcOperator>(
        info.nt, info.freq_bins, std::move(loaded.kernels));
  }
  // One worker drives each solve; cap the frequency loop's team so the
  // workers together use the machine instead of oversubscribing it.
  resident->op->set_inner_threads(inner_threads_);
  return resident;
}

SolveService::SolveService(ServiceConfig cfg)
    : cfg_(resolved(cfg)),
      source_(cfg_, registry_),
      engine_(FrontendConfig{cfg_.workers, cfg_.queue_capacity,
                             cfg_.max_batch, /*tenant_quota=*/0, cfg_.slo},
              source_, registry_) {}

SolveService::~SolveService() { shutdown(); }

}  // namespace tlrwse::serve
