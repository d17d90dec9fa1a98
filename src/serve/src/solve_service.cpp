#include "tlrwse/serve/solve_service.hpp"

#include <algorithm>
#include <filesystem>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tlrwse/io/archive.hpp"
#include "tlrwse/obs/tracer.hpp"
#include "tlrwse/oocache/shard_streamer.hpp"
#include "tlrwse/oocache/stream_plan.hpp"

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
      cache_(cfg.cache_budget_bytes, cfg.cache_shards),
      cache_packed_gauge_(registry.gauge("serve.cache.packed_bytes")),
      cache_fp32_gauge_(registry.gauge("serve.cache.fp32_equiv_bytes")) {}

std::unique_ptr<OperatorSource::Lease> LocalSource::acquire(
    const OperatorKey& key) {
  OperatorCache::Value resident;
  try {
    resident = cache_.get_or_load(key, [&] { return load(key); });
  } catch (const std::exception& e) {
    // The archive can vanish between the admission peek and the load.
    throw SourceError(std::filesystem::exists(key.archive_id)
                          ? SolveStatus::kError
                          : SolveStatus::kArchiveMissing,
                      e.what());
  }
  const CacheStats cs = cache_.stats();
  cache_packed_gauge_.set(static_cast<std::int64_t>(cs.bytes_resident));
  cache_fp32_gauge_.set(static_cast<std::int64_t>(cs.bytes_resident_fp32));
  return std::make_unique<LocalLease>(std::move(resident));
}

OperatorCache::Value LocalSource::load(const OperatorKey& key) const {
  TLRWSE_TRACE_SPAN("serve.load_operator", "serve");
  auto resident = std::make_shared<ResidentOperator>();
  // Archives over the residency cap are served out-of-core: one extents
  // peek prices the payload AND seeds both the stream plan and every later
  // slice load (a single directory read). The cache is charged the stream
  // budget, so an over-budget archive is admitted as long as one
  // double-buffer window fits; otherwise the kBudgetTooSmall throw
  // propagates to every waiter as a typed load failure.
  if (max_resident_bytes_ > 0.0) {
    const io::ArchiveInfo info = io::peek_archive_extents(key.archive_id);
    if (info.payload_bytes > max_resident_bytes_) {
      oocache::StreamPlanConfig plan_cfg;
      plan_cfg.budget_bytes = max_resident_bytes_;
      oocache::StreamPlan plan = oocache::compile_stream_plan(info, plan_cfg);
      auto source =
          std::make_shared<oocache::ArchiveShardSource>(key.archive_id, info);
      oocache::StreamConfig stream_cfg;
      stream_cfg.budget_bytes = max_resident_bytes_;
      resident->streamer = std::make_shared<oocache::ShardStreamer>(
          std::move(source), std::move(plan), stream_cfg);
      // Streamed entries are priced at their window budget regardless of
      // storage precision (fp32_bytes stays 0 = "same as bytes"); the
      // capacity win shows up as more frequencies per window instead.
      resident->bytes = resident->streamer->budget_bytes();
      resident->nt = info.nt;
      resident->freqs_hz = info.freqs_hz;
      resident->op = std::make_unique<mdc::MdcOperator>(
          info.nt, info.freq_bins, resident->streamer);
      resident->op->set_inner_threads(inner_threads_);
      return resident;
    }
  }
  // The header names the container format; shared-basis archives charge
  // the cache their (band-shared) payload bytes, so more of them fit in
  // one budget than per-frequency archives of the same survey.
  const io::ArchiveInfo info = io::peek_archive(key.archive_id);
  if (info.shared_basis) {
    io::SharedKernelArchive archive =
        io::load_shared_archive(key.archive_id);
    resident->bytes = archive.shared_bytes();
    for (const auto& b : archive.bands) {
      resident->fp32_bytes += b->fp32_bytes();
    }
    resident->nt = archive.nt;
    resident->freqs_hz = archive.freqs_hz;
    resident->op = io::make_operator(archive);
  } else {
    io::KernelArchive archive = io::load_archive(key.archive_id);
    resident->bytes = archive.compressed_bytes();
    for (const auto& k : archive.kernels) {
      resident->fp32_bytes += k.fp32_bytes();
    }
    resident->nt = archive.nt;
    resident->freqs_hz = archive.freqs_hz;
    resident->op = io::make_operator(archive);
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

ServiceMetrics SolveService::metrics() const {
  ServiceMetrics m = engine_.metrics();
  m.cache = source_.cache().stats();
  return m;
}

}  // namespace tlrwse::serve
