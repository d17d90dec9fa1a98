#include "tlrwse/oocache/shard_streamer.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "tlrwse/common/error.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/mdc/cancellation.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/tracer.hpp"

namespace tlrwse::oocache {

namespace {

/// Registry handles resolved once; every streamer in the process shares
/// them (the per-streamer StreamStats struct keeps instance-local views).
struct StreamMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& loads;
  obs::Counter& evictions;
  obs::Gauge& bytes_streamed;
  obs::Gauge& bytes_resident;
  obs::Histogram& stall_s;

  static StreamMetrics& instance() {
    static StreamMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      return StreamMetrics{reg.counter("oocache.prefetch_hits"),
                           reg.counter("oocache.prefetch_misses"),
                           reg.counter("oocache.loads"),
                           reg.counter("oocache.evictions"),
                           reg.gauge("oocache.bytes_streamed"),
                           reg.gauge("oocache.bytes_resident"),
                           reg.histogram("oocache.stall_s")};
    }();
    return m;
  }
};

/// A source that lies about counts or dimensions would corrupt the
/// frequency loop; reject it as an io failure before anything is exposed.
void validate_shard(const ShardKernels& loaded, index_t q_begin,
                    index_t q_end, index_t rows, index_t cols) {
  if (static_cast<index_t>(loaded.kernels.size()) != q_end - q_begin) {
    throw std::runtime_error("shard load returned " +
                             std::to_string(loaded.kernels.size()) +
                             " kernels for " +
                             std::to_string(q_end - q_begin) +
                             " frequencies");
  }
  for (const auto& k : loaded.kernels) {
    if (k == nullptr || k->rows() != rows || k->cols() != cols) {
      throw std::runtime_error(
          "shard load returned mismatched kernel dimensions");
    }
  }
}

}  // namespace

ArchiveShardSource::ArchiveShardSource(std::string path, io::ArchiveInfo info)
    : path_(std::move(path)), info_(std::move(info)) {
  TLRWSE_REQUIRE(info_.has_extents(),
                 "archive shard source needs an extents peek");
  TLRWSE_REQUIRE(info_.rows > 0 && info_.cols > 0,
                 "archive shard source: empty kernel dimensions");
}

ShardKernels ArchiveShardSource::load(index_t q_begin, index_t q_end) {
  ShardKernels out;
  if (info_.shared_basis) {
    const io::SharedKernelArchive slice =
        io::load_shared_archive_slice(path_, q_begin, q_end, info_);
    out.bytes = slice.shared_bytes();
    out.kernels = io::make_kernels(slice);
  } else {
    const io::KernelArchive slice =
        io::load_archive_slice(path_, q_begin, q_end, info_);
    out.bytes = slice.compressed_bytes();
    out.kernels = io::make_kernels(slice);
  }
  return out;
}

ShardStreamer::ShardStreamer(std::shared_ptr<ShardSource> source,
                             StreamPlan plan, StreamConfig cfg)
    : source_(std::move(source)),
      plan_(std::move(plan)),
      cfg_(cfg),
      budget_(cfg.budget_bytes) {
  TLRWSE_REQUIRE(source_ != nullptr, "null shard source");
  TLRWSE_REQUIRE(plan_.num_shards() >= 1, "empty stream plan");
  const double window = plan_.window_bytes();
  if (budget_ < window) {
    if (cfg_.grow_to_window) {
      budget_ = window;
    } else {
      throw StreamError(
          StreamError::Code::kBudgetTooSmall,
          "tlrwse::oocache: budget of " + std::to_string(budget_) +
              " bytes cannot hold one double-buffer window of " +
              std::to_string(window) + " bytes");
    }
  }
  slots_.resize(static_cast<std::size_t>(plan_.num_shards()));
  if (cfg_.prefetch) {
    prefetcher_ = std::thread([this] { prefetch_loop(); });
  }
}

ShardStreamer::~ShardStreamer() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  ready_cv_.notify_all();
  work_cv_.notify_all();
  if (prefetcher_.joinable()) prefetcher_.join();
}

void ShardStreamer::begin_sweep() {
  sweep_mu_.lock();
  std::lock_guard<std::mutex> lk(mu_);
  // Realign after an aborted sweep: the next consumer restarts at shard 0.
  const auto S = static_cast<std::uint64_t>(plan_.num_shards());
  if (cursor_ % S != 0) cursor_ += S - cursor_ % S;
  work_cv_.notify_all();
}

void ShardStreamer::end_sweep() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // An aborted sweep (deadline, stream failure) may leave its shard
    // pinned and the cursor mid-sweep; clean both so the prefetcher and
    // the next sweep see a consistent plan position.
    for (Slot& s : slots_) s.pinned = false;
    const auto S = static_cast<std::uint64_t>(plan_.num_shards());
    if (cursor_ % S != 0) cursor_ += S - cursor_ % S;
    work_cv_.notify_all();
  }
  sweep_mu_.unlock();
}

std::span<mdc::FrequencyMvm* const> ShardStreamer::acquire_shard(index_t s) {
  StreamMetrics& met = StreamMetrics::instance();
  std::unique_lock<std::mutex> lk(mu_);
  TLRWSE_ENSURE(s == plan_.shard_at_step(cursor_),
                "acquire out of plan order: shard ", s, " at step ", cursor_);
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  if (slot.state == ShardState::kReady) {
    ++stats_.hits;
    met.hits.add();
  } else {
    ++stats_.misses;
    met.misses.add();
    if (!cfg_.prefetch) {
      load_inline(s, lk);
    } else {
      // The shard-ready wait: the prefetcher is (or will be) loading it.
      // Poll the cancel hook so a deadline interrupts a disk stall.
      WallTimer stall;
      {
        TLRWSE_TRACE_SPAN("oocache.stall", "oocache");
        const mdc::CancelScope::Hook* const cancel =
            mdc::CancelScope::current();
        work_cv_.notify_all();
        while (slot.state != ShardState::kReady && !failed_ && !stop_) {
          ready_cv_.wait_for(lk, std::chrono::milliseconds(10));
          if (cancel != nullptr && (*cancel)()) {
            const double waited = stall.seconds();
            stats_.stall_s += waited;
            met.stall_s.record(waited);
            throw mdc::CancelledError();
          }
        }
      }
      const double waited = stall.seconds();
      stats_.stall_s += waited;
      met.stall_s.record(waited);
    }
    if (failed_) throw StreamError(fail_code_, fail_what_);
    if (stop_) {
      throw StreamError(StreamError::Code::kShutdown,
                        "tlrwse::oocache: streamer shut down mid-sweep");
    }
  }
  slot.pinned = true;
  slot.last_use = ++use_tick_;
  return std::span<mdc::FrequencyMvm* const>(slot.raw);
}

void ShardStreamer::release_shard(index_t s) noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  slots_[static_cast<std::size_t>(s)].pinned = false;
  ++cursor_;
  work_cv_.notify_all();
}

StreamStats ShardStreamer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

bool ShardStreamer::make_room(double need, std::uint64_t target_step) {
  StreamMetrics& met = StreamMetrics::instance();
  while (resident_bytes_ + need > budget_) {
    // Both policies refuse to evict a shard the streamer's own sweep needs
    // before the shard being loaded (the streamer enforces that order at
    // acquire time, so this much of the future is known even when the
    // cross-sweep pattern is not). Without the guard, LRU would evict the
    // freshly prefetched, never-yet-used (last_use == 0) upcoming shards
    // first — a livelock where the prefetcher churns the window it is
    // trying to fill while the consumer starves.
    index_t victim = -1;
    if (cfg_.cyclic_plan) {
      // Belady: drop the resident shard used farthest in the future —
      // exact, because cyclic sweeps make next_use the true future.
      std::uint64_t farthest = 0;
      for (index_t v = 0; v < plan_.num_shards(); ++v) {
        const Slot& sl = slots_[static_cast<std::size_t>(v)];
        if (sl.state != ShardState::kReady || sl.pinned) continue;
        const std::uint64_t use = plan_.next_use(v, cursor_);
        if (use <= target_step) continue;
        if (victim < 0 || use > farthest) {
          victim = v;
          farthest = use;
        }
      }
    } else {
      // Cross-sweep order unknown: least-recently-used fallback among the
      // shards this sweep is done with (or not due before the target).
      std::uint64_t oldest = 0;
      for (index_t v = 0; v < plan_.num_shards(); ++v) {
        const Slot& sl = slots_[static_cast<std::size_t>(v)];
        if (sl.state != ShardState::kReady || sl.pinned) continue;
        if (plan_.next_use(v, cursor_) <= target_step) continue;
        if (victim < 0 || sl.last_use < oldest) {
          victim = v;
          oldest = sl.last_use;
        }
      }
    }
    if (victim < 0) return false;
    Slot& sl = slots_[static_cast<std::size_t>(victim)];
    resident_bytes_ -= sl.bytes;
    sl.kernels.clear();
    sl.kernels.shrink_to_fit();
    sl.raw.clear();
    sl.raw.shrink_to_fit();
    sl.bytes = 0.0;
    sl.state = ShardState::kAbsent;
    ++stats_.evictions;
    met.evictions.add();
    met.bytes_resident.set(static_cast<std::int64_t>(resident_bytes_));
  }
  return true;
}

void ShardStreamer::install_loaded(index_t s, ShardKernels&& loaded) {
  StreamMetrics& met = StreamMetrics::instance();
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  slot.kernels = std::move(loaded.kernels);
  slot.raw.clear();
  slot.raw.reserve(slot.kernels.size());
  for (const auto& k : slot.kernels) slot.raw.push_back(k.get());
  slot.bytes = loaded.bytes;
  slot.state = ShardState::kReady;
  resident_bytes_ += slot.bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, resident_bytes_);
  ++stats_.loads;
  stats_.bytes_streamed += slot.bytes;
  met.loads.add();
  met.bytes_streamed.add(static_cast<std::int64_t>(slot.bytes));
  met.bytes_resident.set(static_cast<std::int64_t>(resident_bytes_));
  ready_cv_.notify_all();
}

void ShardStreamer::fail_stream(StreamError::Code code,
                                const std::string& what) {
  if (!failed_) {
    failed_ = true;
    fail_code_ = code;
    fail_what_ = what;
  }
  ready_cv_.notify_all();
  work_cv_.notify_all();
}

void ShardStreamer::load_inline(index_t s, std::unique_lock<std::mutex>& lk) {
  if (failed_ || stop_) return;
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  const StreamShard& sh = plan_.shard(s);
  if (!make_room(sh.bytes, cursor_)) {
    // Unreachable when budget >= window (nothing is pinned at acquire
    // time), but a typed error beats a wedged sweep if it ever trips.
    fail_stream(StreamError::Code::kBudgetTooSmall,
                "tlrwse::oocache: no evictable shard for a synchronous load");
    return;
  }
  slot.state = ShardState::kLoading;
  lk.unlock();
  ShardKernels loaded;
  bool ok = true;
  std::string err;
  try {
    TLRWSE_TRACE_SPAN("oocache.load", "oocache");
    loaded = source_->load(sh.q_begin, sh.q_end);
    validate_shard(loaded, sh.q_begin, sh.q_end, rows(), cols());
  } catch (const std::exception& e) {
    ok = false;
    err = e.what();
  }
  lk.lock();
  if (!ok) {
    slot.state = ShardState::kAbsent;
    fail_stream(StreamError::Code::kIo,
                "tlrwse::oocache: shard load failed: " + err);
    return;
  }
  install_loaded(s, std::move(loaded));
}

void ShardStreamer::prefetch_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  const auto S = static_cast<std::uint64_t>(plan_.num_shards());
  while (!stop_ && !failed_) {
    // Next absent shard within one sweep of the consumer's position; the
    // nearest one first so the consumer's own stall resolves soonest.
    index_t target = -1;
    std::uint64_t target_step = 0;
    for (std::uint64_t t = cursor_; t < cursor_ + S; ++t) {
      const index_t sh = plan_.shard_at_step(t);
      if (slots_[static_cast<std::size_t>(sh)].state ==
          ShardState::kAbsent) {
        target = sh;
        target_step = t;
        break;
      }
    }
    if (target < 0) {
      work_cv_.wait(lk);
      continue;
    }
    const StreamShard& sh = plan_.shard(target);
    if (!make_room(sh.bytes, target_step)) {
      // Everything evictable is needed sooner than the target; room will
      // appear when the consumer releases its pinned shard.
      work_cv_.wait(lk);
      continue;
    }
    Slot& slot = slots_[static_cast<std::size_t>(target)];
    slot.state = ShardState::kLoading;
    lk.unlock();
    ShardKernels loaded;
    bool ok = true;
    std::string err;
    try {
      TLRWSE_TRACE_SPAN("oocache.load", "oocache");
      loaded = source_->load(sh.q_begin, sh.q_end);
      validate_shard(loaded, sh.q_begin, sh.q_end, rows(), cols());
    } catch (const std::exception& e) {
      ok = false;
      err = e.what();
    }
    lk.lock();
    if (stop_) return;
    if (!ok) {
      slot.state = ShardState::kAbsent;
      fail_stream(StreamError::Code::kIo,
                  "tlrwse::oocache: shard load failed: " + err);
      return;
    }
    install_loaded(target, std::move(loaded));
  }
}

}  // namespace tlrwse::oocache
