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
  obs::Histogram& load_s;

  static StreamMetrics& instance() {
    static StreamMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      return StreamMetrics{reg.counter("oocache.prefetch_hits"),
                           reg.counter("oocache.prefetch_misses"),
                           reg.counter("oocache.loads"),
                           reg.counter("oocache.evictions"),
                           reg.gauge("oocache.bytes_streamed"),
                           reg.gauge("oocache.bytes_resident"),
                           reg.histogram("oocache.stall_s"),
                           reg.histogram("oocache.load_s")};
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
  std::lock_guard<std::mutex> lk(mu_);
  io::LoadedKernels loaded =
      io::load_kernels(path_, info_, q_begin, q_end, state_);
  return {std::move(loaded.kernels), loaded.bytes};
}

void ArchiveShardSource::recycle(
    std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& k : kernels) {
    if (auto* tlr = dynamic_cast<mdc::TlrMvm*>(k.get())) {
      state_.spare.push_back(std::move(*tlr).release_storage());
    }
  }
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
              " bytes cannot hold the plan's window of " +
              std::to_string(window) + " bytes (a pinned prefix of " +
              std::to_string(plan_.pinned_bytes()) +
              " bytes plus the ring's double-buffer)");
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
  // The residency gauge is shared by every streamer in the process.
  for (const Slot& slot : slots_) {
    if (slot.state == ShardState::kReady) {
      StreamMetrics::instance().bytes_resident.add(
          -static_cast<std::int64_t>(slot.bytes));
    }
  }
}

void ShardStreamer::begin_sweep() { sweep_mu_.lock(); }

void ShardStreamer::end_sweep() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto S = static_cast<std::uint64_t>(plan_.num_shards());
    if (cursor_ % S != 0) {
      // An aborted sweep (deadline, stream failure): the next one restarts
      // at shard 0. The ring shards loaded ahead of the abort point are not
      // needed until late in that sweep, yet they would fill the ring its
      // first ring shard must load into — the prefetcher would wait for a
      // release and the consumer for that shard. Drop them, and discard any
      // ring load still in flight.
      cursor_ += S - cursor_ % S;
      for (index_t s = plan_.pinned_shards(); s < plan_.num_shards(); ++s) {
        Slot& slot = slots_[static_cast<std::size_t>(s)];
        if (slot.state == ShardState::kReady) drop(slot);
        slot.state = ShardState::kAbsent;
      }
      work_cv_.notify_all();
    }
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
      // No ring shard is resident at an acquire (each is dropped at its
      // release), so a shard that does not fit fails the stream here.
      if (!failed_ && !stop_ && fits(s)) load(s, lk);
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
  return std::span<mdc::FrequencyMvm* const>(slot.raw);
}

void ShardStreamer::release_shard(index_t s) noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  if (s >= plan_.pinned_shards()) drop(slots_[static_cast<std::size_t>(s)]);
  ++cursor_;
  work_cv_.notify_all();
}

StreamStats ShardStreamer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

bool ShardStreamer::fits(index_t s) {
  if (resident_bytes_ + plan_.shard(s).bytes <= budget_) return true;
  const auto ring_begin =
      slots_.begin() + static_cast<std::ptrdiff_t>(plan_.pinned_shards());
  if (std::none_of(ring_begin, slots_.end(), [](const Slot& sl) {
        return sl.state == ShardState::kReady;
      })) {
    fail_stream(StreamError::Code::kBudgetTooSmall,
                "tlrwse::oocache: shard " + std::to_string(s) + " of " +
                    std::to_string(plan_.shard(s).bytes) +
                    " bytes does not fit the budget beside " +
                    std::to_string(resident_bytes_) + " resident bytes");
  }
  return false;
}

void ShardStreamer::drop(Slot& slot) {
  resident_bytes_ -= slot.bytes;
  StreamMetrics& met = StreamMetrics::instance();
  met.bytes_resident.add(-static_cast<std::int64_t>(slot.bytes));
  met.evictions.add();
  ++stats_.evictions;
  retired_.push_back(std::move(slot.kernels));
  slot.kernels.clear();
  slot.raw.clear();
  slot.raw.shrink_to_fit();
  slot.bytes = 0.0;
  slot.state = ShardState::kAbsent;
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

void ShardStreamer::load(index_t s, std::unique_lock<std::mutex>& lk) {
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  const StreamShard& sh = plan_.shard(s);
  slot.state = ShardState::kLoading;
  // Dropped ring shards go back to the source here, off the consumer's
  // path (their bytes left the budget at the drop) and before this load,
  // which may build into what they hand back.
  std::vector<std::vector<std::unique_ptr<mdc::FrequencyMvm>>> retired;
  retired.swap(retired_);
  lk.unlock();
  ShardKernels loaded;
  double load_s = 0.0;
  bool ok = true;
  std::string err;
  try {
    for (auto& kernels : retired) source_->recycle(std::move(kernels));
    retired.clear();
    TLRWSE_TRACE_SPAN("oocache.load", "oocache");
    const WallTimer timer;
    loaded = source_->load(sh.q_begin, sh.q_end);
    validate_shard(loaded, sh.q_begin, sh.q_end, rows(), cols());
    load_s = timer.seconds();
  } catch (const std::exception& e) {
    ok = false;
    err = e.what();
  }
  lk.lock();
  if (stop_ || slot.state != ShardState::kLoading) return;
  if (!ok) {
    slot.state = ShardState::kAbsent;
    fail_stream(StreamError::Code::kIo,
                "tlrwse::oocache: shard load failed: " + err);
    return;
  }
  StreamMetrics& met = StreamMetrics::instance();
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
  stats_.load_s += load_s;
  met.loads.add();
  met.load_s.record(load_s);
  met.bytes_streamed.add(static_cast<std::int64_t>(slot.bytes));
  met.bytes_resident.add(static_cast<std::int64_t>(slot.bytes));
  ready_cv_.notify_all();
}

void ShardStreamer::prefetch_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  const auto S = static_cast<std::uint64_t>(plan_.num_shards());
  while (!stop_ && !failed_) {
    // The next absent shard in sweep order, within one sweep of the
    // consumer: pinned shards until the prefix is loaded, then the ring.
    index_t target = -1;
    for (std::uint64_t t = cursor_; t < cursor_ + S; ++t) {
      const index_t sh = plan_.shard_at_step(t);
      if (slots_[static_cast<std::size_t>(sh)].state ==
          ShardState::kAbsent) {
        target = sh;
        break;
      }
    }
    if (target >= 0 && fits(target)) {
      load(target, lk);
    } else if (!failed_) {
      work_cv_.wait(lk);  // nothing to load, or room after the next release
    }
  }
}

}  // namespace tlrwse::oocache
