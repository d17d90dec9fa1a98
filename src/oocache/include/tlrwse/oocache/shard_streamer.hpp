// ShardStreamer: the prefetching stream behind a streamed MdcOperator.
//
// It runs the StreamPlan's static schedule. The pinned prefix loads once,
// as one slice, and is never evicted; every other shard streams through
// a ring and is dropped as soon as the consumer releases it. A background
// thread loads the next absent shard in sweep order as soon as it fits the
// budget, while the consumer's OpenMP team computes the current one, so
// the per-frequency F->MVM->Fᴴ work overlaps storage I/O; otherwise it
// waits for a release. There is no victim to choose: the plan's window
// guarantees that the next ring shard fits once the previous one is gone.
// All failure modes are typed and prompt: a truncated or deleted archive
// surfaces as StreamError(kIo) on the next acquire (from either the
// prefetch thread or a synchronous load), a budget that cannot hold the
// plan's window is rejected at construction as kBudgetTooSmall, and a
// deadline that fires during a stall throws mdc::CancelledError — never a
// hang, never partial data.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/kernel_stream.hpp"
#include "tlrwse/oocache/stream_plan.hpp"

namespace tlrwse::oocache {

/// Typed failure of the streaming layer, mirroring cluster::TransportError:
/// callers switch on code(), the what() string carries the io detail.
class StreamError : public std::runtime_error {
 public:
  enum class Code {
    kBudgetTooSmall,  // budget cannot hold the plan's window
    kIo,              // a shard load failed (truncated, deleted, corrupt)
    kShutdown,        // streamer torn down while a sweep was in flight
  };
  StreamError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] Code code() const noexcept { return code_; }

 private:
  Code code_;
};

/// One loaded shard: per-frequency kernels plus their true resident bytes
/// (which may exceed the plan's payload estimate, e.g. compiled arenas).
struct ShardKernels {
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  double bytes = 0.0;
};

/// Where shard payloads come from. load() runs on the prefetch thread (or
/// the consumer thread when prefetch is off) and may throw anything; the
/// streamer wraps failures into StreamError(kIo). The streamer hands every
/// ring shard it drops back through recycle(), on the thread that runs the
/// next load and just before it.
class ShardSource {
 public:
  virtual ~ShardSource() = default;
  [[nodiscard]] virtual index_t rows() const = 0;
  [[nodiscard]] virtual index_t cols() const = 0;
  [[nodiscard]] virtual ShardKernels load(index_t q_begin, index_t q_end) = 0;
  /// Takes back the kernels of one dropped shard; the default frees them.
  virtual void recycle(
      std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels) {
    kernels.clear();
  }
};

/// Archive-backed source: slices a TLRA/TLRS container with the extent
/// table of one peek, so per-shard loads seek straight to their granules
/// instead of rescanning headers. It keeps one io::LoadState: the staging
/// buffer every granule is read into, and the plan storage of the TLRA
/// kernels the streamer drops, which the next loads build into — a steady
/// ring load then writes only into pages that are already mapped. The
/// spares never outnumber the ring kernels resident at once.
class ArchiveShardSource final : public ShardSource {
 public:
  /// `info` must be an extents peek of `path` (has_extents()).
  ArchiveShardSource(std::string path, io::ArchiveInfo info);
  [[nodiscard]] index_t rows() const override { return info_.rows; }
  [[nodiscard]] index_t cols() const override { return info_.cols; }
  [[nodiscard]] ShardKernels load(index_t q_begin, index_t q_end) override;
  void recycle(
      std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels) override;

 private:
  std::string path_;
  io::ArchiveInfo info_;
  std::mutex mu_;  // guards state_ against overlapping load()/recycle()
  io::LoadState state_;
};

struct StreamConfig {
  double budget_bytes = 0.0;
  bool prefetch = true;  // background thread; false = load in acquire
  /// Lift an undersized budget to the plan's window instead of throwing
  /// kBudgetTooSmall (CLI convenience; serve admission keeps the strict
  /// default).
  bool grow_to_window = false;
};

struct StreamStats {
  std::uint64_t hits = 0;       // acquires that found the shard resident
  std::uint64_t misses = 0;     // acquires that had to wait for a load
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;  // ring shards dropped
  double bytes_streamed = 0.0;  // payload bytes read disk->RAM
  double load_s = 0.0;          // wall time of the installed source loads
  double stall_s = 0.0;         // consumer time blocked in acquire
  double peak_resident_bytes = 0.0;
};

class ShardStreamer final : public mdc::KernelStream {
 public:
  /// Throws StreamError(kBudgetTooSmall) unless cfg.budget_bytes (or the
  /// grown budget) holds the plan's window.
  ShardStreamer(std::shared_ptr<ShardSource> source, StreamPlan plan,
                StreamConfig cfg);
  ~ShardStreamer() override;

  ShardStreamer(const ShardStreamer&) = delete;
  ShardStreamer& operator=(const ShardStreamer&) = delete;

  [[nodiscard]] index_t rows() const override { return source_->rows(); }
  [[nodiscard]] index_t cols() const override { return source_->cols(); }
  [[nodiscard]] index_t num_freqs() const override {
    return plan_.num_freqs();
  }
  [[nodiscard]] index_t num_shards() const override {
    return plan_.num_shards();
  }
  [[nodiscard]] std::pair<index_t, index_t> shard_range(
      index_t s) const override {
    const StreamShard& sh = plan_.shard(s);
    return {sh.q_begin, sh.q_end};
  }
  void begin_sweep() override;
  void end_sweep() noexcept override;
  [[nodiscard]] std::span<mdc::FrequencyMvm* const> acquire_shard(
      index_t s) override;
  void release_shard(index_t s) noexcept override;

  [[nodiscard]] const StreamPlan& plan() const noexcept { return plan_; }
  /// The effective budget (equal to the config's unless grow_to_window
  /// lifted it) — what a cache should charge for this stream's residency.
  [[nodiscard]] double budget_bytes() const noexcept { return budget_; }
  [[nodiscard]] StreamStats stats() const;

 private:
  enum class ShardState : std::uint8_t { kAbsent, kLoading, kReady };
  struct Slot {
    ShardState state = ShardState::kAbsent;
    std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
    std::vector<mdc::FrequencyMvm*> raw;
    double bytes = 0.0;
  };

  void prefetch_loop();
  /// Whether shard s fits the budget now. When it does not and no ring
  /// shard is resident, no release can make room, so the stream fails as
  /// kBudgetTooSmall. Caller holds mu_.
  bool fits(index_t s);
  /// Loads shard s on the calling thread with mu_ released, then installs
  /// it, or fails the stream as kIo. A load that returns to a slot an
  /// aborted sweep reset is discarded. Caller holds mu_ through `lk`.
  void load(index_t s, std::unique_lock<std::mutex>& lk);
  /// Drops a ready shard's residency and queues its kernels in retired_.
  /// Caller holds mu_.
  void drop(Slot& slot);
  void fail_stream(StreamError::Code code, const std::string& what);

  std::shared_ptr<ShardSource> source_;
  StreamPlan plan_;
  StreamConfig cfg_;
  double budget_ = 0.0;

  std::mutex sweep_mu_;  // serialises overlapping sweeps of this stream

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  // consumer waits: shard ready/failed
  std::condition_variable work_cv_;   // prefetcher waits: work or room
  std::vector<Slot> slots_;
  // Kernels of dropped ring shards, one entry per shard, handed back to
  // the source by the next load() (ShardSource::recycle) so the
  // consumer's release pays neither a free nor a recycle.
  std::vector<std::vector<std::unique_ptr<mdc::FrequencyMvm>>> retired_;
  std::uint64_t cursor_ = 0;  // sweep step the consumer acquires next
  double resident_bytes_ = 0.0;
  bool stop_ = false;
  bool failed_ = false;
  StreamError::Code fail_code_ = StreamError::Code::kIo;
  std::string fail_what_;
  StreamStats stats_;

  std::thread prefetcher_;  // last member: started last, joined in dtor
};

}  // namespace tlrwse::oocache
