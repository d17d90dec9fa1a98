// StreamPlan: the compiled disk->RAM schedule of an out-of-core solve.
//
// LSQR's access pattern is known before the first iteration: every apply —
// forward or adjoint — sweeps the frequency granules in ascending order
// (per-frequency kernels for "TLRA", whole bands for "TLRS" — a band's
// kernels share one compiled basis arena, so splitting it would duplicate
// basis residency), and the solve repeats sweeps until convergence. With
// the order known, the schedule that moves the fewest bytes under a budget
// is static, the fast/slow-memory schedule the paper runs on 48 kB PE
// scratchpads: the longest prefix of granules that fits beside the ring
// window is pinned as one shard, loaded once and never evicted, and
// computed in one parallel region; every other granule is its own shard
// and streams through a ring in sweep order, where the shard being
// computed and the one being prefetched must fit together. A steady sweep
// therefore reads total_bytes() - pinned_bytes() and nothing else.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tlrwse/common/types.hpp"
#include "tlrwse/io/archive.hpp"

namespace tlrwse::oocache {

/// One planned shard, a run of consecutive frequencies loaded and dropped
/// as a unit: the pinned prefix of granules, or one ring granule.
struct StreamShard {
  index_t q_begin = 0;  // frequency range [q_begin, q_end)
  index_t q_end = 0;
  double bytes = 0.0;   // payload bytes, the residency currency
};

struct StreamPlanConfig {
  double budget_bytes = 0.0;  // RAM allowance for resident shards
};

class StreamPlan {
 public:
  StreamPlan() = default;
  /// Takes one shard per granule and pins the longest prefix for which
  /// pinned bytes plus the ring window fit cfg.budget_bytes, merged into
  /// shard 0; pins nothing when even an empty prefix does not fit (the
  /// streamer then rejects or grows the budget).
  StreamPlan(std::vector<StreamShard> shards, StreamPlanConfig cfg);

  [[nodiscard]] const std::vector<StreamShard>& shards() const noexcept {
    return shards_;
  }
  [[nodiscard]] index_t num_shards() const noexcept {
    return static_cast<index_t>(shards_.size());
  }
  [[nodiscard]] const StreamShard& shard(index_t s) const {
    return shards_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] index_t num_freqs() const noexcept {
    return shards_.empty() ? 0 : shards_.back().q_end;
  }
  [[nodiscard]] double total_bytes() const noexcept { return total_; }
  /// 1 when shard 0 is the pinned prefix, resident for the stream's
  /// lifetime, else 0; the remaining shards form the ring.
  [[nodiscard]] index_t pinned_shards() const noexcept { return pinned_; }
  [[nodiscard]] double pinned_bytes() const noexcept { return pinned_bytes_; }
  /// pinned_bytes() plus the largest two ring shards adjacent in the
  /// cyclic sweep (one shard for a one-shard ring, 0 for an empty one): the
  /// smallest budget this plan runs in.
  [[nodiscard]] double window_bytes() const noexcept { return window_; }

  /// Shard consumed at sweep step `step`; steps count monotonically across
  /// sweeps, so step % num_shards() walks each ascending sweep.
  [[nodiscard]] index_t shard_at_step(std::uint64_t step) const {
    return static_cast<index_t>(step %
                                static_cast<std::uint64_t>(num_shards()));
  }

 private:
  std::vector<StreamShard> shards_;
  double total_ = 0.0;
  index_t pinned_ = 0;
  double pinned_bytes_ = 0.0;
  double window_ = 0.0;
};

/// Compiles a plan from the granule extents of one archive peek
/// (peek_archive_extents). Whether the budget holds
/// the plan's window is checked where the stream is built, not here.
[[nodiscard]] StreamPlan compile_stream_plan(const io::ArchiveInfo& info,
                                             const StreamPlanConfig& cfg);

/// Granule-list form for injected (non-archive) sources: granule g covers
/// freqs[g] consecutive frequencies and weighs bytes[g] payload bytes.
[[nodiscard]] StreamPlan compile_stream_plan(std::span<const double> bytes,
                                             std::span<const index_t> freqs,
                                             const StreamPlanConfig& cfg);

}  // namespace tlrwse::oocache
