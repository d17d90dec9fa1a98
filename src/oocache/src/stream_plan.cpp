#include "tlrwse/oocache/stream_plan.hpp"

#include <algorithm>

#include "tlrwse/common/error.hpp"

namespace tlrwse::oocache {

StreamPlan::StreamPlan(std::vector<StreamShard> shards, StreamPlanConfig cfg)
    : shards_(std::move(shards)) {
  TLRWSE_REQUIRE(!shards_.empty(), "stream plan needs at least one shard");
  index_t expect_q = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const StreamShard& sh = shards_[s];
    TLRWSE_REQUIRE(sh.q_begin == expect_q && sh.q_end > sh.q_begin,
                   "stream plan shards must partition frequencies in "
                   "ascending order (shard ",
                   s, ")");
    TLRWSE_REQUIRE(sh.bytes >= 0.0, "negative shard bytes");
    expect_q = sh.q_end;
    total_ += sh.bytes;
  }
  // Ring window of a prefix p: while ring shard t computes, the next one in
  // the sweep (wrapping from the last shard to the first ring shard) loads.
  const std::size_t n = shards_.size();
  const auto ring_window = [&](std::size_t p) {
    if (p == n) return 0.0;
    double w = shards_[n - 1].bytes + (p + 1 < n ? shards_[p].bytes : 0.0);
    for (std::size_t i = p; i + 1 < n; ++i) {
      w = std::max(w, shards_[i].bytes + shards_[i + 1].bytes);
    }
    return w;
  };
  // A longer prefix never needs less than an empty one, so when p = 0 does
  // not fit nothing does and the plan pins nothing.
  window_ = ring_window(0);
  std::size_t pinned_granules = 0;
  double prefix = 0.0;
  for (std::size_t p = 1; p <= n; ++p) {
    prefix += shards_[p - 1].bytes;
    const double window = prefix + ring_window(p);
    if (window <= cfg.budget_bytes) {
      pinned_granules = p;
      pinned_bytes_ = prefix;
      window_ = window;
    }
  }
  // The pinned granules become one shard: it loads as one slice and the
  // sweep computes it in one parallel region across the whole team.
  if (pinned_granules > 0) {
    shards_[0] = StreamShard{0, shards_[pinned_granules - 1].q_end,
                             pinned_bytes_};
    const auto first_ring = static_cast<std::ptrdiff_t>(pinned_granules);
    shards_.erase(shards_.begin() + 1, shards_.begin() + first_ring);
    pinned_ = 1;
  }
}

StreamPlan compile_stream_plan(std::span<const double> bytes,
                               std::span<const index_t> freqs,
                               const StreamPlanConfig& cfg) {
  TLRWSE_REQUIRE(bytes.size() == freqs.size(),
                 "granule bytes/freqs size mismatch");
  TLRWSE_REQUIRE(!bytes.empty(), "cannot plan a stream over zero granules");
  TLRWSE_REQUIRE(cfg.budget_bytes > 0.0, "stream budget must be positive");
  std::vector<StreamShard> shards;
  shards.reserve(bytes.size());
  index_t q = 0;
  for (std::size_t g = 0; g < bytes.size(); ++g) {
    TLRWSE_REQUIRE(freqs[g] > 0, "granule with no frequencies");
    TLRWSE_REQUIRE(bytes[g] >= 0.0, "negative granule bytes");
    shards.push_back(StreamShard{q, q + freqs[g], bytes[g]});
    q += freqs[g];
  }
  return StreamPlan(std::move(shards), cfg);
}

StreamPlan compile_stream_plan(const io::ArchiveInfo& info,
                               const StreamPlanConfig& cfg) {
  TLRWSE_REQUIRE(info.has_extents(),
                 "stream plan needs an extents peek (peek_archive_extents)");
  std::vector<double> bytes;
  std::vector<index_t> freqs;
  bytes.reserve(info.extents.size());
  freqs.reserve(info.extents.size());
  for (const io::ShardExtent& e : info.extents) {
    bytes.push_back(e.payload_bytes);
    freqs.push_back(e.num_freqs);
  }
  return compile_stream_plan(bytes, freqs, cfg);
}

}  // namespace tlrwse::oocache
