// Shard worker: the backend half of the distributed serving tier.
//
// A worker owns one or more frequency shards — contiguous frequency
// ranges of a TLRA or TLRS archive, loaded with one extents peek and one
// io::load_kernels call — and answers kApply frames by running the exact
// same FrequencyMvm objects a single-process MdcOperator would, over the
// exact bytes the frontend gathered. No FFT happens here: frequency-domain
// slices in, slices out, which is what keeps a distributed solve bitwise
// identical to a local one.
//
// The handler is transport-agnostic: handle() maps one request frame to
// one reply frame, so the same ShardWorker sits behind a SocketServer in a
// real worker process and behind a LocalChannel in tests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "tlrwse/cluster/wire.hpp"
#include "tlrwse/common/workspace_pool.hpp"
#include "tlrwse/mdc/frequency_mvm.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/trace_context.hpp"

namespace tlrwse::cluster {

class ShardWorker {
 public:
  ShardWorker() = default;
  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// One request frame in, one reply frame out. Malformed frames come back
  /// as kError/kBadRequest; internal failures as kError/kInternal — the
  /// caller always gets a frame, never an exception.
  [[nodiscard]] Frame handle(const Frame& request);

  /// Direct shard injection for tests (e.g. dense kernels, which have no
  /// archive format). `kernels[i]` serves `freq_bins[i]`.
  void add_shard(std::uint32_t shard_id, index_t nt, index_t ns, index_t nr,
                 std::vector<index_t> freq_bins,
                 std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels);

  /// True once a kShutdown frame has been answered; the process driver
  /// polls this to know when to stop its server and exit.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// This worker's metrics (worker.* names), for kMetrics replies and
  /// direct inspection in tests.
  [[nodiscard]] obs::MetricsRegistry::Snapshot metrics_snapshot() const {
    return registry_.snapshot();
  }

  /// This worker's health report (kHealthOk payload): shard ownership,
  /// resident bytes, uptime, in-flight applies, span-buffer drops.
  [[nodiscard]] HealthOkMsg health() const;

 private:
  struct Shard {
    index_t nt = 0;
    index_t ns = 0;  // kernel rows
    index_t nr = 0;  // kernel cols
    index_t q_begin = 0;  // archive frequency-index range
    index_t q_end = 0;
    double bytes = 0.0;  // compressed payload resident for this shard
    std::vector<index_t> freq_bins;
    std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  };

  Frame handle_load(const LoadShardMsg& msg);
  Frame handle_apply(const ApplyMsg& msg, std::uint64_t recv_ns);
  Frame handle_cancel(const CancelMsg& msg);
  Frame handle_metrics();
  Frame handle_trace_dump(const TraceDumpMsg& msg);
  Frame handle_shutdown();

  mutable std::mutex mu_;
  std::map<std::uint32_t, std::shared_ptr<const Shard>> shards_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> span_drops_{0};  // take()-observed drop total
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  obs::MetricsRegistry registry_;
  /// Completed spans of sampled requests, held until the frontend's
  /// kTraceDump collects them (bounded; overflow is counted per trace).
  obs::RemoteSpanBuffer span_buf_;
  WorkspacePool<mdc::FrequencyWorkspace> ws_pool_;
};

}  // namespace tlrwse::cluster
