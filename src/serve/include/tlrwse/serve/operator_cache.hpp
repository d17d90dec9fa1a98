// Byte-budget LRU cache of resident MDC operators.
//
// The paper's deployment shape (Sec. 7) compresses a survey once and then
// streams every virtual-source MVM through the same resident TLR bases —
// at paper scale a ~110 GB working set per (nb, acc) configuration. This
// cache gives the solve service that amortisation: concurrent requests that
// name the same (archive, nb, acc) share ONE resident copy, loaded from the
// archive exactly once (in-flight loads are deduplicated via a shared
// future that late arrivals wait on), and cold configurations evict in LRU
// order once the byte budget is exceeded. One LRU under one mutex holds the
// whole budget: the engine takes the lock once per batch, and loads run
// outside it. Evicted operators stay alive for requests that already hold
// their shared_ptr.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tlrwse/common/types.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"

namespace tlrwse::oocache {
class ShardStreamer;
}  // namespace tlrwse::oocache

namespace tlrwse::serve {

/// Identity of a resident operator: which archive, compressed how. Two
/// archives of one survey at different (nb, acc) are distinct operators
/// with very different footprints, so the compression parameters are part
/// of the key rather than a detail of the file.
struct OperatorKey {
  std::string archive_id;  // canonical archive path (or logical name)
  index_t nb = 0;
  double acc = 0.0;
  bool operator==(const OperatorKey&) const = default;
};

struct OperatorKeyHash {
  [[nodiscard]] std::size_t operator()(const OperatorKey& k) const noexcept {
    std::size_t h = std::hash<std::string>{}(k.archive_id);
    h ^= std::hash<long long>{}(static_cast<long long>(k.nb)) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
    h ^= std::hash<double>{}(k.acc) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return h;
  }
};

/// A cache entry: the rebuilt operator plus the byte accounting the LRU
/// budget runs on and the band metadata requests are validated against.
/// Streamed entries (archives bigger than the service's residency cap)
/// also hold their prefetcher; the cache charges them their stream budget
/// — priced from one extents peek — rather than the full payload, which is
/// exactly what admits an over-budget archive as long as the stream plan's
/// window fits.
struct ResidentOperator {
  std::unique_ptr<mdc::MdcOperator> op;
  double bytes = 0.0;  // compressed kernel footprint (budget currency)
  /// The same footprint stored uniformly fp32. Half-precision archives
  /// charge the budget their true packed bytes (~half), and the gap
  /// between the two is the mixed-precision capacity win the
  /// serve.cache.* gauges report. 0 means "same as bytes" (fp32 archive
  /// or a loader that does not distinguish).
  double fp32_bytes = 0.0;
  index_t nt = 0;
  std::vector<double> freqs_hz;
  std::shared_ptr<oocache::ShardStreamer> streamer;  // null when fully resident
  [[nodiscard]] bool streamed() const noexcept { return streamer != nullptr; }
};

struct CacheStats {
  std::uint64_t hits = 0;        // entry present (or load already in flight)
  std::uint64_t misses = 0;      // entry absent, this request triggered a load
  std::uint64_t loads = 0;       // loader invocations that completed OK
  std::uint64_t load_failures = 0;
  std::uint64_t evictions = 0;
  double bytes_evicted = 0.0;
  double bytes_resident = 0.0;
  /// Resident footprint if every entry were stored uniformly fp32; equals
  /// bytes_resident when nothing is half-precision.
  double bytes_resident_fp32 = 0.0;
  std::size_t entries = 0;
  double budget_bytes = 0.0;
  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  /// Capacity figure of merit: resident datasets per GB of operator bytes.
  /// Shared-basis archives charge their (smaller) shared_bytes, so this is
  /// where the format's memory win shows up operationally.
  [[nodiscard]] double datasets_per_gb() const {
    return bytes_resident > 0.0
               ? static_cast<double>(entries) / (bytes_resident / 1.0e9)
               : 0.0;
  }
};

class OperatorCache {
 public:
  using Value = std::shared_ptr<const ResidentOperator>;
  using Loader = std::function<Value()>;

  /// Entries are evicted from the LRU tail once their total exceeds
  /// `budget_bytes`.
  explicit OperatorCache(double budget_bytes);

  OperatorCache(const OperatorCache&) = delete;
  OperatorCache& operator=(const OperatorCache&) = delete;

  /// Returns the resident operator for `key`, invoking `loader` only when
  /// no entry exists. Concurrent callers of one key ride the first caller's
  /// load (exactly one loader invocation); loader exceptions propagate to
  /// every waiter and the failed entry is removed so a later call retries.
  [[nodiscard]] Value get_or_load(const OperatorKey& key, const Loader& loader);

  /// True when `key` is resident or its load is in flight (no LRU effect).
  [[nodiscard]] bool contains(const OperatorKey& key) const;

  [[nodiscard]] CacheStats stats() const;
  void clear();

 private:
  struct Entry {
    OperatorKey key;
    std::shared_future<Value> value;
    std::uint64_t generation = 0;  // guards post-load accounting vs clear()
    double bytes = 0.0;            // 0 until the load completes
    double fp32_bytes = 0.0;       // fp32-equivalent footprint
    bool ready = false;
  };
  /// Evicts ready LRU-tail entries (never `keep_generation`) until the
  /// cache fits its budget or nothing evictable remains. Caller holds mu_.
  void evict_to_budget(std::uint64_t keep_generation);

  const double budget_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<OperatorKey, std::list<Entry>::iterator, OperatorKeyHash>
      index_;
  double bytes_ = 0.0;
  double fp32_bytes_ = 0.0;
  std::uint64_t hits_ = 0, misses_ = 0, loads_ = 0, load_failures_ = 0,
                evictions_ = 0;
  double bytes_evicted_ = 0.0;
  std::uint64_t next_generation_ = 1;  // guarded by mu_
};

}  // namespace tlrwse::serve
