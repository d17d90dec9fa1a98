// Process-wide metrics: named counters, gauges, and histograms.
//
// The hot path is lock-free and shard-local: every writer thread hashes to
// one of kMetricShards cache-line-padded cells, so increments are a single
// relaxed fetch_add on a line that is private to the thread in the common
// case. Snapshots merge the shards; registration (name -> metric lookup)
// takes a mutex, so instrumentation sites resolve their handle once
// (function-local static or stored member) and reuse it.
//
// The solve engine keeps every lifecycle metric in a per-service registry
// instance (its only metrics store), and the tlr/mdc/mdd libraries record
// into the process-wide instance() so any binary can dump one JSON object
// covering compression, MVM, and solver activity.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tlrwse::obs {

/// Number of hashed writer slots per metric. Threads beyond this count
/// share slots (still correct, occasionally contended).
inline constexpr std::size_t kMetricShards = 16;

namespace detail {
/// Stable small id of the calling thread, assigned on first use.
inline std::size_t thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot % kMetricShards;
}

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

/// Monotonic counter. add() is the lock-free fast path; value() merges.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::thread_slot()].value.fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::CounterShard, kMetricShards> shards_;
};

/// Last-writer-wins instantaneous value (queue depth, resident bytes, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative doubles (seconds, ranks, bytes).
//
// Buckets cover [2^kMinExp, 2^(kMinExp+kBuckets-2)); values below the range
// land in bucket 0, above in the last bucket. Exact count/sum/min/max are
// kept alongside the buckets, all sharded like Counter so record() is a
// handful of relaxed atomics on a thread-private line.
class Histogram {
 public:
  static constexpr int kMinExp = -31;   // first bucket: < 2^-31 (~0.47 ns)
  static constexpr int kBuckets = 64;   // last finite bound: 2^31 (~2.1e9)

  void record(double v) noexcept {
    auto& s = shards_[detail::thread_slot()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    atomic_add(s.sum, v);
    atomic_min(s.min, v);
    atomic_max(s.max, v);
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when empty
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    [[nodiscard]] double mean() const noexcept {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Nearest-rank percentile estimate: the upper bound of the bucket the
    /// rank falls in, clamped to the observed max (exact to one octave).
    [[nodiscard]] double percentile(double q) const noexcept {
      if (count == 0) return 0.0;
      const auto rank = static_cast<std::uint64_t>(
          std::ceil(q / 100.0 * static_cast<double>(count)));
      std::uint64_t seen = 0;
      for (int b = 0; b < kBuckets; ++b) {
        seen += buckets[static_cast<std::size_t>(b)];
        if (seen >= rank && rank > 0) {
          return std::min(bucket_upper(b), max);
        }
      }
      return max;
    }
  };

  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot out;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (const auto& s : shards_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += as_double(s.sum.load(std::memory_order_relaxed));
      mn = std::min(mn, as_double(s.min.load(std::memory_order_relaxed)));
      mx = std::max(mx, as_double(s.max.load(std::memory_order_relaxed)));
      for (int b = 0; b < kBuckets; ++b) {
        out.buckets[static_cast<std::size_t>(b)] +=
            s.buckets[static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
      }
    }
    out.min = out.count > 0 ? mn : 0.0;
    out.max = out.count > 0 ? mx : 0.0;
    return out;
  }

  void reset() noexcept {
    for (auto& s : shards_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(as_bits(0.0), std::memory_order_relaxed);
      s.min.store(as_bits(std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
      s.max.store(as_bits(-std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] static int bucket_of(double v) noexcept {
    if (!(v > 0.0)) return 0;  // 0, negatives, NaN -> underflow bucket
    const int e = std::ilogb(v);
    const int idx = e - kMinExp + 1;
    return idx < 0 ? 0 : (idx >= kBuckets ? kBuckets - 1 : idx);
  }
  [[nodiscard]] static double bucket_upper(int b) noexcept {
    return std::ldexp(1.0, kMinExp + b);  // exclusive upper bound of bucket b
  }

 private:
  // Doubles are stored as bit patterns in atomic<uint64_t> so the shard
  // works on toolchains where atomic<double> is not lock-free.
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{as_bits(0.0)};
    std::atomic<std::uint64_t> min{
        as_bits(std::numeric_limits<double>::infinity())};
    std::atomic<std::uint64_t> max{
        as_bits(-std::numeric_limits<double>::infinity())};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };

  [[nodiscard]] static std::uint64_t as_bits(double v) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  [[nodiscard]] static double as_double(std::uint64_t bits) noexcept {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  static void atomic_add(std::atomic<std::uint64_t>& cell, double v) noexcept {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(cur, as_bits(as_double(cur) + v),
                                       std::memory_order_relaxed)) {
    }
  }
  static void atomic_min(std::atomic<std::uint64_t>& cell, double v) noexcept {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (as_double(cur) > v &&
           !cell.compare_exchange_weak(cur, as_bits(v),
                                       std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::uint64_t>& cell, double v) noexcept {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (as_double(cur) < v &&
           !cell.compare_exchange_weak(cur, as_bits(v),
                                       std::memory_order_relaxed)) {
    }
  }

  std::array<Shard, kMetricShards> shards_;
};

/// RAII timer recording elapsed seconds into a histogram on destruction.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(Histogram& h) noexcept
      : hist_(&h), start_(now()) {}
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;
  ~ScopedHistTimer() { hist_->record(now() - start_); }

 private:
  static double now() noexcept;
  Histogram* hist_;
  double start_;
};

/// Named metric registry. `instance()` is the process-wide one the library
/// instrumentation records into; components with their own lifecycle (the
/// solve service) hold a private instance instead so concurrent instances
/// do not mix numbers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& instance();

  /// Handles are stable for the registry's lifetime: resolve once, reuse.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct HistogramEntry {
    std::string name;
    Histogram::Snapshot snap;
  };
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::vector<HistogramEntry> histograms;  // sorted by name

    /// One JSON object with stable key order:
    /// {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}
    [[nodiscard]] std::string to_json() const;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every registered metric (benches and tests only; handles stay
  /// valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Merges per-worker registry snapshots into one cluster-wide view:
/// counters and histogram counts/sums/buckets add by name, gauges add by
/// name (each worker reports its own depth/residency; the sum is the fleet
/// total), histogram min/max combine respecting empty inputs. Workers
/// prefix their metric names distinctly, so a frontend snapshot and the
/// workers' never collide.
[[nodiscard]] MetricsRegistry::Snapshot merge_snapshots(
    std::span<const MetricsRegistry::Snapshot> snaps);

}  // namespace tlrwse::obs
