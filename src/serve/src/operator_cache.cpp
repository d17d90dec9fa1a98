#include "tlrwse/serve/operator_cache.hpp"

#include "tlrwse/common/error.hpp"

namespace tlrwse::serve {

OperatorCache::OperatorCache(double budget_bytes) : budget_(budget_bytes) {
  TLRWSE_REQUIRE(budget_bytes > 0.0, "cache budget must be positive");
}

void OperatorCache::evict_to_budget(std::uint64_t keep_generation) {
  auto it = lru_.end();
  while (bytes_ > budget_ && it != lru_.begin()) {
    --it;
    // Loading entries have unknown size and waiters holding their future;
    // the entry that just finished loading is exempt from its own pass so
    // an over-budget operator is still served from memory until something
    // newer displaces it.
    if (!it->ready || it->generation == keep_generation) continue;
    bytes_ -= it->bytes;
    fp32_bytes_ -= it->fp32_bytes;
    bytes_evicted_ += it->bytes;
    ++evictions_;
    index_.erase(it->key);
    it = lru_.erase(it);
  }
}

OperatorCache::Value OperatorCache::get_or_load(const OperatorKey& key,
                                                const Loader& loader) {
  std::shared_future<Value> future;
  std::promise<Value> promise;
  std::uint64_t my_generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = index_.find(key); it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      future = it->second->value;
    } else {
      ++misses_;
      my_generation = next_generation_++;
      future = promise.get_future().share();
      lru_.push_front(Entry{key, future, my_generation, 0.0, 0.0, false});
      index_[key] = lru_.begin();
    }
  }

  if (my_generation != 0) {
    Value value;
    try {
      value = loader();
      TLRWSE_ENSURE(value != nullptr, "cache loader returned null");
      promise.set_value(value);
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(mu_);
    // clear() may have raced the load; only account our own generation.
    auto it = index_.find(key);
    const bool mine =
        it != index_.end() && it->second->generation == my_generation;
    if (value) {
      ++loads_;
      if (mine) {
        // fp32_bytes == 0 means the loader did not distinguish precisions;
        // charge the packed size so the gap reads as zero, not negative.
        const double fp32 =
            value->fp32_bytes > 0.0 ? value->fp32_bytes : value->bytes;
        it->second->bytes = value->bytes;
        it->second->fp32_bytes = fp32;
        it->second->ready = true;
        bytes_ += value->bytes;
        fp32_bytes_ += fp32;
        evict_to_budget(my_generation);
      }
    } else {
      ++load_failures_;
      if (mine) {
        lru_.erase(it->second);
        index_.erase(it);
      }
    }
  }
  return future.get();  // waits for an in-flight load; rethrows its failure
}

bool OperatorCache::contains(const OperatorKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(key) > 0;
}

CacheStats OperatorCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s;
  s.budget_bytes = budget_;
  s.hits = hits_;
  s.misses = misses_;
  s.loads = loads_;
  s.load_failures = load_failures_;
  s.evictions = evictions_;
  s.bytes_evicted = bytes_evicted_;
  s.bytes_resident = bytes_;
  s.bytes_resident_fp32 = fp32_bytes_;
  s.entries = index_.size();
  return s;
}

void OperatorCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0.0;
  fp32_bytes_ = 0.0;
}

}  // namespace tlrwse::serve
