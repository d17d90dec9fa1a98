#include "tlrwse/obs/slo_tracker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#ifdef _WIN32
#include <process.h>
#define TLRWSE_GETPID _getpid
#else
#include <unistd.h>
#define TLRWSE_GETPID ::getpid
#endif

namespace tlrwse::obs {

namespace fs = std::filesystem;

SloTracker::SloTracker(SloConfig cfg) : cfg_(cfg) {
  if (cfg_.slots < 1) cfg_.slots = 1;
  if (!(cfg_.window_s > 0.0)) cfg_.window_s = 60.0;
  slot_span_s_ = cfg_.window_s / static_cast<double>(cfg_.slots);
  slots_.resize(static_cast<std::size_t>(cfg_.slots));
  if (cfg_.max_exemplars == 0) cfg_.max_exemplars = 1;
}

double SloTracker::now_s() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SloTracker::record(double latency_s, bool ok) {
  record_at(now_s(), latency_s, ok);
}

void SloTracker::record_at(double now_s, double latency_s, bool ok) {
  const auto epoch = static_cast<std::int64_t>(now_s / slot_span_s_);
  const auto idx = static_cast<std::size_t>(
      epoch % static_cast<std::int64_t>(slots_.size()));
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[idx];
  if (slot.epoch != epoch) {
    // The ring came back around; this slot's old contents fell out of the
    // window long ago.
    slot = Slot{};
    slot.epoch = epoch;
  }
  ++slot.count;
  if (!ok) ++slot.errors;
  if (breaches_objective(latency_s)) ++slot.breaches;
  slot.max_s = std::max(slot.max_s, latency_s);
  ++slot.buckets[static_cast<std::size_t>(Histogram::bucket_of(latency_s))];
}

SloTracker::Window SloTracker::merge_window(double now_s) const {
  const auto epoch = static_cast<std::int64_t>(now_s / slot_span_s_);
  const std::int64_t oldest = epoch - static_cast<std::int64_t>(slots_.size()) + 1;
  Window w;
  std::array<std::uint64_t, Histogram::kBuckets> merged{};
  for (const Slot& slot : slots_) {
    if (slot.epoch < oldest || slot.epoch > epoch) continue;
    w.count += slot.count;
    w.errors += slot.errors;
    w.breaches += slot.breaches;
    w.max_s = std::max(w.max_s, slot.max_s);
    for (std::size_t b = 0; b < merged.size(); ++b) merged[b] += slot.buckets[b];
  }
  if (w.count == 0) return w;

  const auto percentile = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q / 100.0 * static_cast<double>(w.count)));
    std::uint64_t seen = 0;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      seen += merged[static_cast<std::size_t>(b)];
      if (seen >= rank && rank > 0) {
        return std::min(Histogram::bucket_upper(b), w.max_s);
      }
    }
    return w.max_s;
  };
  w.p50_s = percentile(50.0);
  w.p95_s = percentile(95.0);
  w.p99_s = percentile(99.0);

  const double allowed = std::max(1e-9, 1.0 - cfg_.availability_objective);
  const double bad = static_cast<double>(w.errors + w.breaches) /
                     static_cast<double>(w.count);
  w.burn_rate = bad / allowed;
  return w;
}

SloTracker::Window SloTracker::window() const { return window_at(now_s()); }

SloTracker::Window SloTracker::window_at(double now_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return merge_window(now_s);
}

std::string SloTracker::persist_exemplar(std::uint64_t request_id,
                                         const std::string& json) {
  if (cfg_.exemplar_dir.empty()) return {};
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = ++exemplar_seq_;
  }
  std::error_code ec;
  const fs::path dir(cfg_.exemplar_dir);
  fs::create_directories(dir, ec);  // best-effort; the write below reports

  const fs::path final_path =
      dir / ("exemplar_" + std::to_string(request_id) + ".json");
  // Per-process temp name: two ctest shards (or two service instances)
  // pointed at the same directory never tear each other's writes, and the
  // rename makes the exemplar appear atomically or not at all.
  const fs::path tmp_path =
      dir / (".exemplar_" + std::to_string(TLRWSE_GETPID()) + "_" +
             std::to_string(seq) + ".tmp");
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return {};
    out << json;
    if (!out) {
      fs::remove(tmp_path, ec);
      return {};
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return {};
  }

  // Retention: drop the oldest exemplars past the bound. Names sort by
  // write time well enough for a bound, but use mtime to be precise.
  std::vector<std::pair<fs::file_time_type, fs::path>> existing;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.rfind("exemplar_", 0) != 0) continue;
    std::error_code tec;
    existing.emplace_back(fs::last_write_time(entry.path(), tec),
                          entry.path());
  }
  if (existing.size() > cfg_.max_exemplars) {
    std::sort(existing.begin(), existing.end());
    const std::size_t excess = existing.size() - cfg_.max_exemplars;
    for (std::size_t i = 0; i < excess; ++i) {
      std::error_code rec;
      fs::remove(existing[i].second, rec);
    }
  }
  return final_path.string();
}

std::string SloTracker::Window::to_json() const {
  std::ostringstream os;
  os << "{\"count\":" << count << ",\"errors\":" << errors
     << ",\"breaches\":" << breaches << ",\"p50_s\":" << p50_s
     << ",\"p95_s\":" << p95_s << ",\"p99_s\":" << p99_s
     << ",\"max_s\":" << max_s << ",\"burn_rate\":" << burn_rate << '}';
  return os.str();
}

SloGauges::SloGauges(MetricsRegistry& reg, std::string_view prefix)
    : p50_us(reg.gauge(std::string(prefix) + ".slo.p50_us")),
      p95_us(reg.gauge(std::string(prefix) + ".slo.p95_us")),
      p99_us(reg.gauge(std::string(prefix) + ".slo.p99_us")),
      burn_rate_milli(reg.gauge(std::string(prefix) + ".slo.burn_rate_milli")),
      window_count(reg.gauge(std::string(prefix) + ".slo.window_count")),
      window_breaches(reg.gauge(std::string(prefix) + ".slo.window_breaches")),
      window_errors(reg.gauge(std::string(prefix) + ".slo.window_errors")) {}

void SloTracker::publish(const SloGauges& gauges) const {
  const Window w = window();
  gauges.p50_us.set(static_cast<std::int64_t>(w.p50_s * 1e6));
  gauges.p95_us.set(static_cast<std::int64_t>(w.p95_s * 1e6));
  gauges.p99_us.set(static_cast<std::int64_t>(w.p99_s * 1e6));
  gauges.burn_rate_milli.set(static_cast<std::int64_t>(w.burn_rate * 1e3));
  gauges.window_count.set(static_cast<std::int64_t>(w.count));
  gauges.window_breaches.set(static_cast<std::int64_t>(w.breaches));
  gauges.window_errors.set(static_cast<std::int64_t>(w.errors));
}

}  // namespace tlrwse::obs
