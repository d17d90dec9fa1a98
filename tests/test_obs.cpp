// Tests for the observability layer: sharded counter/gauge/histogram merge
// under concurrent writers, the scoped-span tracer (nesting, thread
// attribution, detail tier, ring overflow), cross-module instrumentation
// (tlr compression, LSQR), SLO windows and trace merging.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "tlrwse/mdd/lsqr.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/prometheus.hpp"
#include "tlrwse/obs/slo_tracker.hpp"
#include "tlrwse/obs/stage_breakdown.hpp"
#include "tlrwse/obs/trace_context.hpp"
#include "tlrwse/obs/trace_merge.hpp"
#include "tlrwse/obs/tracer.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"

namespace tlrwse {
namespace {

// ------------------------------------------------------------- metrics --

TEST(Counter, ConcurrentWritersMergeExactly) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, AddWithArgumentAccumulates) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
}

TEST(Gauge, SetAddValue) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("g");
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
  g.add(8);
  EXPECT_EQ(g.value(), 3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, ConcurrentWritersMergeExactly) {
  // Integer-valued samples: double addition of integers below 2^53 is
  // exact in any order, so count/sum/min/max must all merge exactly
  // across shards regardless of which slot each thread hashed to.
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : writers) w.join();

  const auto s = h.snapshot();
  const auto n = static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(s.count, n);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 * static_cast<double>(n) *
                              static_cast<double>(n + 1));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(n));
  std::uint64_t bucket_total = 0;
  for (const auto b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);

  // Percentiles are octave estimates clamped to the observed max and
  // must be monotone in q.
  const double p50 = s.percentile(50.0);
  const double p99 = s.percentile(99.0);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, s.max);

  h.reset();
  const auto z = h.snapshot();
  EXPECT_EQ(z.count, 0u);
  EXPECT_DOUBLE_EQ(z.min, 0.0);
  EXPECT_DOUBLE_EQ(z.max, 0.0);
}

TEST(Histogram, BucketEdges) {
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(-3.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1e300), obs::Histogram::kBuckets - 1);
  // Buckets are monotone in the value and the upper bounds double.
  int prev = 0;
  for (double v = 1e-9; v < 1e3; v *= 4.0) {
    const int b = obs::Histogram::bucket_of(v);
    EXPECT_GE(b, prev);
    prev = b;
    EXPECT_GT(obs::Histogram::bucket_upper(b), v * 0.5);
  }
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(31 - obs::Histogram::kMinExp),
                   std::ldexp(1.0, 31));
}

TEST(MetricsRegistry, SameNameReturnsSameHandle) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(&reg.counter("a"), &reg.counter("a"));
  EXPECT_NE(&reg.counter("a"), &reg.counter("b"));
  EXPECT_EQ(&reg.gauge("a"), &reg.gauge("a"));
  EXPECT_EQ(&reg.histogram("a"), &reg.histogram("a"));
}

TEST(MetricsRegistry, SnapshotJsonHasStableShape) {
  obs::MetricsRegistry reg;
  reg.counter("alpha").add(3);
  reg.gauge("depth").set(-5);
  reg.histogram("lat").record(2.0);
  const std::string js = reg.snapshot().to_json();
  EXPECT_NE(js.find("\"counters\":{\"alpha\":3}"), std::string::npos) << js;
  EXPECT_NE(js.find("\"gauges\":{\"depth\":-5}"), std::string::npos) << js;
  EXPECT_NE(js.find("\"lat\""), std::string::npos) << js;
  EXPECT_NE(js.find("\"count\":1"), std::string::npos) << js;

  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("alpha"), 0u);
  EXPECT_EQ(snap.gauges.at("depth"), 0);
  EXPECT_EQ(snap.histograms.front().snap.count, 0u);
}

// ---------------------------------------------------------- prometheus --

TEST(Prometheus, MetricNameSanitisation) {
  EXPECT_EQ(obs::prometheus_metric_name("serve.queue_wait"),
            "tlrwse_serve_queue_wait");
  EXPECT_EQ(obs::prometheus_metric_name("a..b--c"), "tlrwse_a_b_c");
  EXPECT_EQ(obs::prometheus_metric_name("trailing..."), "tlrwse_trailing");
}

TEST(Prometheus, TextExpositionCoversAllMetricKinds) {
  obs::MetricsRegistry reg;
  reg.counter("prom.hits").add(7);
  reg.gauge("prom.depth").set(-3);
  reg.histogram("prom.lat").record(2.0);
  reg.histogram("prom.lat").record(150.0);
  const std::string text = obs::metrics_to_prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE tlrwse_prom_hits counter\n"
                      "tlrwse_prom_hits 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tlrwse_prom_depth gauge\n"
                      "tlrwse_prom_depth -3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tlrwse_prom_lat histogram"),
            std::string::npos);
  EXPECT_NE(text.find("tlrwse_prom_lat_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("tlrwse_prom_lat_count 2"), std::string::npos);
  EXPECT_NE(text.find("tlrwse_prom_lat_sum 152"), std::string::npos);
  // Cumulative bucket counts must be monotone non-decreasing.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  while ((pos = text.find("tlrwse_prom_lat_bucket{le=\"", pos)) !=
         std::string::npos) {
    const auto val_pos = text.find("} ", pos) + 2;
    const auto value = std::strtoull(text.c_str() + val_pos, nullptr, 10);
    EXPECT_GE(value, prev);
    prev = value;
    ++pos;
  }
}

// -------------------------------------------------------------- tracer --

/// Minimal parser for the tracer's one-event-per-line JSON output; enough
/// to assert on names, phases, thread attribution, and span containment.
struct ParsedEvent {
  std::string name;
  char ph = '?';
  long tid = -1;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds ('X' only)
};

double num_field(const std::string& line, const char* key) {
  const std::string tag = std::string("\"") + key + "\":";
  const auto pos = line.find(tag);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + pos + tag.size(), nullptr);
}

std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> out;
  std::size_t start = 0;
  while (start < json.size()) {
    std::size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(start, end - start);
    start = end + 1;
    const auto npos = line.find("{\"name\":\"");
    if (npos == std::string::npos) continue;
    ParsedEvent ev;
    const auto nb = npos + 9;
    ev.name = line.substr(nb, line.find('"', nb) - nb);
    const auto ph = line.find("\"ph\":\"");
    if (ph != std::string::npos) ev.ph = line[ph + 6];
    ev.tid = static_cast<long>(num_field(line, "tid"));
    ev.ts = num_field(line, "ts");
    ev.dur = num_field(line, "dur");
    out.push_back(std::move(ev));
  }
  return out;
}

const ParsedEvent* find_event(const std::vector<ParsedEvent>& evs,
                              const char* name) {
  for (const auto& e : evs) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(Tracer, SpanNestingAndThreadAttribution) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  tracer.set_thread_name("obs-test-main");
  {
    obs::ScopedSpan outer("obs_test.outer", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      obs::ScopedSpan inner("obs_test.inner", "test");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread worker([&] {
    tracer.set_thread_name("obs-test-worker");
    obs::ScopedSpan w("obs_test.worker", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  worker.join();
  tracer.disable();

  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("obs-test-worker"), std::string::npos);

  const auto evs = parse_events(json);
  const auto* outer = find_event(evs, "obs_test.outer");
  const auto* inner = find_event(evs, "obs_test.inner");
  const auto* work = find_event(evs, "obs_test.worker");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(outer->ph, 'X');

  // The inner span is contained in the outer one (microsecond rounding
  // can only shrink the slack, never break containment by more than 1e-3).
  EXPECT_GE(inner->ts, outer->ts - 1e-3);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + 1e-3);
  EXPECT_LT(inner->dur, outer->dur);

  // The worker's events carry a different tid than the main thread's.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_NE(work->tid, outer->tid);
}

TEST(Tracer, DisabledRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();  // clears previous buffers
  tracer.disable();
  {
    obs::ScopedSpan s("obs_test.ignored", "test");
  }
  tracer.counter("obs_test.ignored_counter", 1.0);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_count(), 0u);
}

TEST(Tracer, CounterEventsCarryValue) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  tracer.counter("obs_test.series", 2.5);
  tracer.disable();
  const auto evs = parse_events(tracer.to_json());
  const auto* c = find_event(evs, "obs_test.series");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->ph, 'C');
  EXPECT_NE(tracer.to_json().find("\"value\":2.5"), std::string::npos);
}

TEST(Tracer, RingOverflowKeepsTailAndCountsDropped) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 100; ++i) {
    tracer.complete("obs_test.ring", "test", i, 1);
  }
  tracer.disable();
  EXPECT_EQ(tracer.event_count(), 8u);
  EXPECT_EQ(tracer.dropped_count(), 92u);
  // The ring holds the newest events, not the oldest.
  const auto evs = parse_events(tracer.to_json());
  for (const auto& e : evs) {
    if (e.name == "obs_test.ring") {
      EXPECT_GE(e.ts * 1e3, 92.0 - 1e-6);
    }
  }
}

TEST(Tracer, RingOverflowSurfacesDroppedSpansCounter) {
  // Ring-buffer truncation must be visible in the process registry, not
  // just the tracer's own dropped_count(): dashboards scrape the registry.
  const std::uint64_t before =
      obs::MetricsRegistry::instance().snapshot().counters.count(
          "trace.dropped_spans")
          ? obs::MetricsRegistry::instance()
                .snapshot()
                .counters.at("trace.dropped_spans")
          : 0;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.complete("obs_test.drop", "test", i, 1);
  }
  tracer.disable();
  EXPECT_EQ(tracer.dropped_count(), 16u);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.counters.count("trace.dropped_spans"));
  EXPECT_EQ(snap.counters.at("trace.dropped_spans") - before, 16u);
}

TEST(Tracer, DetailTierIsGated) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(1024, /*detail=*/false);
  EXPECT_TRUE(obs::Tracer::enabled());
  EXPECT_FALSE(obs::Tracer::detail_enabled());
  tracer.enable(1024, /*detail=*/true);
  EXPECT_TRUE(obs::Tracer::detail_enabled());
  tracer.disable();
  EXPECT_FALSE(obs::Tracer::enabled());
  EXPECT_FALSE(obs::Tracer::detail_enabled());
}

TEST(Tracer, DetailMacroRecordsOnlyWithDetailEnabled) {
  obs::Tracer& tracer = obs::Tracer::instance();

  tracer.enable(1024, /*detail=*/false);
  {
    TLRWSE_TRACE_SPAN("obs_test.coarse", "test");
    TLRWSE_TRACE_SPAN_DETAIL("obs_test.fine", "test");
  }
  tracer.disable();
  auto evs = parse_events(tracer.to_json());
  EXPECT_NE(find_event(evs, "obs_test.coarse"), nullptr);
  EXPECT_EQ(find_event(evs, "obs_test.fine"), nullptr);

  tracer.enable(1024, /*detail=*/true);
  {
    TLRWSE_TRACE_SPAN("obs_test.coarse", "test");
    TLRWSE_TRACE_SPAN_DETAIL("obs_test.fine", "test");
  }
  tracer.disable();
  evs = parse_events(tracer.to_json());
  EXPECT_NE(find_event(evs, "obs_test.coarse"), nullptr);
  EXPECT_NE(find_event(evs, "obs_test.fine"), nullptr);
}

// ------------------------------------------- cross-module integration --

TEST(ObsIntegration, CompressTlrRecordsGlobalMetrics) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const std::uint64_t tiles_before = reg.counter("tlr.tiles_compressed").value();
  const std::uint64_t ranks_before = reg.histogram("tlr.tile_rank").snapshot().count;
  const std::uint64_t times_before =
      reg.histogram("tlr.tile_compress_s.svd").snapshot().count;

  la::MatrixCF A(32, 24);
  for (index_t j = 0; j < A.cols(); ++j) {
    for (index_t i = 0; i < A.rows(); ++i) {
      const auto u = static_cast<float>(i) / 32.0f;
      const auto v = static_cast<float>(j) / 24.0f;
      A(i, j) = cf32{std::cos(6.0f * u * v), std::sin(6.0f * u * v)};
    }
  }
  tlr::CompressionConfig cc;
  cc.nb = 8;  // 4 x 3 tile grid
  cc.acc = 1e-3;
  const auto M = tlr::compress_tlr(A, cc);
  const auto expected =
      static_cast<std::uint64_t>(M.grid().num_tiles());
  EXPECT_EQ(expected, 12u);

  EXPECT_EQ(reg.counter("tlr.tiles_compressed").value() - tiles_before,
            expected);
  EXPECT_EQ(reg.histogram("tlr.tile_rank").snapshot().count - ranks_before,
            expected);
  EXPECT_EQ(reg.histogram("tlr.tile_compress_s.svd").snapshot().count -
                times_before,
            expected);
}

/// Diagonal operator A = diag(1..n): exact adjoint, trivially verifiable,
/// and enough to drive the instrumented LSQR loop.
class DiagOperator final : public mdc::LinearOperator {
 public:
  explicit DiagOperator(index_t n) : n_(n) {}
  [[nodiscard]] index_t rows() const override { return n_; }
  [[nodiscard]] index_t cols() const override { return n_; }
  void apply(std::span<const float> x, std::span<float> y) const override {
    for (index_t i = 0; i < n_; ++i) {
      y[static_cast<std::size_t>(i)] =
          static_cast<float>(i + 1) * x[static_cast<std::size_t>(i)];
    }
  }
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override {
    apply(y, x);  // real diagonal: self-adjoint
  }

 private:
  index_t n_;
};

TEST(ObsIntegration, LsqrRecordsIterationsAndTraceSpans) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const std::uint64_t solves_before = reg.counter("mdd.lsqr.solves").value();
  const std::uint64_t iters_before = reg.counter("mdd.lsqr.iterations").value();

  const DiagOperator A(16);
  std::vector<float> b(16);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0f;
  mdd::LsqrConfig cfg;
  cfg.max_iters = 5;
  cfg.atol = 0.0;
  cfg.btol = 0.0;

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  const auto res = mdd::lsqr_solve(A, b, cfg);
  tracer.disable();

  ASSERT_GE(res.iterations, 1);
  EXPECT_EQ(reg.counter("mdd.lsqr.solves").value() - solves_before, 1u);
  EXPECT_EQ(reg.counter("mdd.lsqr.iterations").value() - iters_before,
            static_cast<std::uint64_t>(res.iterations));

  const auto evs = parse_events(tracer.to_json());
  ASSERT_NE(find_event(evs, "mdd.lsqr"), nullptr);
  ASSERT_NE(find_event(evs, "mdd.lsqr.iter"), nullptr);
  const auto* resid = find_event(evs, "mdd.lsqr.residual");
  ASSERT_NE(resid, nullptr);
  EXPECT_EQ(resid->ph, 'C');
  // One iteration span and one residual sample per LSQR iteration.
  int iter_spans = 0;
  int resid_samples = 0;
  for (const auto& e : evs) {
    if (e.name == "mdd.lsqr.iter") ++iter_spans;
    if (e.name == "mdd.lsqr.residual") ++resid_samples;
  }
  EXPECT_EQ(iter_spans, res.iterations);
  EXPECT_EQ(resid_samples, res.iterations);
}

// ----------------------------------------------------------------- slo --

TEST(SloTracker, WindowCountsBreachesAndBurnRate) {
  obs::SloConfig cfg;
  cfg.latency_objective_s = 0.1;
  cfg.availability_objective = 0.99;  // 1% error budget
  cfg.window_s = 60.0;
  cfg.slots = 6;
  obs::SloTracker slo(cfg);

  // 100 requests at t=1: 90 fast+ok, 5 slow (latency breach), 5 errors.
  for (int i = 0; i < 90; ++i) slo.record_at(1.0, 0.01, true);
  for (int i = 0; i < 5; ++i) slo.record_at(1.0, 0.5, true);
  for (int i = 0; i < 5; ++i) slo.record_at(1.0, 0.01, false);

  const auto w = slo.window_at(2.0);
  EXPECT_EQ(w.count, 100u);
  EXPECT_EQ(w.breaches, 5u);
  EXPECT_EQ(w.errors, 5u);
  EXPECT_DOUBLE_EQ(w.max_s, 0.5);
  // 10 bad of 100 against a 1% budget: burning 10x faster than it refills.
  EXPECT_NEAR(w.burn_rate, 10.0, 1e-9);
  // Octave buckets: percentiles land in the right decade, not exactly.
  EXPECT_GT(w.p50_s, 0.0);
  EXPECT_LT(w.p50_s, 0.1);
  EXPECT_GE(w.p99_s, 0.1);
}

TEST(SloTracker, OldSlotsRotateOutOfTheWindow) {
  obs::SloConfig cfg;
  cfg.window_s = 60.0;
  cfg.slots = 6;  // 10s per slot
  obs::SloTracker slo(cfg);

  slo.record_at(5.0, 0.01, true);
  EXPECT_EQ(slo.window_at(6.0).count, 1u);
  // Still inside the window...
  EXPECT_EQ(slo.window_at(50.0).count, 1u);
  // ...and gone once the window has moved past its slot.
  EXPECT_EQ(slo.window_at(80.0).count, 0u);
  EXPECT_DOUBLE_EQ(slo.window_at(80.0).burn_rate, 0.0);

  // A lap of the ring (same slot index, later epoch) resets the slot
  // rather than mixing epochs.
  slo.record_at(5.0 + cfg.window_s, 0.02, true);
  const auto w = slo.window_at(6.0 + cfg.window_s);
  EXPECT_EQ(w.count, 1u);
  EXPECT_DOUBLE_EQ(w.max_s, 0.02);
}

TEST(SloTracker, NoObjectiveMeansNoBreaches) {
  obs::SloTracker slo;  // latency_objective_s = 0
  EXPECT_FALSE(slo.breaches_objective(1e9));
  slo.record_at(1.0, 123.0, true);
  EXPECT_EQ(slo.window_at(2.0).breaches, 0u);
}

TEST(SloTracker, PublishesWindowGauges) {
  obs::SloConfig cfg;
  cfg.latency_objective_s = 0.001;
  obs::SloTracker slo(cfg);
  slo.record(0.5, true);  // breach
  obs::MetricsRegistry reg;
  const obs::SloGauges gauges(reg, "svc");
  slo.publish(gauges);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauges.at("svc.slo.window_count"), 1);
  EXPECT_EQ(snap.gauges.at("svc.slo.window_breaches"), 1);
  EXPECT_EQ(snap.gauges.at("svc.slo.window_errors"), 0);
  EXPECT_GT(snap.gauges.at("svc.slo.p99_us"), 0);
}

TEST(SloTracker, ExemplarsAreAtomicAndBounded) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tlrwse_slo_ex_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  obs::SloConfig cfg;
  cfg.exemplar_dir = dir.string();
  cfg.max_exemplars = 4;
  obs::SloTracker slo(cfg);

  for (std::uint64_t id = 1; id <= 10; ++id) {
    const std::string path =
        slo.persist_exemplar(id, "{\"request_id\":" + std::to_string(id) + "}");
    ASSERT_FALSE(path.empty());
    EXPECT_TRUE(fs::exists(path));
  }

  std::size_t files = 0;
  bool newest_present = false;
  for (const auto& ent : fs::directory_iterator(dir)) {
    const std::string name = ent.path().filename().string();
    // Atomic rename: no half-written temp files survive.
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    ++files;
    if (name == "exemplar_10.json") newest_present = true;
  }
  // Retention keeps the directory bounded and favours the newest.
  EXPECT_LE(files, cfg.max_exemplars);
  EXPECT_TRUE(newest_present);

  // Unset directory: best-effort no-op, never an exception.
  obs::SloTracker unset;
  EXPECT_EQ(unset.persist_exemplar(1, "{}"), "");
  fs::remove_all(dir);
}

// --------------------------------------------------------- trace merge --

TEST(ClockAlignment, OffsetRecoveredFromMinRttSample) {
  // Worker clock = frontend clock + 5000ns. Two samples: a noisy one
  // (asymmetric delay, high RTT residual) and a tight one; the NTP filter
  // must pick the tight sample's offset.
  std::vector<obs::ClockSample> samples;
  // Tight: t0=1000 t1=6100 t2=6200 t3=1400 -> offset ((5100)+(4800))/2=4950
  samples.push_back({1000, 6100, 6200, 1400});
  // Noisy: 3000ns of one-sided delay -> offset estimate way off (8000+).
  samples.push_back({1000, 9100, 9200, 1400 + 6000});
  EXPECT_LT(obs::clock_sample_rtt_ns(samples[0]),
            obs::clock_sample_rtt_ns(samples[1]));
  EXPECT_EQ(obs::estimate_clock_offset_ns(samples), 4950);
  EXPECT_EQ(obs::estimate_clock_offset_ns({}), 0);
}

TEST(TraceMerge, AlignsNormalisesAndMarksDrops) {
  // Frontend spans on its own clock; one worker whose clock runs 1ms
  // ahead. After the merge every timestamp is frontend-relative with the
  // earliest span at 0, worker spans clamped into the frontend window.
  obs::MergedTraceInput in;
  in.trace_id = 42;
  in.frontend_spans.push_back(
      {"request", 42, 1, 0, 1'000'000'000ull, 2'000'000ull});
  in.frontend_spans.push_back(
      {"frontend.rpc shard=1", 42, 2, 1, 1'000'100'000ull, 1'500'000ull});

  obs::WorkerTrace w;
  w.name = "worker0";
  w.offset_ns = 1'000'000;  // worker clock minus frontend clock
  w.spans.push_back(
      {"worker.apply", 42, 7, 2, 1'001'200'000ull, 400'000ull});
  w.dropped_spans = 3;
  in.workers.push_back(w);

  const std::string json = obs::merge_trace_json(in);
  EXPECT_NE(json.find("\"traceId\":\"42\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedSpans\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);  // normalised
  EXPECT_NE(json.find("worker.apply"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"42\""), std::string::npos);
  // Worker span: 1'001'200'000 - offset 1'000'000 - base 1'000'000'000 =
  // 200'000ns = 200us into the request window.
  EXPECT_NE(json.find("\"ts\":200"), std::string::npos);
  // Frontend is pid 0, the worker pid 1.
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(TraceMerge, ClampsWorkerSpansIntoTheFrontendWindow) {
  obs::MergedTraceInput in;
  in.trace_id = 7;
  in.frontend_spans.push_back({"request", 7, 1, 0, 1'000'000ull, 1'000'000ull});
  obs::WorkerTrace w;
  w.name = "worker0";
  // Bad offset estimate: the aligned span would start before the request.
  w.offset_ns = 5'000'000;
  w.spans.push_back({"worker.apply", 7, 2, 1, 1'000'000ull, 500'000ull});
  in.workers.push_back(w);
  const std::string json = obs::merge_trace_json(in);
  // Clamped to the window start, not negative and not pre-request.
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos);
  EXPECT_NE(json.find("worker.apply"), std::string::npos);
}

TEST(RemoteSpanBuffer, BoundsSpansPerTraceAndCountsDrops) {
  obs::RemoteSpanBuffer buf(/*max_traces=*/2, /*max_spans_per_trace=*/3);
  for (int i = 0; i < 5; ++i) {
    buf.record({"s", 1, buf.next_span_id(), 0, 0, 0});
  }
  auto dump = buf.take(1);
  EXPECT_EQ(dump.spans.size(), 3u);
  EXPECT_EQ(dump.dropped, 2u);
  // take() removed it.
  EXPECT_EQ(buf.take(1).spans.size(), 0u);

  // FIFO eviction across traces: the oldest trace goes first.
  buf.record({"a", 10, 1, 0, 0, 0});
  buf.record({"b", 11, 2, 0, 0, 0});
  buf.record({"c", 12, 3, 0, 0, 0});  // evicts trace 10
  EXPECT_EQ(buf.trace_count(), 2u);
  EXPECT_EQ(buf.take(10).spans.size(), 0u);
  EXPECT_EQ(buf.take(11).spans.size(), 1u);
  EXPECT_EQ(buf.take(12).spans.size(), 1u);

  // trace_id 0 is "no trace" and never recorded.
  buf.record({"z", 0, 1, 0, 0, 0});
  EXPECT_EQ(buf.trace_count(), 0u);
}

// --------------------------------------------------- stage breakdown ----

TEST(StageBreakdown, RecorderFillsAllStageHistograms) {
  obs::MetricsRegistry reg;
  obs::StageRecorder rec(reg, "svc");
  obs::StageBreakdown st;
  st.queue_wait_s = 0.001;
  st.load_s = 0.002;
  st.fft_s = 0.003;
  st.mvm_s = 0.004;
  st.rpc_s = 0.005;
  st.lsqr_s = 0.01;
  st.lsqr_iterations = 4;
  rec.record(st);
  rec.record(st);
  const auto snap = reg.snapshot();
  std::size_t stage_hists = 0;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("svc.stage.", 0) == 0) {
      ++stage_hists;
      EXPECT_EQ(h.snap.count, 2u) << h.name;
    }
  }
  EXPECT_EQ(stage_hists, 9u);
  EXPECT_NE(st.to_json().find("\"mvm_s\""), std::string::npos);
}

// ------------------------------------------------------ fleet metrics ---

TEST(Prometheus, FleetExportMergesSnapshots) {
  obs::MetricsRegistry a, b;
  a.counter("fleet.applies").add(3);
  b.counter("fleet.applies").add(4);
  b.histogram("fleet.lat_s").record(0.5);
  const std::vector<obs::MetricsRegistry::Snapshot> snaps{a.snapshot(),
                                                          b.snapshot()};
  const std::string text = obs::fleet_to_prometheus_text(snaps);
  // Counters sum across the fleet; histograms merge.
  EXPECT_NE(text.find("fleet_applies 7"), std::string::npos);
  EXPECT_NE(text.find("fleet_lat_s_count 1"), std::string::npos);
}

TEST(Tracer, DropsAttributedPerThread) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(/*capacity=*/4);
  tracer.set_thread_name("drops-main");
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.complete("obs_test.per_thread", "test", i, 1);
  }
  std::thread quiet([&] {
    tracer.set_thread_name("drops-quiet");
    tracer.complete("obs_test.quiet", "test", 0, 1);
  });
  quiet.join();
  tracer.disable();

  const auto drops = tracer.dropped_by_thread();
  std::uint64_t main_drops = 0, quiet_drops = 0, listed = 0;
  for (const auto& d : drops) {
    ++listed;
    if (d.name == "drops-main") main_drops = d.dropped;
    if (d.name == "drops-quiet") quiet_drops = d.dropped;
  }
  EXPECT_GE(listed, 2u);
  EXPECT_EQ(main_drops, 16u);  // 20 pushed into a 4-slot ring
  EXPECT_EQ(quiet_drops, 0u);

  obs::MetricsRegistry reg;
  tracer.publish_drop_gauges(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauges.at("trace.dropped_spans.drops-main"), 16);
  EXPECT_EQ(snap.gauges.at("trace.dropped_spans.drops-quiet"), 0);
  EXPECT_GE(snap.gauges.at("trace.dropped_spans.total"), 16);
}

}  // namespace
}  // namespace tlrwse
