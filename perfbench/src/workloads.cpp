// `perfbench run`: the three closed-loop workloads.
//
//   lsqr-resident    SolveService, operator resident, 2 clients
//   lsqr-streamed    SolveService streaming through ShardStreamer at half
//                    the payload, 1 client, same requests and LSQR budget
//   adjoint-cluster  ClusterService over 2 forked unix-socket workers on
//                    the bf16 archive, 8 clients sending adjoints
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: the LSQR workloads replay the seeded requests through the
// service (serve.* metrics) and then down a ladder of benchmark-owned
// decorators (io/oocache/tlr/mdc/mdd spans) whose answers must equal the
// service's bitwise; the cluster workload traces its real path through a
// Channel decorator. Every answer is checked bitwise against the
// precomputed reference.
#include <omp.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"
#include "fleet.hpp"
#include "spans.hpp"
#include "tlrwse/cluster/frontend.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdd/lsqr.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/oocache/shard_streamer.hpp"
#include "tlrwse/oocache/stream_plan.hpp"
#include "tlrwse/serve/solve_service.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace cl = tlrwse::cluster;
namespace sv = tlrwse::serve;

// Sources in a run's request pool, set-up repetitions per run, and the
// fewest successful requests of a timed phase and of a p90 block: a p90
// needs 10 samples beyond it.
constexpr index_t kPoolSize = 16;
constexpr int kSetupReps = 9;
constexpr std::uint64_t kMinTimedRequests = 100;

/// A workload's shape and its fixed thread budget: every process of the
/// workload together computes on at most 4 threads.
struct Spec {
  const char* name;
  int clients;
  int omp_threads;      // OMP_NUM_THREADS of the measured process (FFT teams)
  int service_workers;  // SolveService workers / ClusterService frontend workers
  int inner_threads;    // MdcOperator frequency-loop team (LSQR workloads)
  bool streamed;
  bool cluster;
  int fleet_workers;    // forked ShardWorker processes
  int worker_threads;   // OMP_NUM_THREADS of each worker process
  std::uint64_t min_requests;  // fewest successful timed requests
};

// lsqr-resident: 1 service worker with a 4-thread team; its 2 clients
// take turns, so one request waits while the other is solved. Two
// concurrent 2-thread teams were the most host-sensitive shape tried.
// Its timed phase runs at least 900 requests (about 30 s): the host's
// swings last tens of seconds, so a 15 s phase sat inside one of them.
// lsqr-streamed: one 3-thread team + the prefetch thread = 4.
// adjoint-cluster: 2 frontend workers with single-threaded FFTs + 2
// single-threaded worker processes = 4. Its 8 clients keep a full batch
// of 2 waiting whenever a frontend worker frees up, so every sweep carries
// 2 RHS while the other frontend worker's sweep overlaps it.
constexpr Spec kSpecs[] = {
    {"lsqr-resident", 2, 4, 1, 4, false, false, 0, 0, 900},
    {"lsqr-streamed", 1, 3, 1, 3, true, false, 0, 0, kMinTimedRequests},
    {"adjoint-cluster", 8, 1, 2, 0, false, true, 2, 1, kMinTimedRequests},
};

struct Config {
  Spec spec{};
  std::string dir;       // prepared inputs
  std::string work_dir;  // sockets and trace output
  std::uint64_t seed = 0;
  double seconds = 10.0;
  Manifest m;
  std::string archive;   // the workload's archive
};

/// Outcome of one request: its typed status and the bitwise check.
enum class Verdict { kOk, kRejected, kError, kMismatch };

/// Failure accounting shared by every phase.
struct Tally {
  std::atomic<std::uint64_t> sent{0}, ok{0}, rejected{0}, errors{0},
      mismatches{0};
  [[nodiscard]] std::uint64_t failed() const {
    return rejected + errors + mismatches;
  }
  void count(Verdict v) {
    sent.fetch_add(1);
    switch (v) {
      case Verdict::kOk: ok.fetch_add(1); break;
      case Verdict::kRejected: rejected.fetch_add(1); break;
      case Verdict::kError: errors.fetch_add(1); break;
      case Verdict::kMismatch: mismatches.fetch_add(1); break;
    }
  }
};

struct LoopResult {
  std::vector<double> latency_s;  // successful requests only
  std::vector<double> done_s;     // their completion times, from phase start
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  double wall_s = 0.0;
};

/// Closed loop: each of `clients` threads sends request k (from a shared
/// counter starting at `first_k`), waits for it, then sends the next. A
/// phase ends once `seconds` have passed and at least `min_ok` requests
/// succeeded, or after `max_requests` requests (0 = no cap), or at a hard
/// time cap.
LoopResult closed_loop(int clients, double seconds, std::uint64_t min_ok,
                       std::uint64_t max_requests, std::uint64_t first_k,
                       Tally& tally,
                       const std::function<Verdict(int, std::uint64_t)>& send) {
  const double hard_cap_s = std::max(3.0 * seconds, seconds + 60.0);
  std::atomic<std::uint64_t> next{first_k};
  std::atomic<std::uint64_t> ok{0};
  std::mutex mu;
  LoopResult out;
  const auto t0 = Clock::now();
  auto last_done = t0;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const double el = seconds_since(t0);
        if (el >= hard_cap_s) return;
        if (max_requests == 0 && el >= seconds && ok.load() >= min_ok) return;
        const std::uint64_t k = next.fetch_add(1);
        if (max_requests > 0 && k >= first_k + max_requests) return;
        const auto s0 = Clock::now();
        Verdict v = Verdict::kError;
        try {
          v = send(c, k);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request %llu: %s\n",
                       static_cast<unsigned long long>(k), e.what());
        }
        const auto done = Clock::now();
        tally.count(v);
        const std::lock_guard<std::mutex> lk(mu);
        ++out.issued;
        last_done = std::max(last_done, done);
        if (v == Verdict::kOk) {
          ok.fetch_add(1);
          ++out.ok;
          out.latency_s.push_back(std::chrono::duration<double>(done - s0).count());
          out.done_s.push_back(std::chrono::duration<double>(done - t0).count());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = std::chrono::duration<double>(last_done - t0).count();
  return out;
}

/// Completed requests per wall second, as the median over `blocks` runs
/// of equally many consecutive completions: a burst of interference slows
/// one block instead of the whole figure.
double blocked_rate(std::vector<double> done_s, int blocks) {
  std::sort(done_s.begin(), done_s.end());
  const std::size_t per = done_s.size() / static_cast<std::size_t>(blocks);
  if (per == 0) return 0.0;
  std::vector<double> rates;
  double prev = 0.0;
  for (int b = 0; b < blocks; ++b) {
    const double end = done_s[(static_cast<std::size_t>(b) + 1) * per - 1];
    rates.push_back(static_cast<double>(per) / (end - prev));
    prev = end;
  }
  return quantile(rates, 0.5);
}

/// The 90th percentile of the latencies, taken within each block of at
/// least kMinTimedRequests consecutive completions (so each has 10 samples
/// beyond it) and reported as the median over the blocks: a burst
/// of interference from outside the system moves one block, not the
/// figure. Fewer than 2 blocks' worth of samples gives the plain p90.
double blocked_p90(const std::vector<double>& done_s,
                   const std::vector<double>& latency_s) {
  std::vector<std::size_t> order(done_s.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return done_s[a] < done_s[b]; });
  const std::size_t blocks = std::max<std::size_t>(1, order.size() / kMinTimedRequests);
  const std::size_t per = order.size() / blocks;
  std::vector<double> p90s;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> block;
    const std::size_t end = b + 1 == blocks ? order.size() : (b + 1) * per;
    for (std::size_t i = b * per; i < end; ++i) block.push_back(latency_s[order[i]]);
    p90s.push_back(quantile(block, 0.9));
  }
  return quantile(p90s, 0.5);
}

Verdict check(bool status_ok, const std::vector<float>& x,
              const PoolEntry& e) {
  if (!status_ok) return Verdict::kRejected;
  return bitwise_equal(x, e.reference) ? Verdict::kOk : Verdict::kMismatch;
}

/// NMSE against the true reflectivity of the first answer the system
/// returned for each pool entry: nmse_vs_truth scores the answers, not
/// the references they are checked against.
class AnswerScores {
 public:
  explicit AnswerScores(const RequestSet& rs) : rs_(rs), nmse_(rs.size(), -1.0) {}
  void score(std::uint64_t k, const std::vector<float>& x) {
    const std::size_t s = rs_.slot(k);
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (nmse_[s] >= 0.0) return;
    }
    const double v = tlrwse::mdd::nmse(x, rs_.entry(k).truth);
    const std::lock_guard<std::mutex> lk(mu_);
    if (nmse_[s] < 0.0) nmse_[s] = v;
  }
  /// Pool entries no answer has scored yet.
  [[nodiscard]] std::vector<std::size_t> missing() const {
    const std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::size_t> out;
    for (std::size_t s = 0; s < nmse_.size(); ++s) {
      if (nmse_[s] < 0.0) out.push_back(s);
    }
    return out;
  }
  [[nodiscard]] double mean() const {
    const std::lock_guard<std::mutex> lk(mu_);
    double sum = 0.0;
    for (const double v : nmse_) sum += v;
    return sum / static_cast<double>(nmse_.size());
  }

 private:
  const RequestSet& rs_;
  mutable std::mutex mu_;
  std::vector<double> nmse_;  // < 0: not scored yet
};

/// The system under test: built, warmed with request 0, then driven.
class System {
 public:
  explicit System(const RequestSet& rs) : scores_(rs) {}
  virtual ~System() = default;
  virtual Verdict send(std::uint64_t k) = 0;
  /// Peak RSS of every process of the system, in MiB.
  [[nodiscard]] virtual double peak_rss_mib() const = 0;
  [[nodiscard]] AnswerScores& scores() { return scores_; }

 protected:
  AnswerScores scores_;
};

/// What the traced replay keeps of each service response.
struct ServeSample {
  double queue_wait_s = 0.0;
  double solve_s = 0.0;
  double batch_size = 0.0;
};

class ServiceSystem final : public System {
 public:
  ServiceSystem(const Config& c, const RequestSet& rs)
      : System(rs), c_(c), rs_(rs) {
    sv::ServiceConfig sc;
    sc.workers = c.spec.service_workers;
    sc.inner_threads = c.spec.inner_threads;
    if (c.spec.streamed) sc.max_resident_bytes = c.m.payload_fp32 / 2.0;
    svc_ = std::make_unique<sv::SolveService>(sc);
  }
  Verdict send(std::uint64_t k) override {
    const PoolEntry& e = rs_.entry(k);
    sv::SolveRequest req;
    req.op = sv::OperatorKey{c_.archive, 0, 0.0};
    req.kind = sv::RequestKind::kLsqr;
    req.vsrc = e.vsrc;
    req.rhs = e.rhs;
    req.lsqr.max_iters = c_.m.lsqr_iters;
    const sv::SolveResponse r = svc_->submit(std::move(req)).get();
    if (r.status == sv::SolveStatus::kError) return Verdict::kError;
    if (record_) {
      const std::lock_guard<std::mutex> lk(mu_);
      samples_[k] = {r.queue_wait_s, r.solve_s, static_cast<double>(r.batch_size)};
    }
    if (r.status == sv::SolveStatus::kOk) scores_.score(k, r.x);
    return check(r.status == sv::SolveStatus::kOk, r.x, e);
  }
  [[nodiscard]] double peak_rss_mib() const override {
    return perfbench::peak_rss_mib();
  }
  void record(bool on) { record_ = on; }
  [[nodiscard]] const std::map<std::uint64_t, ServeSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] double cache_hit_ratio() const {
    return svc_->metrics().cache.hit_rate();
  }

 private:
  const Config& c_;
  const RequestSet& rs_;
  std::unique_ptr<sv::SolveService> svc_;
  bool record_ = false;
  std::mutex mu_;
  std::map<std::uint64_t, ServeSample> samples_;
};

/// What the traced cluster run keeps of each response.
struct ClusterSample {
  std::uint64_t request_id = 0;
  std::size_t slot = 0;      // pool entry
  std::int64_t done_ns = 0;  // client receive time, span-log clock
  double solve_s = 0.0;
};

class ClusterSystem final : public System {
 public:
  ClusterSystem(const Config& c, const RequestSet& rs, SpanLog* log)
      : System(rs),
        c_(c),
        rs_(rs),
        log_(log),
        fleet_(c.spec.fleet_workers, c.spec.worker_threads,
               c.work_dir + "/sock") {
    std::vector<std::unique_ptr<cl::WorkerClient>> clients;
    auto channels = fleet_.take_channels();
    for (std::size_t w = 0; w < channels.size(); ++w) {
      std::unique_ptr<cl::Channel> ch = std::move(channels[w]);
      if (log_ != nullptr) {
        ch = std::make_unique<TracedChannel>(std::move(ch), *log_, c.m.ns, c.m.nr);
      }
      clients.push_back(std::make_unique<cl::WorkerClient>(
          std::move(ch), "worker" + std::to_string(w)));
    }
    // Batches of at most 2: with 8 clients a full pair is always queued,
    // while larger batches make the sizes alternate from run to run.
    cl::ClusterConfig cc;
    cc.frontend_workers = c.spec.service_workers;
    cc.max_batch = 2;
    svc_ = std::make_unique<cl::ClusterService>(cc, std::move(clients));
  }
  ~ClusterSystem() override {
    svc_->shutdown();
    fleet_.reap(5.0);
  }
  Verdict send(std::uint64_t k) override {
    const PoolEntry& e = rs_.entry(k);
    cl::ClusterRequest req;
    req.op = sv::OperatorKey{c_.archive, 0, 0.0};
    req.kind = sv::RequestKind::kAdjoint;
    req.vsrc = e.vsrc;
    req.rhs = e.rhs;
    const cl::ClusterResponse r = svc_->submit(std::move(req)).response.get();
    if (r.status == cl::ClusterStatus::kError ||
        r.status == cl::ClusterStatus::kWorkerFailed) {
      return Verdict::kError;
    }
    if (record_ && log_ != nullptr) {
      const std::lock_guard<std::mutex> lk(mu_);
      samples_.push_back({r.request_id, rs_.slot(k), log_->now_ns(), r.solve_s});
    }
    if (r.status == cl::ClusterStatus::kOk) scores_.score(k, r.x);
    return check(r.status == cl::ClusterStatus::kOk, r.x, e);
  }
  [[nodiscard]] double peak_rss_mib() const override {
    return perfbench::peak_rss_mib() + fleet_.peak_rss_mib();
  }
  void record(bool on) { record_ = on; }
  [[nodiscard]] std::vector<ClusterSample> take_samples() {
    const std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(samples_, {});
  }
  /// shard id -> compressed kernel bytes of its frequencies.
  [[nodiscard]] std::map<std::uint32_t, double> shard_bytes() {
    const std::vector<double> kb = tlrwse::io::archive_kernel_bytes(c_.archive);
    std::map<std::uint32_t, double> out;
    for (const auto& wh : svc_->fleet_health()) {
      for (const auto& sh : wh.health.shards) {
        double b = 0.0;
        for (index_t q = sh.q_begin; q < sh.q_end; ++q) {
          b += kb[static_cast<std::size_t>(q)];
        }
        out[sh.shard_id] = b;
      }
    }
    return out;
  }

 private:
  const Config& c_;
  const RequestSet& rs_;
  SpanLog* log_;
  Fleet fleet_;  // outlives the service: its destructor reaps the workers
  std::unique_ptr<cl::ClusterService> svc_;
  bool record_ = false;
  std::mutex mu_;
  std::vector<ClusterSample> samples_;
};

std::unique_ptr<System> build_system(const Config& c, const RequestSet& rs,
                                     SpanLog* log) {
  if (c.spec.cluster) return std::make_unique<ClusterSystem>(c, rs, log);
  return std::make_unique<ServiceSystem>(c, rs);
}

/// Builds the system and answers the warm-up request `reps` times; returns
/// the last system and the set-up times. Every repetition but the last
/// runs in a forked child of this (still single-threaded) process, so each
/// starts from the same state and the kept system's peak RSS is not
/// inflated by the allocator leftovers of earlier ones.
std::unique_ptr<System> set_up(const Config& c, const RequestSet& rs,
                               SpanLog* log, int reps, Tally& tally,
                               std::vector<double>& setup_s) {
  for (int r = 0; r + 1 < reps; ++r) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      double t = -1.0;
      try {
        const auto t0 = Clock::now();
        auto sys = build_system(c, rs, log);
        if (sys->send(0) == Verdict::kOk) t = seconds_since(t0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "set-up repetition: %s\n", e.what());
      }
      const bool sent = ::write(fds[1], &t, sizeof(t)) == sizeof(t);
      ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    double t = -1.0;
    const bool got = ::read(fds[0], &t, sizeof(t)) == sizeof(t);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    tally.count(got && t >= 0.0 ? Verdict::kOk : Verdict::kError);
    if (!got || t < 0.0) throw std::runtime_error("set-up repetition failed");
    setup_s.push_back(t);
  }
  const auto t0 = Clock::now();
  auto sys = build_system(c, rs, log);
  const Verdict v = sys->send(0);
  setup_s.push_back(seconds_since(t0));
  tally.count(v);
  if (v != Verdict::kOk) throw std::runtime_error("warm-up request failed");
  return sys;
}

void print_result(const Tally& t, const JsonObject& metrics,
                  const JsonObject& info) {
  JsonObject out;
  out.boolean("correct", t.mismatches == 0 && t.errors == 0)
      .integer("attempted", static_cast<long long>(t.sent.load()))
      .integer("failed", static_cast<long long>(t.failed()))
      .raw("metrics", metrics.dump())
      .raw("info", info.dump());
  std::fflush(stderr);
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

JsonObject tally_json(const Tally& t) {
  JsonObject j;
  j.integer("sent", static_cast<long long>(t.sent.load()))
      .integer("ok", static_cast<long long>(t.ok.load()))
      .integer("rejected", static_cast<long long>(t.rejected.load()))
      .integer("errors", static_cast<long long>(t.errors.load()))
      .integer("mismatches", static_cast<long long>(t.mismatches.load()));
  return j;
}

int run_untraced(const Config& c, const RequestSet& rs) {
  Tally tally;
  std::vector<double> setup_s;
  auto sys = set_up(c, rs, nullptr, kSetupReps, tally, setup_s);
  const auto send = [&](int, std::uint64_t k) { return sys->send(k); };
  // Untimed warm-up traffic from every client, so each service worker,
  // OpenMP team and connection has served a request before timing starts.
  const std::uint64_t warm = 4 * static_cast<std::uint64_t>(c.spec.clients);
  closed_loop(c.spec.clients, 0.0, 0, warm, 1, tally, send);
  const LoopResult loop = closed_loop(c.spec.clients, c.seconds, c.spec.min_requests,
                                      0, 1 + warm, tally, send);
  // Pool entries the run happened not to ask for are asked once each after
  // the timed phase, so nmse_vs_truth always covers the whole pool.
  for (const std::size_t s : sys->scores().missing()) {
    tally.count(sys->send(rs.first_k(s)));
  }
  const double rss = sys->peak_rss_mib();
  const double nmse = sys->scores().mean();
  sys.reset();

  JsonObject metrics;
  metrics.num("solves_per_s", blocked_rate(loop.done_s, 10))
      .num("latency_p50_s", quantile(loop.latency_s, 0.5))
      .num("latency_p90_s", blocked_p90(loop.done_s, loop.latency_s))
      .num("setup_s", quantile(setup_s, 0.5))
      .num("peak_rss_mb", rss)
      .num("nmse_vs_truth", nmse);
  JsonObject info = tally_json(tally);
  info.integer("latency_samples", static_cast<long long>(loop.latency_s.size()))
      .integer("setup_samples", static_cast<long long>(setup_s.size()))
      .num("timed_wall_s", loop.wall_s);
  print_result(tally, metrics, info);
  return tally.failed() == 0 ? 0 : 2;
}

// ---------------------------------------------------------------- traced

/// Length of the union of [a, b) intervals, clipped to [lo, hi).
double covered_s(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                 std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return 1e-9 * static_cast<double>(total);
}

/// Per-request samples of every per-layer metric; reported as medians.
class LayerTable {
 public:
  explicit LayerTable(std::vector<std::string> names) : names_(std::move(names)) {}
  void add(const std::string& name, double v) {
    if (std::find(names_.begin(), names_.end(), name) == names_.end()) {
      throw std::logic_error("undeclared layer metric " + name);
    }
    samples_[name].push_back(v);
  }
  /// Metrics with no samples (layers absent on this workload) read 0.
  [[nodiscard]] JsonObject medians() const {
    JsonObject j;
    for (const auto& n : names_) {
      const auto it = samples_.find(n);
      j.num(n, it == samples_.end() ? 0.0 : quantile(it->second, 0.5));
    }
    return j;
  }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::vector<double>> samples_;
};

LayerTable make_layer_table() {
  return LayerTable({
      "io.load_s", "io.load_bytes", "io.load_gbps",
      "oocache.acquire_wait_s", "oocache.shard_loads", "oocache.hit_ratio",
      "oocache.bytes_per_sweep",
      "tlr.mvm_calls", "tlr.mvm_busy_s", "tlr.mvm_bytes",
      "mdc.applies", "mdc.apply_s", "mdc.apply_self_s", "mdc.apply_gbps",
      "mdd.iterations", "mdd.lsqr_self_s",
      "serve.queue_wait_s", "serve.solve_s", "serve.overhead_s",
      "serve.batch_size", "serve.cache_hit_ratio", "serve.rejected",
      "cluster.rpc_calls", "cluster.rpc_s", "cluster.wire_bytes",
      "cluster.wire_gbps", "cluster.frontend_self_s", "cluster.rhs_per_sweep",
      "cluster.retries",
      "trace.solves_per_s", "trace.untraced_solves_per_s",
      "trace.overhead_pct",
  });
}

double file_bytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;

std::string trace_path(const Config& c) {
  return c.work_dir + "/trace-" + c.spec.name + "-seed" + std::to_string(c.seed) +
         ".json";
}

/// Runs `phase(half, traced)` in the order (0, off), (0, on), (1, off),
/// (1, on), so that a drift of the host during the comparison falls on
/// both modes alike, and adds the trace.* metrics.
void add_overhead(LayerTable& t,
                  const std::function<LoopResult(int, bool)>& phase) {
  double ok[2] = {0.0, 0.0}, wall[2] = {0.0, 0.0};
  for (int half = 0; half < 2; ++half) {
    for (const bool traced : {false, true}) {
      const LoopResult r = phase(half, traced);
      ok[traced] += static_cast<double>(r.ok);
      wall[traced] += r.wall_s;
    }
  }
  const double rps_off = ok[0] / wall[0];
  const double rps_on = ok[1] / wall[1];
  t.add("trace.untraced_solves_per_s", rps_off);
  t.add("trace.solves_per_s", rps_on);
  t.add("trace.overhead_pct", 100.0 * (1.0 - rps_on / rps_off));
}

/// The service's own path, untraced, for `seconds`: the serve.* metrics.
/// Returns the per-request samples; `issued` is the request count.
std::map<std::uint64_t, ServeSample> replay_service(const Config& c,
                                                    const RequestSet& rs,
                                                    LayerTable& t, Tally& tally,
                                                    std::uint64_t& issued) {
  std::vector<double> setup_s;
  auto sys = set_up(c, rs, nullptr, 1, tally, setup_s);
  auto& svc = static_cast<ServiceSystem&>(*sys);
  svc.record(true);
  issued = closed_loop(c.spec.clients, c.seconds / 3.0, 10, 0, 1, tally,
                       [&](int, std::uint64_t k) { return svc.send(k); })
               .issued;
  for (const auto& [k, s] : svc.samples()) {
    t.add("serve.queue_wait_s", s.queue_wait_s);
    t.add("serve.solve_s", s.solve_s);
    t.add("serve.batch_size", s.batch_size);
  }
  t.add("serve.cache_hit_ratio", svc.cache_hit_ratio());
  t.add("serve.rejected", static_cast<double>(tally.rejected.load()));
  return svc.samples();
}

/// What the ladder keeps of each request beyond its spans.
struct LadderSample {
  int iterations = 0;
  double hits = 0.0, misses = 0.0, bytes_streamed = 0.0, sweeps = 0.0;
};

/// The LSQR workloads' layers assembled from public pieces with a
/// decorator at every seam: per client, io::make_kernels (or an
/// ArchiveShardSource + ShardStreamer) -> TracedMvm (TracedStream,
/// TracedSource) -> MdcOperator -> TracedOperator -> mdd::lsqr_solve.
/// It runs as many clients as the service solves at once, so it keeps
/// the thread budget and its solves do not queue. Resident clients share
/// one set of kernels.
class Ladder {
 public:
  Ladder(const Config& c, const RequestSet& rs, LayerTable& t)
      : c_(c),
        rs_(rs),
        clients_(static_cast<std::size_t>(
            std::min(c.spec.clients, c.spec.service_workers))) {
    const std::vector<double> kbytes = tlrwse::io::archive_kernel_bytes(c.archive);
    const tlrwse::io::ArchiveInfo info = tlrwse::io::peek_archive_extents(c.archive);
    if (!c.spec.streamed) {
      const auto t0 = Clock::now();
      const tlrwse::io::KernelArchive archive = tlrwse::io::load_archive(c.archive);
      const double load_s = seconds_since(t0);
      t.add("io.load_s", load_s);
      t.add("io.load_bytes", file_bytes(c.archive));
      t.add("io.load_gbps", file_bytes(c.archive) / load_s / 1e9);
      kernels_ = tlrwse::io::make_kernels(archive);
    }
    // Shard loads read whole granules; spread each granule's file bytes
    // over its frequencies.
    std::vector<double> file_bytes_per_freq(static_cast<std::size_t>(info.num_freqs()));
    for (const auto& ext : info.extents) {
      for (index_t q = 0; q < ext.num_freqs; ++q) {
        file_bytes_per_freq[static_cast<std::size_t>(ext.first_freq + q)] =
            static_cast<double>(ext.bytes) / static_cast<double>(ext.num_freqs);
      }
    }
    for (Client& cl : clients_) {
      if (!c.spec.streamed) {
        cl.op = std::make_unique<tlrwse::mdc::MdcOperator>(
            info.nt, info.freq_bins, trace_kernels(kernels_, kbytes, log_, cl.ctx));
      } else {
        tlrwse::oocache::StreamPlanConfig pc;
        pc.budget_bytes = c.m.payload_fp32 / 2.0;
        tlrwse::oocache::StreamConfig sc;
        sc.budget_bytes = pc.budget_bytes;
        auto source = std::make_shared<TracedSource>(
            std::make_shared<tlrwse::oocache::ArchiveShardSource>(c.archive, info),
            file_bytes_per_freq, log_, cl.ctx);
        cl.streamer = std::make_shared<tlrwse::oocache::ShardStreamer>(
            source, tlrwse::oocache::compile_stream_plan(info, pc), sc);
        cl.stream = std::make_shared<TracedStream>(cl.streamer, kbytes, log_, cl.ctx);
        cl.op = std::make_unique<tlrwse::mdc::MdcOperator>(info.nt, info.freq_bins,
                                                           cl.stream);
      }
      cl.op->set_inner_threads(c.spec.inner_threads);
      cl.top = std::make_unique<TracedOperator>(*cl.op, log_, cl.ctx);
    }
  }

  [[nodiscard]] SpanLog& log() { return log_; }
  [[nodiscard]] int clients() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] std::map<std::uint64_t, LadderSample> samples() {
    const std::lock_guard<std::mutex> lk(mu_);
    return samples_;
  }

  Verdict send(int client, std::uint64_t k) {
    Client& cl = clients_[static_cast<std::size_t>(client)];
    const PoolEntry& e = rs_.entry(k);
    tlrwse::mdd::LsqrConfig cfg;
    cfg.max_iters = c_.m.lsqr_iters;
    cl.ctx.request.store(k);
    const auto s0 = cl.streamer ? cl.streamer->stats() : tlrwse::oocache::StreamStats{};
    const std::uint64_t sweeps0 = cl.stream ? cl.stream->sweeps() : 0;
    tlrwse::mdd::LsqrResult res;
    {
      const ScopedSpan span(log_, cl.ctx, "mdd.lsqr");
      res = tlrwse::mdd::lsqr_solve(*cl.top, e.rhs, cfg);
    }
    LadderSample ls;
    ls.iterations = res.iterations;
    if (cl.streamer) {
      const auto s1 = cl.streamer->stats();
      ls.hits = static_cast<double>(s1.hits - s0.hits);
      ls.misses = static_cast<double>(s1.misses - s0.misses);
      ls.bytes_streamed = s1.bytes_streamed - s0.bytes_streamed;
      ls.sweeps = static_cast<double>(cl.stream->sweeps() - sweeps0);
    }
    {
      const std::lock_guard<std::mutex> lk(mu_);
      samples_[k] = ls;
    }
    return check(true, res.x, e);
  }

 private:
  struct Client {
    TraceContext ctx;
    std::shared_ptr<tlrwse::oocache::ShardStreamer> streamer;  // streamed only
    std::shared_ptr<TracedStream> stream;                      // streamed only
    std::unique_ptr<tlrwse::mdc::MdcOperator> op;
    std::unique_ptr<TracedOperator> top;
  };

  const Config& c_;
  const RequestSet& rs_;
  SpanLog log_{false};
  std::vector<std::unique_ptr<tlrwse::mdc::FrequencyMvm>> kernels_;  // resident
  std::vector<Client> clients_;
  std::mutex mu_;
  std::map<std::uint64_t, LadderSample> samples_;
};

/// Per-request layer metrics from the ladder's spans: request k's
/// mdd.lsqr span, its mdc.apply children and their tlr.mvm /
/// oocache.acquire children, plus the io.load spans tagged with k.
void attribute_ladder(const Config& c, const std::vector<Span>& spans,
                      const std::map<std::uint64_t, LadderSample>& ladder,
                      const std::map<std::uint64_t, ServeSample>& served,
                      LayerTable& t) {
  std::map<std::uint64_t, std::vector<const Span*>> children, by_request;
  for (const Span& s : spans) {
    children[s.parent].push_back(&s);
    by_request[s.request].push_back(&s);
  }
  for (const auto& [k, ls] : ladder) {
    const Span* lsqr = nullptr;
    double io_s = 0.0, io_bytes = 0.0, loads = 0.0;
    for (const Span* s : by_request[k]) {
      const std::string name = s->name;
      if (name == "mdd.lsqr") lsqr = s;
      if (name == "io.load") {
        io_s += s->seconds();
        io_bytes += s->bytes;
        loads += 1.0;
      }
    }
    if (lsqr == nullptr) continue;
    double applies = 0.0, apply_s = 0.0, apply_self = 0.0, mvm_calls = 0.0,
           mvm_busy = 0.0, mvm_bytes = 0.0, acquire_s = 0.0;
    Intervals apply_iv;
    for (const Span* a : children[lsqr->id]) {
      applies += 1.0;
      apply_s += a->seconds();
      apply_iv.emplace_back(a->t0_ns, a->t1_ns);
      Intervals child_iv;
      for (const Span* ch : children[a->id]) {
        child_iv.emplace_back(ch->t0_ns, ch->t1_ns);
        if (std::string(ch->name) == "tlr.mvm") {
          mvm_calls += 1.0;
          mvm_busy += ch->seconds();
          mvm_bytes += ch->bytes;
        } else {
          acquire_s += ch->seconds();
        }
      }
      apply_self += a->seconds() - covered_s(child_iv, a->t0_ns, a->t1_ns);
    }
    const double lsqr_s = lsqr->seconds();
    t.add("mdd.iterations", ls.iterations);
    t.add("mdd.lsqr_self_s", lsqr_s - covered_s(apply_iv, lsqr->t0_ns, lsqr->t1_ns));
    t.add("mdc.applies", applies);
    t.add("mdc.apply_s", apply_s);
    t.add("mdc.apply_self_s", apply_self);
    t.add("mdc.apply_gbps", apply_s > 0.0 ? mvm_bytes / apply_s / 1e9 : 0.0);
    t.add("tlr.mvm_calls", mvm_calls);
    t.add("tlr.mvm_busy_s", mvm_busy);
    t.add("tlr.mvm_bytes", mvm_bytes);
    const auto sv = served.find(k);
    if (sv != served.end()) t.add("serve.overhead_s", sv->second.solve_s - lsqr_s);
    if (c.spec.streamed) {
      t.add("io.load_s", io_s);
      t.add("io.load_bytes", io_bytes);
      t.add("io.load_gbps", io_s > 0.0 ? io_bytes / io_s / 1e9 : 0.0);
      t.add("oocache.acquire_wait_s", acquire_s);
      t.add("oocache.shard_loads", loads);
      t.add("oocache.hit_ratio",
            ls.hits + ls.misses > 0.0 ? ls.hits / (ls.hits + ls.misses) : 0.0);
      t.add("oocache.bytes_per_sweep",
            ls.sweeps > 0.0 ? ls.bytes_streamed / ls.sweeps : 0.0);
    }
  }
}

int run_traced_lsqr(const Config& c, const RequestSet& rs) {
  Tally tally;
  LayerTable t = make_layer_table();
  std::uint64_t n = 0;
  const auto served = replay_service(c, rs, t, tally, n);

  // The same n requests down the ladder, with the span log off and on,
  // in alternating halves.
  Ladder ladder(c, rs, t);
  const auto send = [&](int client, std::uint64_t k) { return ladder.send(client, k); };
  for (int client = 0; client < ladder.clients(); ++client) {
    if (ladder.send(client, 0) != Verdict::kOk) {
      throw std::runtime_error("ladder warm-up answer differs from the reference");
    }
  }
  const std::uint64_t half_n = (n + 1) / 2;
  add_overhead(t, [&](int half, bool traced) {
    ladder.log().set_enabled(traced);
    const std::uint64_t first = 1 + static_cast<std::uint64_t>(half) * half_n;
    const std::uint64_t count = half == 0 ? half_n : n - half_n;
    LoopResult r = closed_loop(ladder.clients(), 0.0, 0, count, first, tally, send);
    ladder.log().set_enabled(false);
    return r;
  });
  attribute_ladder(c, ladder.log().spans(), ladder.samples(), served, t);
  ladder.log().write_chrome_json(trace_path(c));

  JsonObject info = tally_json(tally);
  info.integer("replayed_requests", static_cast<long long>(n))
      .str("trace_json", trace_path(c));
  print_result(tally, t.medians(), info);
  return tally.failed() == 0 ? 0 : 2;
}

/// Fingerprint of pool entry `slot` on `shard`, learned from exchanges
/// of requests sent alone (their kApply frames carry the request id).
using Fingerprints = std::map<std::pair<std::size_t, std::uint32_t>, std::uint64_t>;

Fingerprints learn_fingerprints(const std::vector<Span>& spans,
                                const std::vector<ClusterSample>& alone) {
  Fingerprints fp;
  for (const ClusterSample& r : alone) {
    for (const Span& s : spans) {
      if (s.request == r.request_id && s.nrhs == 1 && !s.fingerprints.empty()) {
        fp[{r.slot, s.shard}] = s.fingerprints.front();
      }
    }
  }
  return fp;
}

int run_traced_cluster(const Config& c, const RequestSet& rs) {
  Tally tally;
  LayerTable t = make_layer_table();
  SpanLog log(false);
  std::vector<ClusterSample> samples;
  Fingerprints fp;
  std::map<std::uint32_t, double> shard_bytes;
  std::uint64_t n_requests = 0;
  {
    std::vector<double> setup_s;
    auto sys = set_up(c, rs, &log, 1, tally, setup_s);
    auto& cs = static_cast<ClusterSystem&>(*sys);
    shard_bytes = cs.shard_bytes();
    auto send = [&](int, std::uint64_t k) { return cs.send(k); };
    // Each pool entry once, alone, to learn its fingerprint on each shard.
    log.set_enabled(true);
    cs.record(true);
    for (std::size_t slot = 0; slot < rs.size(); ++slot) {
      tally.count(cs.send(rs.first_k(slot)));
    }
    cs.record(false);
    log.set_enabled(false);
    fp = learn_fingerprints(log.spans(), cs.take_samples());
    const std::uint64_t warm = 4 * static_cast<std::uint64_t>(c.spec.clients);
    closed_loop(c.spec.clients, 0.0, 0, warm, 1, tally, send);
    std::uint64_t next_k = 1 + warm;
    add_overhead(t, [&](int, bool traced) {
      log.set_enabled(traced);
      cs.record(traced);
      LoopResult r = closed_loop(c.spec.clients, c.seconds / 4.0, 10, 0, next_k,
                                 tally, send);
      cs.record(false);
      log.set_enabled(false);
      next_k += r.issued;
      n_requests += r.issued;
      return r;
    });
    samples = cs.take_samples();
  }
  // The workers' archive loads happen inside their processes; the io
  // layer is timed here as the same bytes loaded by this process.
  {
    const auto t0 = Clock::now();
    const tlrwse::io::KernelArchive archive = tlrwse::io::load_archive(c.archive);
    const double load_s = seconds_since(t0);
    t.add("io.load_s", load_s);
    t.add("io.load_bytes", file_bytes(c.archive));
    t.add("io.load_gbps", file_bytes(c.archive) / load_s / 1e9);
  }

  // A request's exchanges: on each shard, the last kApply that ended
  // inside its solve window and carried its entry's fingerprint. Two
  // frontend workers overlap their sweeps, so time alone cannot tell
  // which sweep a request rode on; the fingerprint can.
  std::map<std::uint32_t, std::vector<const Span*>> by_shard;
  const std::vector<Span> spans = log.spans();
  for (const Span& s : spans) {
    if (s.nrhs > 0) by_shard[s.shard].push_back(&s);
  }
  std::vector<const Span*> first_shard_sweeps;
  for (const ClusterSample& r : samples) {
    const std::int64_t start = r.done_ns - static_cast<std::int64_t>(r.solve_s * 1e9);
    double rpc_s = 0.0, bytes = 0.0, worker_s = 0.0, freqs = 0.0, mvm_bytes = 0.0;
    double calls = 0.0, retries = 0.0;
    std::int64_t nrhs = 1;
    Intervals iv;
    bool complete = true;
    for (const auto& [shard, exchanges] : by_shard) {
      const auto want = fp.find({r.slot, shard});
      if (want == fp.end()) {
        complete = false;
        break;
      }
      const Span* ok = nullptr;
      for (const Span* s : exchanges) {
        if (s->t0_ns < start || s->t1_ns > r.done_ns) continue;
        if (std::find(s->fingerprints.begin(), s->fingerprints.end(),
                      want->second) == s->fingerprints.end()) {
          continue;
        }
        if (s->failed) {
          retries += 1.0;
        } else if (ok == nullptr || s->t1_ns > ok->t1_ns) {
          ok = s;
        }
      }
      if (ok == nullptr) {
        complete = false;
        break;
      }
      if (shard == by_shard.begin()->first) first_shard_sweeps.push_back(ok);
      calls += 1.0;
      rpc_s += ok->seconds();
      bytes += ok->bytes;
      worker_s += ok->worker_s;
      freqs += static_cast<double>(ok->nfreq);
      nrhs = ok->nrhs;
      iv.emplace_back(ok->t0_ns, ok->t1_ns);
      const auto it = shard_bytes.find(shard);
      if (it != shard_bytes.end()) mvm_bytes += it->second;
    }
    if (!complete) continue;
    t.add("cluster.rpc_calls", calls + retries);
    t.add("cluster.rpc_s", rpc_s);
    t.add("cluster.wire_bytes", bytes / static_cast<double>(nrhs));
    t.add("cluster.wire_gbps", rpc_s > 0.0 ? bytes / rpc_s / 1e9 : 0.0);
    t.add("cluster.frontend_self_s", r.solve_s - covered_s(iv, start, r.done_ns));
    t.add("cluster.rhs_per_sweep", static_cast<double>(nrhs));
    t.add("cluster.retries", retries);
    t.add("tlr.mvm_calls", freqs);
    t.add("tlr.mvm_busy_s", worker_s);
    t.add("tlr.mvm_bytes", mvm_bytes);
  }
  std::sort(first_shard_sweeps.begin(), first_shard_sweeps.end());
  const auto sweeps = std::unique(first_shard_sweeps.begin(), first_shard_sweeps.end()) -
                      first_shard_sweeps.begin();
  log.write_chrome_json(trace_path(c));
  JsonObject info = tally_json(tally);
  info.integer("traced_requests", static_cast<long long>(samples.size()))
      .integer("requests", static_cast<long long>(n_requests))
      .integer("sweeps", static_cast<long long>(sweeps))
      .str("trace_json", trace_path(c));
  print_result(tally, t.medians(), info);
  return tally.failed() == 0 ? 0 : 2;
}

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Pins OMP_NUM_THREADS to the workload's budget: the OpenMP runtime reads
/// it once at start-up, so a mismatch re-executes this process with it set.
void pin_omp_threads(const Spec& spec, char** argv) {
  const std::string want = std::to_string(spec.omp_threads);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && want == have) return;
  ::setenv("OMP_NUM_THREADS", want.c_str(), 1);
  ::execve("/proc/self/exe", argv, environ);
  throw std::runtime_error("re-exec with OMP_NUM_THREADS failed");
}

}  // namespace

int cmd_run(Args& args, char** argv) {
  Config c;
  c.spec = find_spec(args.str("workload", ""));
  c.dir = args.str("dir", "");
  c.work_dir = args.str("work-dir", "");
  c.seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  c.seconds = args.num("seconds", 10.0);
  const bool trace = args.integer("trace", 0) != 0;
  args.finish();
  if (c.dir.empty() || c.work_dir.empty()) {
    throw std::invalid_argument("run: --dir and --work-dir are required");
  }
  pin_omp_threads(c.spec, argv);
  std::filesystem::create_directories(c.work_dir);

  c.m = read_manifest(c.dir);
  c.archive = archive_path(c.dir, c.spec.cluster);
  const RequestSet rs(c.dir, c.m, c.seed, kPoolSize, c.spec.cluster);
  std::fprintf(stderr,
               "%s: seed %llu, pool of %lld sources, %d clients, threads: omp "
               "%d, inner %d, %d workers x %d\n",
               c.spec.name, static_cast<unsigned long long>(c.seed),
               static_cast<long long>(kPoolSize), c.spec.clients,
               omp_get_max_threads(), c.spec.inner_threads, c.spec.fleet_workers,
               c.spec.worker_threads);
  if (!trace) return run_untraced(c, rs);
  return c.spec.cluster ? run_traced_cluster(c, rs) : run_traced_lsqr(c, rs);
}

}  // namespace perfbench
