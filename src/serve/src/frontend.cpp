#include "tlrwse/serve/frontend.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <utility>

#include "tlrwse/common/error.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/cancellation.hpp"
#include "tlrwse/obs/tracer.hpp"

namespace tlrwse::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Registry suffix of each status's lifecycle counter, by enum value.
constexpr const char* kOutcomeCounters[] = {
    "completed",        "rejected_queue_full",      "rejected_quota",
    "rejected_deadline", "rejected_archive_missing", "worker_failed",
    "cancelled",        "failed",
};
static_assert(std::size(kOutcomeCounters) ==
              static_cast<std::size_t>(SolveStatus::kError) + 1);

std::string metric(const OperatorSource& source, const char* name) {
  return std::string(source.metric_prefix()) + "." + name;
}

}  // namespace

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOk: return "ok";
    case SolveStatus::kQueueFull: return "queue_full";
    case SolveStatus::kQuotaExceeded: return "quota_exceeded";
    case SolveStatus::kDeadlineExceeded: return "deadline_exceeded";
    case SolveStatus::kArchiveMissing: return "archive_missing";
    case SolveStatus::kWorkerFailed: return "worker_failed";
    case SolveStatus::kCancelled: return "cancelled";
    case SolveStatus::kError: return "error";
  }
  return "unknown";
}

SourceError archive_load_error(const std::string& archive_id,
                               const std::string& what) {
  // The archive can vanish between the admission peek and the load.
  return SourceError(std::filesystem::exists(archive_id)
                         ? SolveStatus::kError
                         : SolveStatus::kArchiveMissing,
                     what);
}

Frontend::Frontend(FrontendConfig cfg, OperatorSource& source,
                   obs::MetricsRegistry& registry)
    : cfg_(std::move(cfg)),
      source_(source),
      registry_(registry),
      submitted_(registry_.counter(metric(source, "submitted"))),
      admitted_(registry_.counter(metric(source, "admitted"))),
      batches_(registry_.counter(metric(source, "batches"))),
      coalesced_(registry_.counter(metric(source, "coalesced"))),
      multi_rhs_(registry_.counter(metric(source, "multi_rhs"))),
      queue_depth_gauge_(registry_.gauge(metric(source, "queue_depth"))),
      queue_peak_gauge_(registry_.gauge(metric(source, "queue_peak_depth"))),
      latency_hist_(registry_.histogram(metric(source, "latency_s"))),
      queue_wait_hist_(registry_.histogram(metric(source, "queue_wait_s"))),
      solve_hist_(registry_.histogram(metric(source, "solve_s"))),
      stage_recorder_(registry_, source.metric_prefix()),
      slo_(cfg_.slo),
      slo_gauges_(registry_, source.metric_prefix()),
      queue_(cfg_.queue_capacity),
      exec_(std::max(1, cfg_.workers)) {
  TLRWSE_REQUIRE(cfg_.workers > 0, "frontend needs at least one worker");
  TLRWSE_REQUIRE(cfg_.queue_capacity > 0, "queue capacity must be positive");
  TLRWSE_REQUIRE(cfg_.max_batch > 0, "max batch must be positive");
  for (const char* name : kOutcomeCounters) {
    outcomes_.push_back(&registry_.counter(metric(source, name)));
  }
  // Mirrored under the queue mutex so the gauges always agree with
  // depth() at any quiescent point (set()s from snapshots taken outside
  // the lock can land out of order against a racing pop).
  queue_.set_depth_observer([this](std::size_t depth, std::size_t peak) {
    queue_depth_gauge_.set(static_cast<std::int64_t>(depth));
    queue_peak_gauge_.set(static_cast<std::int64_t>(peak));
  });
  worker_futures_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    worker_futures_.push_back(exec_.submit([this] { worker_loop(); }));
  }
}

Frontend::~Frontend() { shutdown(); }

SubmittedRequest Frontend::submit(SolveRequest req) {
  TLRWSE_TRACE_SPAN("serve.submit", "serve");
  Ticket ticket;
  ticket.req = std::move(req);
  ticket.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  ticket.cancelled = std::make_shared<std::atomic<bool>>(false);
  ticket.admitted = Clock::now();
  SubmittedRequest out;
  out.request_id = ticket.id;
  out.response = ticket.done.get_future();
  submitted_.add();

  // A header peek (a few hundred bytes) catches a missing/corrupt archive
  // without paying a kernel load or a placement; operators the source
  // already holds skip even that.
  if (!source_.holds(ticket.req.op)) {
    try {
      (void)io::peek_archive(ticket.req.op.archive_id);
    } catch (const std::exception& e) {
      reject(ticket, SolveStatus::kArchiveMissing, e.what());
      return out;
    }
  }
  bool over_quota = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    live_.emplace(ticket.id, ticket.cancelled);
    if (cfg_.tenant_quota > 0) {
      std::size_t& inflight = tenant_inflight_[ticket.req.tenant];
      over_quota = inflight >= cfg_.tenant_quota;
      if (!over_quota) {
        ++inflight;  // released by respond()
        ticket.holds_quota = true;
      }
    }
  }
  if (over_quota) {
    reject(ticket, SolveStatus::kQuotaExceeded,
           "tenant in-flight quota exhausted");
    return out;
  }

  if (queue_.try_push(ticket.req.op, ticket).admitted) {
    admitted_.add();
    return out;
  }
  // Backpressure: reject instead of blocking the caller or growing the
  // queue without bound. A closed engine rejects the same way.
  reject(ticket, SolveStatus::kQueueFull, "admission queue full");
  return out;
}

void Frontend::cancel(std::uint64_t request_id) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = live_.find(request_id);
    if (it == live_.end()) return;
    it->second->store(true, std::memory_order_relaxed);
  }
  source_.cancel(request_id);
}

void Frontend::shutdown() {
  if (shut_down_.exchange(true)) return;
  queue_.close();
  for (auto& f : worker_futures_) f.get();
  worker_futures_.clear();
  exec_.shutdown();
}

void Frontend::worker_loop() {
  for (;;) {
    OperatorKey key;
    std::vector<Ticket> batch = queue_.pop_batch(cfg_.max_batch, key);
    if (batch.empty()) return;  // closed and drained
    process_batch(key, std::move(batch));
  }
}

void Frontend::process_batch(const OperatorKey& key,
                             std::vector<Ticket> batch) {
  TLRWSE_TRACE_SPAN("serve.batch", "serve");
  batches_.add();
  if (batch.size() > 1) coalesced_.add(batch.size());
  for (auto& ticket : batch) ticket.batch_size = batch.size();

  std::unique_ptr<OperatorSource::Lease> lease;
  const Clock::time_point load_start = Clock::now();
  try {
    lease = source_.acquire(key);
  } catch (const SourceError& e) {
    for (auto& ticket : batch) reject(ticket, e.status(), e.what());
    return;
  } catch (const std::exception& e) {
    for (auto& ticket : batch) reject(ticket, SolveStatus::kError, e.what());
    return;
  }
  // A cache hit / cached placement makes this ~0; a miss charges the load
  // to every request of the batch that triggered it.
  const double load_s = seconds_between(load_start, Clock::now());

  // Coalescible adjoints: no deadline (it could not be enforced inside a
  // shared sweep), not cancelled, well-formed rhs. LSQR tickets, whose
  // iterates depend on their own residuals, and everything else solve
  // singly with their own deadline/cancel plumbing.
  std::vector<std::size_t> group;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Ticket& t = batch[i];
    if (t.req.kind == RequestKind::kAdjoint && t.req.deadline_s <= 0.0 &&
        !t.cancelled->load(std::memory_order_relaxed) &&
        static_cast<index_t>(t.req.rhs.size()) == lease->rows()) {
      group.push_back(i);
    }
  }
  if (group.size() >= 2) {
    solve_adjoint_group(batch, group, *lease, load_s);
  } else {
    group.clear();
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (next < group.size() && group[next] == i) {
      ++next;  // already answered by the grouped sweep
      continue;
    }
    solve_ticket(batch[i], *lease, load_s);
  }
}

SolveStatus Frontend::classify_failure(const Ticket& ticket,
                                       std::string& error) {
  try {
    throw;
  } catch (const mdc::CancelledError&) {
    return ticket.cancelled->load(std::memory_order_relaxed)
               ? SolveStatus::kCancelled
               : SolveStatus::kDeadlineExceeded;
  } catch (const SourceError& e) {
    source_.invalidate(ticket.req.op);
    error = e.what();
    return e.status();
  } catch (const std::exception& e) {
    error = e.what();
    return SolveStatus::kError;
  }
}

void Frontend::solve_adjoint_group(std::vector<Ticket>& batch,
                                   const std::vector<std::size_t>& group,
                                   const OperatorSource::Lease& lease,
                                   double load_s) {
  TLRWSE_TRACE_SPAN("serve.adjoint_group", "serve");
  const Clock::time_point dequeued = Clock::now();
  const auto nrhs = static_cast<index_t>(group.size());
  const auto rows = static_cast<std::size_t>(lease.rows());
  std::vector<float> Y(rows * group.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    const std::vector<float>& rhs = batch[group[k]].req.rhs;
    std::copy(rhs.begin(), rhs.end(),
              Y.begin() + static_cast<std::ptrdiff_t>(k * rows));
  }

  // Stage attribution only (no sampling): the grouped sweep shares one
  // pass, so its stage times are shared by every grouped ticket.
  obs::RequestTrace rt;
  rt.stages.load_s = load_s;
  std::vector<float> X;
  SolveStatus status = SolveStatus::kOk;
  std::string error;
  const double stall0_s = lease.stall_s();
  try {
    const auto op = lease.bind(/*request_id=*/0, {}, rt);
    X.resize(static_cast<std::size_t>(op->cols()) * group.size());
    op->apply_adjoint_batch(Y, X, nrhs);
  } catch (...) {
    status = classify_failure(batch[group.front()], error);
  }
  const Clock::time_point done = Clock::now();
  rt.stages.stream_stall_s = std::max(0.0, lease.stall_s() - stall0_s);
  if (status == SolveStatus::kOk) multi_rhs_.add(group.size());

  const std::size_t cols = X.size() / group.size();
  for (std::size_t k = 0; k < group.size(); ++k) {
    Ticket& ticket = batch[group[k]];
    SolveResponse r;
    r.status = status;
    r.error = error;
    if (status == SolveStatus::kOk) {
      r.x.assign(X.begin() + static_cast<std::ptrdiff_t>(k * cols),
                 X.begin() + static_cast<std::ptrdiff_t>((k + 1) * cols));
    }
    r.queue_wait_s = seconds_between(ticket.admitted, dequeued);
    r.solve_s = seconds_between(dequeued, done);
    r.stages = rt.stages;
    r.stages.queue_wait_s = r.queue_wait_s;
    stage_recorder_.record(r.stages);
    respond(ticket, std::move(r));
  }
}

void Frontend::solve_ticket(Ticket& ticket, const OperatorSource::Lease& lease,
                            double load_s) {
  TLRWSE_TRACE_SPAN("serve.request", "serve");
  const Clock::time_point dequeued = Clock::now();
  SolveResponse r;
  r.queue_wait_s = seconds_between(ticket.admitted, dequeued);

  const std::atomic<bool>* const cancelled = ticket.cancelled.get();
  if (cancelled->load(std::memory_order_relaxed)) {
    r.status = SolveStatus::kCancelled;
    respond(ticket, std::move(r));
    return;
  }
  const double deadline_s = ticket.req.deadline_s;
  Clock::time_point deadline_at{};
  if (deadline_s > 0.0) {
    deadline_at = ticket.admitted +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(deadline_s));
    if (dequeued >= deadline_at) {  // dropped, no solve work spent
      r.status = SolveStatus::kDeadlineExceeded;
      respond(ticket, std::move(r));
      return;
    }
  }
  if (static_cast<index_t>(ticket.req.rhs.size()) != lease.rows()) {
    r.status = SolveStatus::kError;
    r.error = "rhs size does not match nt x nS of the archive";
    respond(ticket, std::move(r));
    return;
  }

  // Always-on stage attribution; spans/clock samples only when the caller
  // asked for a trace. The request id doubles as the trace id (unique per
  // engine, never 0 for issued requests).
  obs::RequestTrace rt;
  rt.stages.queue_wait_s = r.queue_wait_s;
  rt.stages.load_s = load_s;
  std::uint64_t root_span = 0;
  const std::uint64_t solve_start_ns = obs::steady_now_ns();
  if (ticket.req.trace) {
    rt.ctx.trace_id = ticket.id;
    rt.ctx.sampled = true;
    root_span = rt.new_span_id();
    rt.ctx.parent_span_id = root_span;
  }

  // One stop condition for both sources: the local MdcOperator (and its
  // streamer, during a stall) polls the scope between per-frequency MVMs,
  // RemoteMdcOperator before every fan-out, LSQR once per iteration.
  const bool has_deadline = deadline_s > 0.0;
  const auto stop = [cancelled, has_deadline, deadline_at] {
    return cancelled->load(std::memory_order_relaxed) ||
           (has_deadline && Clock::now() >= deadline_at);
  };
  const mdc::CancelScope scope(stop);
  const double stall0_s = lease.stall_s();
  try {
    const auto op = lease.bind(ticket.id, deadline_at, rt);
    if (ticket.req.kind == RequestKind::kAdjoint) {
      r.x.resize(static_cast<std::size_t>(op->cols()));
      op->apply_adjoint(ticket.req.rhs, r.x);
    } else {
      mdd::LsqrConfig lsqr = ticket.req.lsqr;
      lsqr.should_stop = [user_stop = lsqr.should_stop, stop] {
        return (user_stop && user_stop()) || stop();
      };
      const std::uint64_t lsqr_start_ns = obs::steady_now_ns();
      mdd::LsqrResult sol = mdd::lsqr_solve(*op, ticket.req.rhs, lsqr);
      rt.stages.lsqr_s +=
          1e-9 * static_cast<double>(obs::steady_now_ns() - lsqr_start_ns);
      rt.stages.lsqr_iterations = sol.iterations;
      r.x = std::move(sol.x);
      r.iterations = sol.iterations;
      r.residual_norm = sol.residual_norm;
      // An abort by the caller's own should_stop is a normal (early)
      // completion; ours maps to the typed status.
      if (sol.stop == mdd::LsqrResult::Stop::kAborted && stop()) {
        r.status = cancelled->load(std::memory_order_relaxed)
                       ? SolveStatus::kCancelled
                       : SolveStatus::kDeadlineExceeded;
      }
    }
  } catch (...) {
    r.status = classify_failure(ticket, r.error);
    r.x.clear();
  }
  r.solve_s = seconds_between(dequeued, Clock::now());
  rt.stages.stream_stall_s = std::max(0.0, lease.stall_s() - stall0_s);
  r.stages = rt.stages;
  stage_recorder_.record(r.stages);
  if (rt.ctx.sampled) {
    rt.add_span("request", root_span, /*parent_span_id=*/0, solve_start_ns,
                obs::steady_now_ns() - solve_start_ns);
    r.trace_json = collect_trace(rt);
  }
  respond(ticket, std::move(r));
}

std::string Frontend::collect_trace(obs::RequestTrace& rt) {
  obs::MergedTraceInput input;
  input.trace_id = rt.ctx.trace_id;
  input.frontend_spans = std::move(rt.spans);
  input.frontend_dropped = rt.dropped;
  source_.collect_trace(rt, input.workers);
  return obs::merge_trace_json(input);
}

void Frontend::reject(Ticket& ticket, SolveStatus status, std::string error) {
  SolveResponse r;
  r.status = status;
  r.error = std::move(error);
  respond(ticket, std::move(r));
}

void Frontend::respond(Ticket& ticket, SolveResponse r) {
  r.vsrc = ticket.req.vsrc;
  r.request_id = ticket.id;
  r.batch_size = ticket.batch_size;
  r.total_s = seconds_between(ticket.admitted, Clock::now());
  outcomes_[static_cast<std::size_t>(r.status)]->add();
  if (r.status == SolveStatus::kOk) {
    latency_hist_.record(r.total_s);
    queue_wait_hist_.record(r.queue_wait_s);
    solve_hist_.record(r.solve_s);
  }
  record_slo(r);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (ticket.holds_quota) --tenant_inflight_[ticket.req.tenant];
    live_.erase(ticket.id);
  }
  ticket.done.set_value(std::move(r));
}

void Frontend::record_slo(const SolveResponse& r) {
  slo_.record(r.total_s, r.status == SolveStatus::kOk);
  slo_.publish(slo_gauges_);
  if (!slo_.breaches_objective(r.total_s) ||
      slo_.config().exemplar_dir.empty()) {
    return;
  }
  std::ostringstream os;
  os << "{\"request_id\":" << r.request_id << ",\"vsrc\":" << r.vsrc
     << ",\"status\":\"" << to_string(r.status)
     << "\",\"queue_wait_s\":" << r.queue_wait_s
     << ",\"solve_s\":" << r.solve_s << ",\"total_s\":" << r.total_s
     << ",\"stages\":" << r.stages.to_json();
  if (!r.trace_json.empty()) os << ",\"trace\":" << r.trace_json;
  os << "}";
  (void)slo_.persist_exemplar(r.request_id, os.str());
}

}  // namespace tlrwse::serve
