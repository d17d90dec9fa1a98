#include "tlrwse/cluster/frontend.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "tlrwse/common/error.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/cancellation.hpp"
#include "tlrwse/obs/prometheus.hpp"

namespace tlrwse::cluster {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Maps a worker's reply frame to ApplyOkMsg or the matching exception.
ApplyOkMsg parse_apply_reply(const Frame& reply) {
  if (reply.type == static_cast<std::uint16_t>(MsgType::kApplyOk)) {
    return ApplyOkMsg::from_frame(reply);
  }
  if (reply.type == static_cast<std::uint16_t>(MsgType::kError)) {
    const ErrorMsg err = ErrorMsg::from_frame(reply);
    if (err.code == WireErrorCode::kDeadlineExceeded) {
      throw mdc::CancelledError(err.message);
    }
    throw WorkerFailure(std::string("worker error (") + to_string(err.code) +
                        "): " + err.message);
  }
  throw WorkerFailure("unexpected apply reply frame type " +
                      std::to_string(reply.type));
}

LoadShardOkMsg parse_load_reply(const Frame& reply) {
  if (reply.type == static_cast<std::uint16_t>(MsgType::kLoadShardOk)) {
    return LoadShardOkMsg::from_frame(reply);
  }
  if (reply.type == static_cast<std::uint16_t>(MsgType::kError)) {
    const ErrorMsg err = ErrorMsg::from_frame(reply);
    // An archive-side failure: acquire types it like a local load.
    throw std::runtime_error(std::string("shard load failed (") +
                             to_string(err.code) + "): " + err.message);
  }
  throw WorkerFailure("unexpected load reply frame type " +
                      std::to_string(reply.type));
}

}  // namespace

// --- WorkerClient ---------------------------------------------------------

namespace {

/// Requests a WorkerClient keeps on its connection: the one the worker is
/// computing and the next, so the worker never waits for a round trip.
constexpr std::size_t kMaxInFlight = 2;

}  // namespace

WorkerClient::WorkerClient(std::unique_ptr<Channel> channel, std::string name)
    : channel_(std::move(channel)), name_(std::move(name)) {
  TLRWSE_REQUIRE(channel_ != nullptr, "WorkerClient: null channel");
  sender_ = std::thread([this] { send_loop(); });
  receiver_ = std::thread([this] { receive_loop(); });
}

WorkerClient::~WorkerClient() { close(); }

std::future<Frame> WorkerClient::call_async(Frame request) {
  Pending p;
  p.request = std::move(request);
  std::future<Frame> fut = p.reply.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      p.reply.set_exception(
          death_ ? death_
                 : std::make_exception_ptr(TransportError(
                       TransportError::Kind::kClosed,
                       "worker " + name_ + " is closed")));
      return fut;
    }
    pending_.push_back(std::move(p));
  }
  cv_.notify_all();
  return fut;
}

Frame WorkerClient::call(Frame request) {
  return call_async(std::move(request)).get();
}

void WorkerClient::send_loop() {
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Queued work is still sent after stop_ (close() drains it); only a
      // death ends the loop with requests left.
      cv_.wait(lock, [&] {
        return death_ || (pending_.empty() ? stop_
                                           : in_flight_.size() < kMaxInFlight);
      });
      if (death_ || pending_.empty()) {
        sent_all_ = true;
        break;
      }
      p = std::move(pending_.front());
      pending_.pop_front();
    }
    try {
      channel_->send(p.request);
    } catch (const TransportError& e) {
      p.reply.set_exception(std::current_exception());
      mark_dead(e);
      return;
    } catch (...) {
      p.reply.set_exception(std::current_exception());
      continue;
    }
    std::exception_ptr died;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (death_) {
        died = death_;
      } else {
        in_flight_.push_back(std::move(p.reply));
      }
    }
    if (died) p.reply.set_exception(died);
    cv_.notify_all();
  }
  cv_.notify_all();
}

void WorkerClient::receive_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return death_ || !in_flight_.empty() || sent_all_; });
      if (death_ || in_flight_.empty()) return;
    }
    Frame reply;
    std::exception_ptr error;
    try {
      reply = channel_->receive();
    } catch (const TransportError& e) {
      mark_dead(e);
      return;
    } catch (...) {
      error = std::current_exception();
    }
    std::promise<Frame> p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (in_flight_.empty()) return;  // mark_dead failed it meanwhile
      p = std::move(in_flight_.front());
      in_flight_.pop_front();
    }
    cv_.notify_all();  // a slot on the connection is free
    if (error) {
      p.set_exception(error);
    } else {
      p.set_value(std::move(reply));
    }
  }
}

void WorkerClient::mark_dead(const TransportError& err) {
  std::deque<Pending> drain;
  std::deque<std::promise<Frame>> flying;
  std::exception_ptr death;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!death_) death_ = std::make_exception_ptr(err);
    death = death_;
    stop_ = true;
    drain.swap(pending_);
    flying.swap(in_flight_);
  }
  dead_.store(true, std::memory_order_release);
  cv_.notify_all();
  // Wakes the thread blocked on the other direction of the connection.
  channel_->close();
  for (auto& p : drain) p.reply.set_exception(death);
  for (auto& p : flying) p.set_exception(death);
}

void WorkerClient::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (sender_.joinable()) sender_.join();
  if (receiver_.joinable()) receiver_.join();
  std::deque<Pending> drain;
  std::deque<std::promise<Frame>> flying;
  std::exception_ptr death;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!death_) {
      death_ = std::make_exception_ptr(TransportError(
          TransportError::Kind::kClosed, "worker " + name_ + " is closed"));
    }
    death = death_;
    drain.swap(pending_);
    flying.swap(in_flight_);
  }
  dead_.store(true, std::memory_order_release);
  for (auto& p : drain) p.reply.set_exception(death);
  for (auto& p : flying) p.set_exception(death);
  if (channel_) channel_->close();
}

// --- RemoteMdcOperator ----------------------------------------------------

namespace {

/// The band transform of a placement: its shards' bins in shard order.
std::shared_ptr<const mdc::BandTransform> make_band_transform(
    const Placement& placement) {
  std::vector<index_t> bins;
  for (const ShardAssignment& shard : placement.shards) {
    bins.insert(bins.end(), shard.freq_bins.begin(), shard.freq_bins.end());
  }
  return std::make_shared<const mdc::BandTransform>(placement.nt, bins);
}

}  // namespace

RemoteMdcOperator::RemoteMdcOperator(
    std::span<const std::unique_ptr<WorkerClient>> fleet,
    std::shared_ptr<const Placement> placement, std::uint64_t request_id,
    Clock::time_point deadline_at,
    std::function<void(std::size_t)> on_worker_death, obs::RequestTrace* rt)
    : fleet_(fleet),
      placement_(std::move(placement)),
      request_id_(request_id),
      deadline_at_(deadline_at),
      on_worker_death_(std::move(on_worker_death)),
      rt_(rt) {
  TLRWSE_REQUIRE(placement_ != nullptr, "RemoteMdcOperator: null placement");
  TLRWSE_REQUIRE(!placement_->shards.empty(),
                 "RemoteMdcOperator: empty placement");
  transform_ = placement_->transform != nullptr
                   ? placement_->transform
                   : make_band_transform(*placement_);
  index_t nbins = 0;
  for (const ShardAssignment& shard : placement_->shards) {
    nbins += static_cast<index_t>(shard.freq_bins.size());
  }
  TLRWSE_REQUIRE(transform_->num_bins() == nbins,
                 "RemoteMdcOperator: transform does not match the shards");
  if (rt_ != nullptr) rt_->clock_samples.resize(fleet_.size());
}

index_t RemoteMdcOperator::rows() const {
  return placement_->nt * placement_->ns;
}

index_t RemoteMdcOperator::cols() const {
  return placement_->nt * placement_->nr;
}

void RemoteMdcOperator::apply(std::span<const float> x,
                              std::span<float> y) const {
  run(x, y, 1, /*adjoint=*/false);
}

void RemoteMdcOperator::apply_adjoint(std::span<const float> y,
                                      std::span<float> x) const {
  run(y, x, 1, /*adjoint=*/true);
}

void RemoteMdcOperator::apply_batch(std::span<const float> X,
                                    std::span<float> Y, index_t nrhs) const {
  run(X, Y, nrhs, /*adjoint=*/false);
}

void RemoteMdcOperator::apply_adjoint_batch(std::span<const float> Y,
                                            std::span<float> X,
                                            index_t nrhs) const {
  run(Y, X, nrhs, /*adjoint=*/true);
}

void RemoteMdcOperator::check_abort() const {
  if (mdc::CancelScope::cancelled()) throw mdc::CancelledError();
  if (deadline_at_ != Clock::time_point{} && Clock::now() >= deadline_at_) {
    throw mdc::CancelledError("deadline exceeded");
  }
}

double RemoteMdcOperator::remaining_deadline_s() const {
  if (deadline_at_ == Clock::time_point{}) return 0.0;
  return std::max(1e-9, seconds_between(Clock::now(), deadline_at_));
}

double RemoteMdcOperator::note_exchange(std::size_t worker,
                                        std::uint64_t t0_ns,
                                        std::uint64_t t3_ns,
                                        const ApplyOkMsg& ok) const {
  if (rt_ == nullptr) return 0.0;
  rt_->note_worker(worker);
  if (ok.worker_send_ns < ok.worker_recv_ns) {
    return 0.0;  // inconsistent stamps: no clock sample, all RPC time
  }
  rt_->clock_samples[worker].push_back(
      obs::ClockSample{t0_ns, ok.worker_recv_ns, ok.worker_send_ns, t3_ns});
  const double round_trip_s = 1e-9 * static_cast<double>(t3_ns - t0_ns);
  const double worker_s =
      1e-9 * static_cast<double>(ok.worker_send_ns - ok.worker_recv_ns);
  return std::min(worker_s, round_trip_s);
}

ApplyOkMsg RemoteMdcOperator::exchange(const ShardAssignment& shard,
                                       ApplyMsg msg,
                                       double& worker_s) const {
  const Frame request = msg.to_frame();
  for (const std::size_t w : shard.workers) {
    WorkerClient& client = *fleet_[w];
    if (!client.alive()) continue;
    try {
      const std::uint64_t t0 = obs::steady_now_ns();
      ApplyOkMsg ok = parse_apply_reply(client.call(request));
      worker_s = note_exchange(w, t0, obs::steady_now_ns(), ok);
      return ok;
    } catch (const TransportError&) {
      if (on_worker_death_) on_worker_death_(w);
      continue;  // next replica
    }
  }
  throw WorkerFailure("no live replica for shard " +
                      std::to_string(shard.shard_id));
}

void RemoteMdcOperator::run(std::span<const float> in, std::span<float> out,
                            index_t nrhs, bool adjoint) const {
  const Placement& pl = *placement_;
  const mdc::BandTransform& band = *transform_;
  const index_t nt = pl.nt;
  const index_t in_traces = adjoint ? pl.ns : pl.nr;
  const index_t out_traces = adjoint ? pl.nr : pl.ns;
  TLRWSE_REQUIRE(nrhs >= 1, "RemoteMdcOperator: nrhs");
  TLRWSE_REQUIRE(static_cast<index_t>(in.size()) == nt * in_traces * nrhs,
                 "RemoteMdcOperator: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(out.size()) == nt * out_traces * nrhs,
                 "RemoteMdcOperator: output size");
  check_abort();

  // One apply at a time per operator instance (LSQR drives applies
  // sequentially); the instance-level scratch mirrors MdcOperator's
  // per-thread PageScratch.
  std::lock_guard<std::mutex> lock(scratch_mu_);
  const index_t nin = in_traces * nrhs;    // one frequency's input panel
  const index_t nout = out_traces * nrhs;  // one frequency's output panel

  const bool sampled = rt_ != nullptr && rt_->ctx.sampled;
  const std::uint64_t run_span = sampled ? rt_->new_span_id() : 0;
  const std::uint64_t run_start = rt_ != nullptr ? obs::steady_now_ns() : 0;

  // F: the same band transform as MdcOperator's forward stage.
  in_spec_.resize(static_cast<std::size_t>(band.num_bins() * nin));
  band.forward(in, nin, std::span<cf32>(in_spec_), /*threads=*/0);
  std::uint64_t mark = 0;
  if (rt_ != nullptr) {
    mark = obs::steady_now_ns();
    rt_->stages.fft_s += 1e-9 * static_cast<double>(mark - run_start);
    if (sampled) {
      rt_->add_span("frontend.rfft", rt_->new_span_id(), run_span, run_start,
                    mark - run_start);
    }
  }

  // K (remote): each shard's bins are one contiguous [q][rhs][trace] slice
  // of the spectrum, so workers see the same bytes a local kernel would.
  const std::size_t nshards = pl.shards.size();
  std::vector<ApplyMsg> msgs(nshards);
  std::vector<index_t> q_offset(nshards, 0);
  /// Per-shard RPC span ids; the worker parents its apply span under the
  /// shard's RPC span, so the merged timeline nests correctly.
  std::vector<std::uint64_t> rpc_spans(nshards, 0);
  index_t q0 = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    const ShardAssignment& shard = pl.shards[s];
    ApplyMsg& msg = msgs[s];
    msg.request_id = request_id_;
    msg.shard_id = shard.shard_id;
    msg.adjoint = adjoint;
    msg.nrhs = nrhs;
    msg.deadline_s = remaining_deadline_s();
    if (sampled) {
      rpc_spans[s] = rt_->new_span_id();
      msg.trace.trace_id = rt_->ctx.trace_id;
      msg.trace.parent_span_id = rpc_spans[s];
      msg.trace.sampled = true;
    }
    q_offset[s] = q0;
    q0 += static_cast<index_t>(shard.freq_bins.size());
    msg.data.assign(in_spec_.begin() + q_offset[s] * nin,
                    in_spec_.begin() + q0 * nin);
  }
  if (rt_ != nullptr) {
    const std::uint64_t now = obs::steady_now_ns();
    rt_->stages.gather_scatter_s += 1e-9 * static_cast<double>(now - mark);
    if (sampled) {
      rt_->add_span("frontend.gather", rt_->new_span_id(), run_span, mark,
                    now - mark);
    }
    mark = now;
  }

  // Dispatch every shard's exchange concurrently (each worker's sender
  // runs its call), then collect with per-shard replica retry.
  struct InFlight {
    std::future<Frame> fut;
    std::size_t worker = 0;
    std::uint64_t t0_ns = 0;
    bool dispatched = false;
  };
  std::vector<InFlight> flights(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    for (const std::size_t w : pl.shards[s].workers) {
      if (fleet_[w]->alive()) {
        flights[s].t0_ns = rt_ != nullptr ? obs::steady_now_ns() : 0;
        flights[s].fut = fleet_[w]->call_async(msgs[s].to_frame());
        flights[s].worker = w;
        flights[s].dispatched = true;
        break;
      }
    }
  }

  // Shards own disjoint bins and together cover the band, so every bin
  // of the output spectrum is written by exactly one reply.
  out_spec_.resize(static_cast<std::size_t>(band.num_bins() * nout));
  double scatter_s = 0.0;
  // Fan-out accounting: the longest shard's worker compute, and the wall
  // clock of the last reply with the scatter work done before it.
  double longest_worker_s = 0.0;
  std::uint64_t last_reply_ns = mark;
  double scatter_before_last_s = 0.0;
  for (std::size_t s = 0; s < nshards; ++s) {
    const ShardAssignment& shard = pl.shards[s];
    ApplyOkMsg ok;
    double worker_s = 0.0;
    bool have = false;
    if (flights[s].dispatched) {
      try {
        ok = parse_apply_reply(flights[s].fut.get());
        worker_s = note_exchange(flights[s].worker, flights[s].t0_ns,
                                 rt_ != nullptr ? obs::steady_now_ns() : 0, ok);
        have = true;
      } catch (const TransportError&) {
        if (on_worker_death_) on_worker_death_(flights[s].worker);
      }
    }
    const std::uint64_t rpc_start =
        flights[s].dispatched && have ? flights[s].t0_ns
        : sampled                     ? obs::steady_now_ns()
                                      : 0;
    if (!have) ok = exchange(shard, std::move(msgs[s]), worker_s);
    if (rt_ != nullptr) {
      last_reply_ns = obs::steady_now_ns();
      longest_worker_s = std::max(longest_worker_s, worker_s);
      scatter_before_last_s = scatter_s;
    }
    if (sampled) {
      rt_->add_span("frontend.rpc shard=" + std::to_string(shard.shard_id),
                    rpc_spans[s], run_span, rpc_start,
                    last_reply_ns - rpc_start);
    }

    const auto nq = static_cast<index_t>(shard.freq_bins.size());
    if (static_cast<index_t>(ok.data.size()) != nq * nout) {
      throw WorkerFailure("shard " + std::to_string(shard.shard_id) +
                          " returned a malformed apply result");
    }
    const std::uint64_t scatter_start =
        rt_ != nullptr ? obs::steady_now_ns() : 0;
    std::copy(ok.data.begin(), ok.data.end(),
              out_spec_.begin() + q_offset[s] * nout);
    if (rt_ != nullptr) {
      scatter_s +=
          1e-9 * static_cast<double>(obs::steady_now_ns() - scatter_start);
    }
  }
  if (rt_ != nullptr) {
    // Shards run concurrently, so the fan-out is charged once, as wall
    // time from the first dispatch to the last reply: the longest shard's
    // worker compute is MVM time, the rest (serialization, transport,
    // queueing, stragglers) is RPC time.
    const double fan_out_s = std::max(
        0.0, 1e-9 * static_cast<double>(last_reply_ns - mark) -
                 scatter_before_last_s);
    const double mvm_s = std::min(longest_worker_s, fan_out_s);
    rt_->stages.mvm_s += mvm_s;
    rt_->stages.rpc_s += fan_out_s - mvm_s;
    rt_->stages.gather_scatter_s += scatter_s;
  }

  // F^H: the local inverse band transform.
  const std::uint64_t ifft_start = rt_ != nullptr ? obs::steady_now_ns() : 0;
  band.inverse(std::span<const cf32>(out_spec_), nout, out, /*threads=*/0);
  if (rt_ != nullptr) {
    const std::uint64_t now = obs::steady_now_ns();
    rt_->stages.fft_s += 1e-9 * static_cast<double>(now - ifft_start);
    if (sampled) {
      rt_->add_span("frontend.irfft", rt_->new_span_id(), run_span,
                    ifft_start, now - ifft_start);
      rt_->add_span(adjoint ? "frontend.apply_adjoint" : "frontend.apply",
                    run_span, rt_->ctx.parent_span_id, run_start,
                    now - run_start);
    }
  }
}

// --- RemoteSource ---------------------------------------------------------

namespace {

/// A batch's hold on one placement: every solve gets its own
/// RemoteMdcOperator (request id, deadline and trace are per request).
class RemoteLease final : public serve::OperatorSource::Lease {
 public:
  RemoteLease(RemoteSource& source, std::shared_ptr<const Placement> placement)
      : source_(source), placement_(std::move(placement)) {}

  [[nodiscard]] index_t rows() const override {
    return placement_->nt * placement_->ns;
  }
  [[nodiscard]] std::shared_ptr<const mdc::LinearOperator> bind(
      std::uint64_t request_id, Clock::time_point deadline_at,
      obs::RequestTrace& rt) const override {
    return std::make_shared<RemoteMdcOperator>(
        source_.fleet(), placement_, request_id, deadline_at,
        [&source = source_](std::size_t w) { source.note_worker_death(w); },
        &rt);
  }

 private:
  RemoteSource& source_;
  std::shared_ptr<const Placement> placement_;
};

}  // namespace

RemoteSource::RemoteSource(PlannerConfig planner,
                           std::vector<std::unique_ptr<WorkerClient>> fleet,
                           obs::MetricsRegistry& registry)
    : planner_(planner),
      fleet_(std::move(fleet)),
      worker_deaths_(registry.counter("cluster.worker_deaths")),
      placements_(registry.counter("cluster.placements")),
      replans_(registry.counter("cluster.replans")) {
  TLRWSE_REQUIRE(!fleet_.empty(), "cluster: need at least one worker");
}

bool RemoteSource::holds(const serve::OperatorKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return placements_cache_.count(key) != 0;
}

std::unique_ptr<serve::OperatorSource::Lease> RemoteSource::acquire(
    const serve::OperatorKey& key) {
  std::shared_future<std::shared_ptr<const Placement>> fut;
  std::promise<std::shared_ptr<const Placement>> promise;
  bool creator = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = placements_cache_.find(key);
    if (it != placements_cache_.end()) {
      fut = it->second;
    } else {
      fut = promise.get_future().share();
      placements_cache_.emplace(key, fut);
      creator = true;
    }
  }
  if (creator) {
    try {
      promise.set_value(build_placement(key));
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Drop the poisoned entry so a later request can retry the load.
      invalidate(key);
    }
  }
  try {
    return std::make_unique<RemoteLease>(*this, fut.get());
  } catch (const serve::SourceError&) {
    throw;
  } catch (const std::exception& e) {
    // Everything untyped failed on the archive side (missing, unreadable).
    throw serve::archive_load_error(key.archive_id, e.what());
  }
}

std::shared_ptr<const Placement> RemoteSource::build_placement(
    const serve::OperatorKey& key) {
  const std::string& path = key.archive_id;
  const std::vector<double> weights = io::archive_kernel_bytes(path);
  const auto nf = static_cast<index_t>(weights.size());

  const int max_attempts = static_cast<int>(fleet_.size());
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) replans_.add();
    std::vector<std::size_t> live;
    for (std::size_t w = 0; w < fleet_.size(); ++w) {
      if (fleet_[w]->alive()) live.push_back(w);
    }
    if (live.empty()) break;

    PlannerConfig pc = planner_;
    pc.num_workers = static_cast<int>(live.size());
    const ShardPlan plan = plan_shards(weights, pc);

    auto placement = std::make_shared<Placement>();
    placement->replicated = plan.replicated;
    bool lost_worker = false;

    if (plan.replicated) {
      // One shard id, every live worker loads the full frequency range;
      // any subset of successful loads is a valid (smaller) replica set.
      LoadShardMsg msg;
      msg.shard_id = next_shard_id_.fetch_add(1, std::memory_order_relaxed);
      msg.q_begin = 0;
      msg.q_end = nf;
      msg.archive_path = path;
      const Frame request = msg.to_frame();
      std::vector<std::pair<std::size_t, std::future<Frame>>> loads;
      for (const std::size_t w : live) {
        loads.emplace_back(w, fleet_[w]->call_async(request));
      }
      ShardAssignment shard;
      shard.shard_id = msg.shard_id;
      shard.q_begin = 0;
      shard.q_end = nf;
      bool have_dims = false;
      for (auto& [w, fut] : loads) {
        try {
          const LoadShardOkMsg ok = parse_load_reply(fut.get());
          if (!have_dims) {
            placement->nt = ok.nt;
            placement->ns = ok.ns;
            placement->nr = ok.nr;
            shard.freq_bins = ok.freq_bins;
            have_dims = true;
          }
          shard.workers.push_back(w);
        } catch (const TransportError&) {
          note_worker_death(w);
        }
      }
      if (!have_dims) continue;  // every replica died; replan
      placement->shards.push_back(std::move(shard));
    } else {
      std::vector<std::pair<std::size_t, std::future<Frame>>> loads;
      std::vector<LoadShardMsg> msgs;
      msgs.reserve(plan.shards.size());
      for (std::size_t s = 0; s < plan.shards.size(); ++s) {
        LoadShardMsg msg;
        msg.shard_id =
            next_shard_id_.fetch_add(1, std::memory_order_relaxed);
        msg.q_begin = plan.shards[s].first;
        msg.q_end = plan.shards[s].second;
        msg.archive_path = path;
        loads.emplace_back(live[s], fleet_[live[s]]->call_async(msg.to_frame()));
        msgs.push_back(std::move(msg));
      }
      for (std::size_t s = 0; s < loads.size(); ++s) {
        try {
          const LoadShardOkMsg ok = parse_load_reply(loads[s].second.get());
          ShardAssignment shard;
          shard.shard_id = msgs[s].shard_id;
          shard.q_begin = msgs[s].q_begin;
          shard.q_end = msgs[s].q_end;
          shard.freq_bins = ok.freq_bins;
          shard.workers.push_back(loads[s].first);
          placement->nt = ok.nt;
          placement->ns = ok.ns;
          placement->nr = ok.nr;
          placement->shards.push_back(std::move(shard));
        } catch (const TransportError&) {
          note_worker_death(loads[s].first);
          lost_worker = true;
        }
      }
      if (lost_worker) continue;  // a shard has no owner; replan over the living
    }
    placement->transform = make_band_transform(*placement);
    placements_.add();
    return placement;
  }
  throw WorkerFailure("cluster: no live workers to place archive " + path);
}

void RemoteSource::invalidate(const serve::OperatorKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  placements_cache_.erase(key);
}

void RemoteSource::collect_trace(obs::RequestTrace& rt,
                                 std::vector<obs::WorkerTrace>& out) {
  TraceDumpMsg dump;
  dump.trace_id = rt.ctx.trace_id;
  const Frame request = dump.to_frame();
  for (const std::size_t w : rt.workers) {
    if (w >= fleet_.size() || !fleet_[w]->alive()) continue;
    try {
      const Frame reply = fleet_[w]->call(request);
      if (reply.type != static_cast<std::uint16_t>(MsgType::kTraceDumpOk)) {
        continue;  // a worker that answered kError leaves its spans out
      }
      TraceDumpOkMsg ok = TraceDumpOkMsg::from_frame(reply);
      obs::WorkerTrace wt;
      wt.name = fleet_[w]->name();
      wt.offset_ns = obs::estimate_clock_offset_ns(rt.clock_samples[w]);
      wt.spans = std::move(ok.spans);
      wt.dropped_spans = ok.dropped_spans;
      out.push_back(std::move(wt));
    } catch (const std::exception&) {
      // A worker that died after serving its exchanges just leaves a hole
      // in the timeline; the frontend spans still merge.
    }
  }
}

void RemoteSource::note_worker_death(std::size_t worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_noted_.insert(worker).second) worker_deaths_.add();
}

// --- ClusterService -------------------------------------------------------

ClusterService::ClusterService(
    ClusterConfig cfg, std::vector<std::unique_ptr<WorkerClient>> workers)
    : source_(cfg.planner, std::move(workers), registry_),
      engine_(serve::FrontendConfig{std::max(1, cfg.frontend_workers),
                                    cfg.queue_capacity, cfg.max_batch,
                                    cfg.tenant_quota, cfg.slo},
              source_, registry_) {}

ClusterService::~ClusterService() { shutdown(); }

void ClusterService::shutdown() {
  if (shut_down_.exchange(true)) return;
  engine_.shutdown();
  const Frame bye = ShutdownMsg{}.to_frame();
  for (const auto& worker : source_.fleet()) {
    if (!worker->alive()) continue;
    try {
      (void)worker->call(bye);
    } catch (const std::exception&) {
      // Already gone; shutdown is best-effort.
    }
  }
  for (const auto& worker : source_.fleet()) worker->close();
}

std::size_t ClusterService::live_workers() const {
  std::size_t n = 0;
  for (const auto& worker : source_.fleet()) n += worker->alive() ? 1 : 0;
  return n;
}

std::vector<obs::MetricsRegistry::Snapshot> ClusterService::fleet_snapshots() {
  std::vector<obs::MetricsRegistry::Snapshot> snaps;
  snaps.push_back(registry_.snapshot());
  const Frame request = MetricsMsg{}.to_frame();
  for (const auto& worker : source_.fleet()) {
    if (!worker->alive()) continue;
    try {
      const Frame reply = worker->call(request);
      if (reply.type == static_cast<std::uint16_t>(MsgType::kMetricsOk)) {
        snaps.push_back(MetricsOkMsg::from_frame(reply).snapshot);
      }
    } catch (const std::exception&) {
      // A dying worker's numbers are simply absent from the merge.
    }
  }
  return snaps;
}

obs::MetricsRegistry::Snapshot ClusterService::cluster_snapshot() {
  return obs::merge_snapshots(fleet_snapshots());
}

std::string ClusterService::fleet_prometheus_text() {
  return obs::fleet_to_prometheus_text(fleet_snapshots());
}

std::vector<ClusterService::WorkerHealth> ClusterService::fleet_health() {
  std::vector<WorkerHealth> out;
  out.reserve(source_.fleet().size());
  const Frame request = HealthMsg{}.to_frame();
  for (const auto& worker : source_.fleet()) {
    WorkerHealth wh;
    wh.name = worker->name();
    if (worker->alive()) {
      try {
        const Frame reply = worker->call(request);
        if (reply.type == static_cast<std::uint16_t>(MsgType::kHealthOk)) {
          wh.health = HealthOkMsg::from_frame(reply);
          wh.alive = true;
        }
      } catch (const std::exception&) {
        // Poll failure reads as a dead worker in the fleet view.
      }
    }
    out.push_back(std::move(wh));
  }
  return out;
}

std::string ClusterService::fleet_health_json() {
  const std::vector<WorkerHealth> fleet = fleet_health();
  std::ostringstream os;
  os << "{\"live_workers\":" << live_workers()
     << ",\"slo\":" << slo_window().to_json() << ",\"workers\":[";
  for (std::size_t w = 0; w < fleet.size(); ++w) {
    const WorkerHealth& wh = fleet[w];
    if (w != 0) os << ",";
    os << "{\"name\":\"" << wh.name << "\",\"alive\":"
       << (wh.alive ? "true" : "false")
       << ",\"uptime_s\":" << 1e-9 * static_cast<double>(wh.health.uptime_ns)
       << ",\"inflight\":" << wh.health.inflight
       << ",\"applies\":" << wh.health.applies
       << ",\"resident_bytes\":" << wh.health.resident_bytes
       << ",\"dropped_spans\":" << wh.health.dropped_spans << ",\"shards\":[";
    for (std::size_t s = 0; s < wh.health.shards.size(); ++s) {
      const auto& sh = wh.health.shards[s];
      if (s != 0) os << ",";
      os << "{\"shard_id\":" << sh.shard_id << ",\"q_begin\":" << sh.q_begin
         << ",\"q_end\":" << sh.q_end << ",\"num_freqs\":" << sh.num_freqs
         << ",\"bytes\":" << sh.bytes << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace tlrwse::cluster
