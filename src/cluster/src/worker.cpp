#include "tlrwse/cluster/worker.hpp"

#include <exception>
#include <string>
#include <utility>

#include "tlrwse/io/archive.hpp"

namespace tlrwse::cluster {

namespace {

Frame error_frame(std::uint64_t request_id, WireErrorCode code,
                  std::string message) {
  ErrorMsg err;
  err.request_id = request_id;
  err.code = code;
  err.message = std::move(message);
  return err.to_frame();
}

}  // namespace

Frame ShardWorker::handle(const Frame& request) {
  // Stamped before any parsing so the reply's clock sample brackets the
  // worker's whole processing time (the t1 of the NTP offset estimate).
  const std::uint64_t recv_ns = obs::steady_now_ns();
  try {
    switch (static_cast<MsgType>(request.type)) {
      case MsgType::kLoadShard:
        return handle_load(LoadShardMsg::from_frame(request));
      case MsgType::kApply:
        return handle_apply(ApplyMsg::from_frame(request), recv_ns);
      case MsgType::kMetrics:
        return handle_metrics();
      case MsgType::kTraceDump:
        return handle_trace_dump(TraceDumpMsg::from_frame(request));
      case MsgType::kHealth:
        return health().to_frame();
      case MsgType::kShutdown:
        return handle_shutdown();
      default:
        return error_frame(0, WireErrorCode::kBadRequest,
                           "worker: unexpected frame type " +
                               std::to_string(request.type));
    }
  } catch (const WireError& e) {
    return error_frame(0, WireErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return error_frame(0, WireErrorCode::kInternal, e.what());
  }
}

void ShardWorker::add_shard(
    std::uint32_t shard_id, index_t nt, index_t ns, index_t nr,
    std::vector<index_t> freq_bins,
    std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels) {
  auto shard = std::make_shared<Shard>();
  shard->nt = nt;
  shard->ns = ns;
  shard->nr = nr;
  shard->q_begin = 0;
  shard->q_end = static_cast<index_t>(freq_bins.size());
  shard->freq_bins = std::move(freq_bins);
  shard->kernels = std::move(kernels);
  std::lock_guard<std::mutex> lock(mu_);
  shards_[shard_id] = std::move(shard);
}

Frame ShardWorker::handle_load(const LoadShardMsg& msg) {
  auto shard = std::make_shared<Shard>();
  try {
    const io::ArchiveInfo info = io::peek_archive_extents(msg.archive_path);
    if (msg.q_begin < 0 || msg.q_end > info.num_freqs() ||
        msg.q_begin >= msg.q_end) {
      return error_frame(0, WireErrorCode::kBadRequest,
                         "worker: shard range outside archive frequencies");
    }
    io::LoadedKernels loaded =
        io::load_kernels(msg.archive_path, info, msg.q_begin, msg.q_end);
    shard->nt = info.nt;
    shard->freq_bins.assign(info.freq_bins.begin() + msg.q_begin,
                            info.freq_bins.begin() + msg.q_end);
    shard->bytes = loaded.bytes;
    shard->kernels = std::move(loaded.kernels);
    shard->q_begin = msg.q_begin;
    shard->q_end = msg.q_end;
  } catch (const std::exception& e) {
    return error_frame(0, WireErrorCode::kArchiveMissing, e.what());
  }
  if (shard->kernels.empty()) {
    return error_frame(0, WireErrorCode::kArchiveMissing,
                       "worker: shard has no kernels");
  }
  shard->ns = shard->kernels.front()->rows();
  shard->nr = shard->kernels.front()->cols();

  LoadShardOkMsg ok;
  ok.shard_id = msg.shard_id;
  ok.nt = shard->nt;
  ok.ns = shard->ns;
  ok.nr = shard->nr;
  ok.freq_bins = shard->freq_bins;
  registry_.counter("worker.shards_loaded").add();
  registry_.gauge("worker.frequencies_resident")
      .add(static_cast<std::int64_t>(shard->freq_bins.size()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_[msg.shard_id] = std::move(shard);
  }
  return ok.to_frame();
}

Frame ShardWorker::handle_apply(const ApplyMsg& msg, std::uint64_t recv_ns) {
  struct InflightGuard {
    std::atomic<std::uint64_t>& n;
    explicit InflightGuard(std::atomic<std::uint64_t>& c) : n(c) {
      n.fetch_add(1, std::memory_order_relaxed);
    }
    ~InflightGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard(inflight_);

  // Snapshot the shard under the lock, run the kernels outside it: loads
  // of other shards and health polls must not wait on an in-flight apply.
  std::shared_ptr<const Shard> shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = shards_.find(msg.shard_id);
    if (it != shards_.end()) shard = it->second;
  }
  if (!shard) {
    return error_frame(msg.request_id, WireErrorCode::kUnknownShard,
                       "worker: unknown shard " +
                           std::to_string(msg.shard_id));
  }
  if (msg.nrhs < 1) {
    return error_frame(msg.request_id, WireErrorCode::kBadRequest,
                       "worker: nrhs must be >= 1");
  }
  const auto nq = shard->kernels.size();
  const auto nin =
      static_cast<std::size_t>(msg.adjoint ? shard->ns : shard->nr);
  const auto nout =
      static_cast<std::size_t>(msg.adjoint ? shard->nr : shard->ns);
  const auto nrhs = static_cast<std::size_t>(msg.nrhs);
  if (msg.data.size() != nq * nrhs * nin) {
    return error_frame(msg.request_id, WireErrorCode::kBadRequest,
                       "worker: apply payload size mismatch");
  }

  const obs::ScopedHistTimer timer(registry_.histogram("worker.apply_s"));
  const auto start = std::chrono::steady_clock::now();
  ApplyOkMsg ok;
  ok.request_id = msg.request_id;
  ok.data.resize(nq * nrhs * nout);

  // Sampled requests buffer their spans for a later kTraceDump; the apply
  // span parents the per-frequency MVM spans.
  const bool traced = msg.trace.active();
  const std::uint64_t apply_span_id = traced ? span_buf_.next_span_id() : 0;
  const std::uint64_t apply_start_ns = traced ? obs::steady_now_ns() : 0;

  mdc::FrequencyWorkspace& ws = ws_pool_.local();
  for (std::size_t q = 0; q < nq; ++q) {
    // Between per-frequency MVMs is where a deadline can take effect
    // without tearing a kernel apply in half.
    if (msg.deadline_s > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= msg.deadline_s) {
        registry_.counter("worker.deadline_exceeded").add();
        return error_frame(msg.request_id, WireErrorCode::kDeadlineExceeded,
                           "worker: deadline exceeded mid-shard");
      }
    }
    const mdc::FrequencyMvm& kernel = *shard->kernels[q];
    const std::span<const cf32> xk(msg.data.data() + q * nrhs * nin,
                                   nrhs * nin);
    const std::span<cf32> yk(ok.data.data() + q * nrhs * nout, nrhs * nout);
    const std::uint64_t mvm_start_ns = traced ? obs::steady_now_ns() : 0;
    if (msg.nrhs == 1) {
      if (msg.adjoint) {
        kernel.apply_adjoint(xk, yk, ws);
      } else {
        kernel.apply(xk, yk, ws);
      }
    } else {
      if (msg.adjoint) {
        kernel.apply_adjoint_batch(xk, yk, msg.nrhs, ws);
      } else {
        kernel.apply_batch(xk, yk, msg.nrhs, ws);
      }
    }
    if (traced) {
      obs::RemoteSpan span;
      span.name = "worker.mvm q=" +
                  std::to_string(shard->freq_bins[q]);
      span.trace_id = msg.trace.trace_id;
      span.span_id = span_buf_.next_span_id();
      span.parent_span_id = apply_span_id;
      span.ts_ns = mvm_start_ns;
      span.dur_ns = obs::steady_now_ns() - mvm_start_ns;
      span_buf_.record(std::move(span));
    }
  }
  registry_.counter("worker.applies").add();
  if (traced) {
    obs::RemoteSpan span;
    span.name = "worker.apply";
    span.trace_id = msg.trace.trace_id;
    span.span_id = apply_span_id;
    span.parent_span_id = msg.trace.parent_span_id;
    span.ts_ns = apply_start_ns;
    span.dur_ns = obs::steady_now_ns() - apply_start_ns;
    span_buf_.record(std::move(span));
  }
  ok.worker_recv_ns = recv_ns;
  ok.worker_send_ns = obs::steady_now_ns();
  return ok.to_frame();
}

Frame ShardWorker::handle_trace_dump(const TraceDumpMsg& msg) {
  obs::RemoteSpanBuffer::Dump dump = span_buf_.take(msg.trace_id);
  span_drops_.fetch_add(dump.dropped, std::memory_order_relaxed);
  TraceDumpOkMsg ok;
  ok.trace_id = msg.trace_id;
  ok.dropped_spans = dump.dropped;
  ok.spans = std::move(dump.spans);
  return ok.to_frame();
}

HealthOkMsg ShardWorker::health() const {
  HealthOkMsg ok;
  ok.uptime_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
  ok.inflight = inflight_.load(std::memory_order_relaxed);
  ok.dropped_spans = span_drops_.load(std::memory_order_relaxed);
  const obs::MetricsRegistry::Snapshot snap = registry_.snapshot();
  if (const auto it = snap.counters.find("worker.applies");
      it != snap.counters.end()) {
    ok.applies = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [shard_id, shard] : shards_) {
      HealthOkMsg::ShardInfo info;
      info.shard_id = shard_id;
      info.q_begin = shard->q_begin;
      info.q_end = shard->q_end;
      info.num_freqs = static_cast<std::uint32_t>(shard->freq_bins.size());
      info.bytes = shard->bytes;
      ok.resident_bytes += shard->bytes;
      ok.shards.push_back(info);
    }
  }
  return ok;
}

Frame ShardWorker::handle_metrics() {
  MetricsOkMsg ok;
  ok.snapshot = registry_.snapshot();
  return ok.to_frame();
}

Frame ShardWorker::handle_shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  return ShutdownOkMsg{}.to_frame();
}

}  // namespace tlrwse::cluster
