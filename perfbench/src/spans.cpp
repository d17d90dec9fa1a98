#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "tlrwse/cluster/wire.hpp"

namespace perfbench {

namespace {

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void SpanLog::record(Span s) {
  s.tid = thread_index();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
        "\"bytes\":%.0f}}",
        first ? "" : ",", s.name, s.tid, 1e-3 * double(s.t0_ns),
        1e-3 * double(s.t1_ns - s.t0_ns), static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request), s.bytes);
    os << buf;
    first = false;
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  if (!os) throw std::runtime_error("cannot write trace " + path);
}

ScopedSpan::ScopedSpan(SpanLog& log, TraceContext& ctx, const char* name,
                       double bytes, bool reparent)
    : log_(log), ctx_(ctx), on_(log.enabled()), reparent_(reparent) {
  if (!on_) return;
  span_.name = name;
  span_.id = log_.new_id();
  span_.parent = ctx_.parent;
  span_.request = ctx_.request.load(std::memory_order_relaxed);
  span_.bytes = bytes;
  if (reparent_) {
    saved_parent_ = ctx_.parent;
    ctx_.parent = span_.id;
  }
  span_.t0_ns = log_.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.t1_ns = log_.now_ns();
  if (reparent_) ctx_.parent = saved_parent_;
  log_.record(span_);
}

void TracedOperator::apply(std::span<const float> x,
                           std::span<float> y) const {
  const ScopedSpan s(log_, ctx_, "mdc.apply");
  inner_.apply(x, y);
}

void TracedOperator::apply_adjoint(std::span<const float> y,
                                   std::span<float> x) const {
  const ScopedSpan s(log_, ctx_, "mdc.apply");
  inner_.apply_adjoint(y, x);
}

// MVM spans run on the OpenMP threads of one apply: they read the parent
// the client thread set before the fork and never re-parent.
void TracedMvm::apply(std::span<const tlrwse::cf32> x,
                      std::span<tlrwse::cf32> y) const {
  const ScopedSpan s(log_, ctx_, "tlr.mvm", bytes_, false);
  inner_.apply(x, y);
}

void TracedMvm::apply_adjoint(std::span<const tlrwse::cf32> x,
                              std::span<tlrwse::cf32> y) const {
  const ScopedSpan s(log_, ctx_, "tlr.mvm", bytes_, false);
  inner_.apply_adjoint(x, y);
}

void TracedMvm::apply(std::span<const tlrwse::cf32> x,
                      std::span<tlrwse::cf32> y,
                      tlrwse::mdc::FrequencyWorkspace& ws) const {
  const ScopedSpan s(log_, ctx_, "tlr.mvm", bytes_, false);
  inner_.apply(x, y, ws);
}

void TracedMvm::apply_adjoint(std::span<const tlrwse::cf32> x,
                              std::span<tlrwse::cf32> y,
                              tlrwse::mdc::FrequencyWorkspace& ws) const {
  const ScopedSpan s(log_, ctx_, "tlr.mvm", bytes_, false);
  inner_.apply_adjoint(x, y, ws);
}

void TracedMvm::apply_batch(std::span<const tlrwse::cf32> X,
                            std::span<tlrwse::cf32> Y, index_t nrhs,
                            tlrwse::mdc::FrequencyWorkspace& ws) const {
  const ScopedSpan s(log_, ctx_, "tlr.mvm", bytes_, false);
  inner_.apply_batch(X, Y, nrhs, ws);
}

void TracedMvm::apply_adjoint_batch(std::span<const tlrwse::cf32> X,
                                    std::span<tlrwse::cf32> Y, index_t nrhs,
                                    tlrwse::mdc::FrequencyWorkspace& ws) const {
  const ScopedSpan s(log_, ctx_, "tlr.mvm", bytes_, false);
  inner_.apply_adjoint_batch(X, Y, nrhs, ws);
}

std::vector<std::unique_ptr<tlrwse::mdc::FrequencyMvm>> trace_kernels(
    const std::vector<std::unique_ptr<tlrwse::mdc::FrequencyMvm>>& inner,
    const std::vector<double>& bytes, SpanLog& log, TraceContext& ctx) {
  if (inner.size() != bytes.size()) {
    throw std::invalid_argument("trace_kernels: one byte count per kernel");
  }
  std::vector<std::unique_ptr<tlrwse::mdc::FrequencyMvm>> out;
  for (std::size_t q = 0; q < inner.size(); ++q) {
    out.push_back(std::make_unique<TracedMvm>(*inner[q], bytes[q], log, ctx));
  }
  return out;
}

TracedStream::TracedStream(std::shared_ptr<tlrwse::mdc::KernelStream> inner,
                           std::vector<double> freq_bytes, SpanLog& log,
                           TraceContext& ctx)
    : inner_(std::move(inner)),
      freq_bytes_(std::move(freq_bytes)),
      log_(log),
      ctx_(ctx),
      wrappers_(static_cast<std::size_t>(inner_->num_shards())),
      raw_(static_cast<std::size_t>(inner_->num_shards())) {}

void TracedStream::begin_sweep() {
  inner_->begin_sweep();
  ++sweeps_;
}

std::span<tlrwse::mdc::FrequencyMvm* const> TracedStream::acquire_shard(
    index_t s) {
  std::span<tlrwse::mdc::FrequencyMvm* const> kernels;
  {
    const ScopedSpan span(log_, ctx_, "oocache.acquire", 0.0, false);
    kernels = inner_->acquire_shard(s);
  }
  const auto first = static_cast<std::size_t>(shard_range(s).first);
  auto& wrap = wrappers_[static_cast<std::size_t>(s)];
  auto& raw = raw_[static_cast<std::size_t>(s)];
  wrap.clear();
  raw.clear();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    wrap.push_back(std::make_unique<TracedMvm>(
        *kernels[i], freq_bytes_[first + i], log_, ctx_));
    raw.push_back(wrap.back().get());
  }
  return raw;
}

tlrwse::oocache::ShardKernels TracedSource::load(index_t q_begin,
                                                 index_t q_end) {
  double bytes = 0.0;
  for (index_t q = q_begin; q < q_end; ++q) {
    bytes += freq_file_bytes_[static_cast<std::size_t>(q)];
  }
  // Runs on the prefetch thread: no parent, attributed by request only.
  Span s;
  const bool on = log_.enabled();
  if (on) {
    s.name = "io.load";
    s.id = log_.new_id();
    s.request = ctx_.request.load(std::memory_order_relaxed);
    s.bytes = bytes;
    s.t0_ns = log_.now_ns();
  }
  tlrwse::oocache::ShardKernels out = inner_->load(q_begin, q_end);
  if (on) {
    s.t1_ns = log_.now_ns();
    log_.record(s);
  }
  return out;
}

tlrwse::cluster::Frame TracedChannel::call(
    const tlrwse::cluster::Frame& request) {
  namespace cl = tlrwse::cluster;
  if (!log_.enabled()) return inner_->call(request);
  Span s;
  s.name = "cluster.rpc";
  s.id = log_.new_id();
  const bool is_apply =
      request.type == static_cast<std::uint16_t>(cl::MsgType::kApply);
  if (is_apply) {
    const cl::ApplyMsg msg = cl::ApplyMsg::from_frame(request);
    s.request = msg.request_id;
    s.shard = msg.shard_id;
    s.nrhs = msg.nrhs;
    // data is laid out [frequency][rhs][trace].
    const index_t traces = msg.adjoint ? ns_ : nr_;
    const index_t per_freq = msg.nrhs * traces;
    s.nfreq = per_freq > 0 ? static_cast<std::int64_t>(msg.data.size()) / per_freq
                           : 0;
    const std::size_t block = static_cast<std::size_t>(traces) * sizeof(msg.data[0]);
    for (index_t r = 0; s.nfreq > 0 && r < msg.nrhs; ++r) {
      const auto* p = reinterpret_cast<const unsigned char*>(msg.data.data() + r * traces);
      std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
      for (std::size_t i = 0; i < block; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
      s.fingerprints.push_back(h);
    }
  }
  s.t0_ns = log_.now_ns();
  cl::Frame reply;
  try {
    reply = inner_->call(request);
  } catch (...) {
    s.t1_ns = log_.now_ns();
    s.failed = true;
    s.bytes = static_cast<double>(cl::kFrameHeaderBytes + request.payload.size());
    log_.record(std::move(s));
    throw;
  }
  s.t1_ns = log_.now_ns();
  s.bytes = static_cast<double>(2 * cl::kFrameHeaderBytes +
                                request.payload.size() + reply.payload.size());
  if (is_apply) {
    if (reply.type == static_cast<std::uint16_t>(cl::MsgType::kApplyOk)) {
      const cl::ApplyOkMsg ok = cl::ApplyOkMsg::from_frame(reply);
      if (ok.worker_send_ns > ok.worker_recv_ns) {
        s.worker_s = 1e-9 * double(ok.worker_send_ns - ok.worker_recv_ns);
      }
    } else {
      s.failed = true;
    }
  }
  log_.record(std::move(s));
  return reply;
}

}  // namespace perfbench
