#include "tlrwse/cluster/wire.hpp"

#include "tlrwse/common/error.hpp"

namespace tlrwse::cluster {

namespace {

/// Frames carry dimension-sized vectors; this bound rejects corrupt counts
/// before they size an allocation (the payload cap already limits totals,
/// but a plausible length with an absurd element count should fail typed).
constexpr std::uint64_t kMaxWireElements = std::uint64_t{1} << 28;

void check_count(std::uint64_t n, const char* what) {
  if (n > kMaxWireElements) {
    throw WireError(std::string("wire: implausible count for ") + what);
  }
}

void check_type(const Frame& f, MsgType expect) {
  if (f.type != static_cast<std::uint16_t>(expect)) {
    throw WireError("wire: frame type mismatch");
  }
}

/// A decoded error code, or WireError when it names no WireErrorCode.
WireErrorCode checked_error_code(std::uint16_t code) {
  switch (static_cast<WireErrorCode>(code)) {
    case WireErrorCode::kBadRequest:
    case WireErrorCode::kArchiveMissing:
    case WireErrorCode::kUnknownShard:
    case WireErrorCode::kDeadlineExceeded:
    case WireErrorCode::kInternal:
      return static_cast<WireErrorCode>(code);
  }
  throw WireError("wire: unknown error code " + std::to_string(code));
}

Frame finish(MsgType type, WireWriter&& w) {
  Frame f;
  f.type = static_cast<std::uint16_t>(type);
  f.payload = std::move(w).take();
  return f;
}

}  // namespace

const char* to_string(WireErrorCode c) {
  switch (c) {
    case WireErrorCode::kBadRequest: return "bad_request";
    case WireErrorCode::kArchiveMissing: return "archive_missing";
    case WireErrorCode::kUnknownShard: return "unknown_shard";
    case WireErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case WireErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  TLRWSE_REQUIRE(frame.payload.size() <= kMaxFramePayload,
                 "wire: frame payload exceeds cap");
  std::vector<std::uint8_t> out(kFrameHeaderBytes + frame.payload.size());
  const std::uint32_t magic = kWireMagic;
  const std::uint16_t version = kWireVersion;
  const std::uint16_t type = frame.type;
  const std::uint64_t len = frame.payload.size();
  std::memcpy(out.data(), &magic, sizeof(magic));
  std::memcpy(out.data() + 4, &version, sizeof(version));
  std::memcpy(out.data() + 6, &type, sizeof(type));
  std::memcpy(out.data() + 8, &len, sizeof(len));
  if (!frame.payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return out;
}

std::size_t decode_frame(std::span<const std::uint8_t> bytes, Frame& out) {
  if (bytes.size() < kFrameHeaderBytes) return 0;
  std::uint32_t magic;
  std::uint16_t version;
  std::uint16_t type;
  std::uint64_t len;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  std::memcpy(&type, bytes.data() + 6, sizeof(type));
  std::memcpy(&len, bytes.data() + 8, sizeof(len));
  if (magic != kWireMagic) throw WireError("wire: bad frame magic");
  if (version != kWireVersion) {
    throw WireError("wire: unsupported frame version");
  }
  if (len > kMaxFramePayload) {
    throw WireError("wire: frame payload exceeds cap");
  }
  if (bytes.size() < kFrameHeaderBytes + len) return 0;  // need more
  out.type = type;
  out.payload.assign(bytes.begin() + kFrameHeaderBytes,
                     bytes.begin() + static_cast<std::ptrdiff_t>(
                                         kFrameHeaderBytes + len));
  return kFrameHeaderBytes + static_cast<std::size_t>(len);
}

// --- LoadShard ------------------------------------------------------------

Frame LoadShardMsg::to_frame() const {
  WireWriter w;
  w.u32(shard_id);
  w.i64(q_begin);
  w.i64(q_end);
  w.str(archive_path);
  return finish(MsgType::kLoadShard, std::move(w));
}

LoadShardMsg LoadShardMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kLoadShard);
  WireReader r(f.payload);
  LoadShardMsg m;
  m.shard_id = r.u32();
  m.q_begin = r.i64();
  m.q_end = r.i64();
  m.archive_path = r.str();
  r.expect_end();
  return m;
}

Frame LoadShardOkMsg::to_frame() const {
  WireWriter w;
  w.u32(shard_id);
  w.i64(nt);
  w.i64(ns);
  w.i64(nr);
  w.u32(static_cast<std::uint32_t>(freq_bins.size()));
  for (const index_t b : freq_bins) w.i64(b);
  return finish(MsgType::kLoadShardOk, std::move(w));
}

LoadShardOkMsg LoadShardOkMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kLoadShardOk);
  WireReader r(f.payload);
  LoadShardOkMsg m;
  m.shard_id = r.u32();
  m.nt = r.i64();
  m.ns = r.i64();
  m.nr = r.i64();
  const std::uint32_t nq = r.u32();
  check_count(nq, "freq bins");
  m.freq_bins.reserve(nq);
  for (std::uint32_t q = 0; q < nq; ++q) m.freq_bins.push_back(r.i64());
  r.expect_end();
  return m;
}

// --- Apply ----------------------------------------------------------------

Frame ApplyMsg::to_frame() const {
  WireWriter w;
  w.u64(request_id);
  w.u32(shard_id);
  w.u8(adjoint ? 1 : 0);
  w.i64(nrhs);
  w.f64(deadline_s);
  w.u64(data.size());
  w.cf32_span(data);
  w.u64(trace.trace_id);
  w.u64(trace.parent_span_id);
  w.u8(trace.sampled ? 1 : 0);
  return finish(MsgType::kApply, std::move(w));
}

ApplyMsg ApplyMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kApply);
  WireReader r(f.payload);
  ApplyMsg m;
  m.request_id = r.u64();
  m.shard_id = r.u32();
  m.adjoint = r.u8() != 0;
  m.nrhs = r.i64();
  m.deadline_s = r.f64();
  const std::uint64_t n = r.u64();
  check_count(n, "apply payload");
  m.data.resize(static_cast<std::size_t>(n));
  r.cf32_into(m.data);
  m.trace.trace_id = r.u64();
  m.trace.parent_span_id = r.u64();
  m.trace.sampled = r.u8() != 0;
  r.expect_end();
  return m;
}

Frame ApplyOkMsg::to_frame() const {
  WireWriter w;
  w.u64(request_id);
  w.u64(data.size());
  w.cf32_span(data);
  w.u64(worker_recv_ns);
  w.u64(worker_send_ns);
  return finish(MsgType::kApplyOk, std::move(w));
}

ApplyOkMsg ApplyOkMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kApplyOk);
  WireReader r(f.payload);
  ApplyOkMsg m;
  m.request_id = r.u64();
  const std::uint64_t n = r.u64();
  check_count(n, "apply result");
  m.data.resize(static_cast<std::size_t>(n));
  r.cf32_into(m.data);
  m.worker_recv_ns = r.u64();
  m.worker_send_ns = r.u64();
  r.expect_end();
  return m;
}

// --- Metrics --------------------------------------------------------------

Frame MetricsMsg::to_frame() const {
  return Frame{static_cast<std::uint16_t>(MsgType::kMetrics), {}};
}

MetricsMsg MetricsMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kMetrics);
  WireReader r(f.payload);
  r.expect_end();
  return MetricsMsg{};
}

Frame MetricsOkMsg::to_frame() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(snapshot.counters.size()));
  for (const auto& [name, v] : snapshot.counters) {
    w.str(name);
    w.u64(v);
  }
  w.u32(static_cast<std::uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, v] : snapshot.gauges) {
    w.str(name);
    w.i64(v);
  }
  w.u32(static_cast<std::uint32_t>(snapshot.histograms.size()));
  for (const auto& h : snapshot.histograms) {
    w.str(h.name);
    w.u64(h.snap.count);
    w.f64(h.snap.sum);
    w.f64(h.snap.min);
    w.f64(h.snap.max);
    for (const std::uint64_t b : h.snap.buckets) w.u64(b);
  }
  return finish(MsgType::kMetricsOk, std::move(w));
}

MetricsOkMsg MetricsOkMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kMetricsOk);
  WireReader r(f.payload);
  MetricsOkMsg m;
  const std::uint32_t nc = r.u32();
  check_count(nc, "counters");
  for (std::uint32_t i = 0; i < nc; ++i) {
    std::string name = r.str();
    m.snapshot.counters[std::move(name)] = r.u64();
  }
  const std::uint32_t ng = r.u32();
  check_count(ng, "gauges");
  for (std::uint32_t i = 0; i < ng; ++i) {
    std::string name = r.str();
    m.snapshot.gauges[std::move(name)] = r.i64();
  }
  const std::uint32_t nh = r.u32();
  check_count(nh, "histograms");
  for (std::uint32_t i = 0; i < nh; ++i) {
    obs::MetricsRegistry::HistogramEntry e;
    e.name = r.str();
    e.snap.count = r.u64();
    e.snap.sum = r.f64();
    e.snap.min = r.f64();
    e.snap.max = r.f64();
    for (auto& b : e.snap.buckets) b = r.u64();
    m.snapshot.histograms.push_back(std::move(e));
  }
  r.expect_end();
  return m;
}

// --- Shutdown / Error -----------------------------------------------------

Frame ShutdownMsg::to_frame() const {
  return Frame{static_cast<std::uint16_t>(MsgType::kShutdown), {}};
}

ShutdownMsg ShutdownMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kShutdown);
  WireReader r(f.payload);
  r.expect_end();
  return ShutdownMsg{};
}

Frame ShutdownOkMsg::to_frame() const {
  return Frame{static_cast<std::uint16_t>(MsgType::kShutdownOk), {}};
}

ShutdownOkMsg ShutdownOkMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kShutdownOk);
  WireReader r(f.payload);
  r.expect_end();
  return ShutdownOkMsg{};
}

Frame ErrorMsg::to_frame() const {
  WireWriter w;
  w.u64(request_id);
  w.u16(static_cast<std::uint16_t>(code));
  w.str(message);
  return finish(MsgType::kError, std::move(w));
}

ErrorMsg ErrorMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kError);
  WireReader r(f.payload);
  ErrorMsg m;
  m.request_id = r.u64();
  m.code = checked_error_code(r.u16());
  m.message = r.str();
  r.expect_end();
  return m;
}

// --- TraceDump / Health ----------------------------------------------------

Frame TraceDumpMsg::to_frame() const {
  WireWriter w;
  w.u64(trace_id);
  return finish(MsgType::kTraceDump, std::move(w));
}

TraceDumpMsg TraceDumpMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kTraceDump);
  WireReader r(f.payload);
  TraceDumpMsg m;
  m.trace_id = r.u64();
  r.expect_end();
  return m;
}

Frame TraceDumpOkMsg::to_frame() const {
  WireWriter w;
  w.u64(trace_id);
  w.u64(dropped_spans);
  w.u32(static_cast<std::uint32_t>(spans.size()));
  for (const obs::RemoteSpan& s : spans) {
    w.str(s.name);
    w.u64(s.trace_id);
    w.u64(s.span_id);
    w.u64(s.parent_span_id);
    w.u64(s.ts_ns);
    w.u64(s.dur_ns);
  }
  return finish(MsgType::kTraceDumpOk, std::move(w));
}

TraceDumpOkMsg TraceDumpOkMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kTraceDumpOk);
  WireReader r(f.payload);
  TraceDumpOkMsg m;
  m.trace_id = r.u64();
  m.dropped_spans = r.u64();
  const std::uint32_t n = r.u32();
  check_count(n, "trace spans");
  m.spans.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    obs::RemoteSpan s;
    s.name = r.str();
    s.trace_id = r.u64();
    s.span_id = r.u64();
    s.parent_span_id = r.u64();
    s.ts_ns = r.u64();
    s.dur_ns = r.u64();
    m.spans.push_back(std::move(s));
  }
  r.expect_end();
  return m;
}

Frame HealthMsg::to_frame() const {
  return Frame{static_cast<std::uint16_t>(MsgType::kHealth), {}};
}

HealthMsg HealthMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kHealth);
  WireReader r(f.payload);
  r.expect_end();
  return HealthMsg{};
}

Frame HealthOkMsg::to_frame() const {
  WireWriter w;
  w.u64(uptime_ns);
  w.u64(inflight);
  w.u64(applies);
  w.f64(resident_bytes);
  w.u64(dropped_spans);
  w.u32(static_cast<std::uint32_t>(shards.size()));
  for (const ShardInfo& s : shards) {
    w.u32(s.shard_id);
    w.i64(s.q_begin);
    w.i64(s.q_end);
    w.u32(s.num_freqs);
    w.f64(s.bytes);
  }
  return finish(MsgType::kHealthOk, std::move(w));
}

HealthOkMsg HealthOkMsg::from_frame(const Frame& f) {
  check_type(f, MsgType::kHealthOk);
  WireReader r(f.payload);
  HealthOkMsg m;
  m.uptime_ns = r.u64();
  m.inflight = r.u64();
  m.applies = r.u64();
  m.resident_bytes = r.f64();
  m.dropped_spans = r.u64();
  const std::uint32_t n = r.u32();
  check_count(n, "health shards");
  m.shards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardInfo s;
    s.shard_id = r.u32();
    s.q_begin = r.i64();
    s.q_end = r.i64();
    s.num_freqs = r.u32();
    s.bytes = r.f64();
    m.shards.push_back(s);
  }
  r.expect_end();
  return m;
}

}  // namespace tlrwse::cluster
