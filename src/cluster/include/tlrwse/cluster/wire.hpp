// Wire protocol of the distributed serving tier: length-prefixed binary
// frames between the frontend and its shard workers.
//
// Every message is one frame: a fixed 16-byte header
//   [u32 magic "TWRP"][u16 version][u16 type][u64 payload_len]
// followed by payload_len bytes of little-endian fields. Frames carry
// per-frequency spectral slices verbatim (cf32 payloads are memcpy'd), so
// a remote apply moves the exact bytes a local MdcOperator would gather —
// the arithmetic, and therefore the solve, stays bitwise identical.
//
// Decoding is defensive in the test_archive style: a bad magic, any
// version other than kWireVersion, or an oversized length throws WireError
// before any allocation sized from attacker-controlled bytes; a short
// buffer is "need more", never a partial parse. Every message field is
// mandatory: a payload cut anywhere, or carrying trailing bytes, is a
// WireError.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tlrwse/common/types.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/trace_context.hpp"

namespace tlrwse::cluster {

constexpr std::uint32_t kWireMagic = 0x54575250;  // "PRWT" on disk: TWRP
/// The only version decode_frame accepts, so a mixed-build fleet fails at
/// the first header. v2 added the trace context on kApply, the worker
/// clock stamps on kApplyOk and the kTraceDump/kHealth types; v3 made
/// those fields mandatory, dropped kCancel/kCancelOk and shrank kHealthOk.
constexpr std::uint16_t kWireVersion = 3;
constexpr std::size_t kFrameHeaderBytes = 16;
/// Payload cap: a corrupt or hostile length field past this is rejected
/// before it can demand the allocation.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

/// Thrown on malformed bytes (bad magic/version, truncated payload,
/// oversized length, short field reads). Distinct from TransportError:
/// WireError means the peer spoke garbage, not that the connection died.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class MsgType : std::uint16_t {
  kLoadShard = 1,    // frontend -> worker: own frequencies [q_begin, q_end)
  kLoadShardOk = 2,  // worker -> frontend: shard dimensions
  kApply = 3,        // frontend -> worker: per-frequency spectral slices
  kApplyOk = 4,      // worker -> frontend: per-frequency results
  kMetrics = 7,      // frontend -> worker: snapshot request
  kMetricsOk = 8,    // worker -> frontend: serialized registry snapshot
  kShutdown = 9,     // frontend -> worker: drain and exit
  kShutdownOk = 10,
  kError = 11,       // worker -> frontend: typed failure
  kTraceDump = 12,   // frontend -> worker: return buffered spans of a trace
  kTraceDumpOk = 13, // worker -> frontend: the spans + drop accounting
  kHealth = 14,      // frontend -> worker: liveness/residency probe
  kHealthOk = 15,    // worker -> frontend: shard table, bytes, uptime, ...
};

enum class WireErrorCode : std::uint16_t {
  kBadRequest = 1,
  kArchiveMissing = 2,
  kUnknownShard = 3,
  kDeadlineExceeded = 5,
  kInternal = 6,
};
[[nodiscard]] const char* to_string(WireErrorCode c);

struct Frame {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Header + payload as one contiguous buffer, ready for a socket write.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental decode: returns the bytes consumed (header + payload), or 0
/// when `bytes` does not yet hold a whole frame. Throws WireError on a bad
/// magic, unsupported version, or oversized payload length.
[[nodiscard]] std::size_t decode_frame(std::span<const std::uint8_t> bytes,
                                       Frame& out);

/// Little-endian field writer backing every message's to_frame().
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void cf32_span(std::span<const cf32> v) {
    raw(v.data(), v.size() * sizeof(cf32));
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Field reader: every get checks the remaining byte count first, so a
/// truncated payload throws instead of reading past the buffer.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return take<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return take<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return take<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return take<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return take<std::int64_t>(); }
  [[nodiscard]] double f64() { return take<double>(); }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  /// Reads exactly `count` complex values into `out`.
  void cf32_into(std::span<cf32> out) {
    if (out.empty()) return;  // memcpy's pointers must be non-null even at 0
    need(out.size() * sizeof(cf32));
    std::memcpy(out.data(), bytes_.data() + pos_,
                out.size() * sizeof(cf32));
    pos_ += out.size() * sizeof(cf32);
  }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Trailing bytes after the last field are as malformed as missing ones.
  void expect_end() const {
    if (remaining() != 0) {
      throw WireError("wire: trailing bytes after message");
    }
  }

 private:
  template <typename T>
  [[nodiscard]] T take() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (remaining() < n) throw WireError("wire: truncated message");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// --- Messages -------------------------------------------------------------

struct LoadShardMsg {
  std::uint32_t shard_id = 0;
  index_t q_begin = 0;  // global frequency range owned by this shard
  index_t q_end = 0;
  std::string archive_path;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static LoadShardMsg from_frame(const Frame& f);
};

struct LoadShardOkMsg {
  std::uint32_t shard_id = 0;
  index_t nt = 0;
  index_t ns = 0;  // kernel rows (sources)
  index_t nr = 0;  // kernel cols (receivers)
  std::vector<index_t> freq_bins;  // global rFFT bins of the shard's freqs

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static LoadShardOkMsg from_frame(const Frame& f);
};

/// One remote fan-out: the spectral slices of every frequency this shard
/// owns, packed [freq][rhs][vector] — exactly the per-frequency panels
/// MdcOperator's kernel loop gathers, so the worker feeds its FrequencyMvm
/// the same bytes a local solve would.
struct ApplyMsg {
  std::uint64_t request_id = 0;
  std::uint32_t shard_id = 0;
  bool adjoint = false;
  index_t nrhs = 1;
  double deadline_s = 0.0;  // remaining budget at send time; 0 = none
  std::vector<cf32> data;   // nq * nrhs * (adjoint ? ns : nr) values
  /// Distributed trace identity (trace_id 0: the request is not sampled).
  obs::TraceContext trace;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ApplyMsg from_frame(const Frame& f);
};

struct ApplyOkMsg {
  std::uint64_t request_id = 0;
  std::vector<cf32> data;  // nq * nrhs * (adjoint ? nr : ns) values
  /// The worker's steady clock at frame receive and reply send — one
  /// NTP-style clock sample per exchange when paired with the frontend's
  /// send/receive stamps.
  std::uint64_t worker_recv_ns = 0;
  std::uint64_t worker_send_ns = 0;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ApplyOkMsg from_frame(const Frame& f);
};

struct MetricsMsg {
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static MetricsMsg from_frame(const Frame& f);
};

struct MetricsOkMsg {
  obs::MetricsRegistry::Snapshot snapshot;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static MetricsOkMsg from_frame(const Frame& f);
};

struct ShutdownMsg {
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ShutdownMsg from_frame(const Frame& f);
};

struct ShutdownOkMsg {
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ShutdownOkMsg from_frame(const Frame& f);
};

struct ErrorMsg {
  std::uint64_t request_id = 0;  // 0 for failures outside a request
  WireErrorCode code = WireErrorCode::kInternal;  // from_frame rejects others
  std::string message;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ErrorMsg from_frame(const Frame& f);
};

/// Asks the worker for the spans it buffered under one trace id (the
/// worker forgets the trace after answering).
struct TraceDumpMsg {
  std::uint64_t trace_id = 0;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static TraceDumpMsg from_frame(const Frame& f);
};

struct TraceDumpOkMsg {
  std::uint64_t trace_id = 0;
  std::uint64_t dropped_spans = 0;  // buffer overflow during recording
  std::vector<obs::RemoteSpan> spans;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static TraceDumpOkMsg from_frame(const Frame& f);
};

struct HealthMsg {
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static HealthMsg from_frame(const Frame& f);
};

/// One worker's liveness/residency report for the fleet view.
struct HealthOkMsg {
  struct ShardInfo {
    std::uint32_t shard_id = 0;
    index_t q_begin = 0;  // archive frequency-index range (test-injected
    index_t q_end = 0;    // shards report [0, num_freqs))
    std::uint32_t num_freqs = 0;
    double bytes = 0.0;  // compressed payload resident for this shard
  };

  std::uint64_t uptime_ns = 0;
  std::uint64_t inflight = 0;  // applies currently executing
  std::uint64_t applies = 0;   // completed applies since start
  double resident_bytes = 0.0;
  std::uint64_t dropped_spans = 0;  // remote span buffer overflow, total
  std::vector<ShardInfo> shards;

  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static HealthOkMsg from_frame(const Frame& f);
};

}  // namespace tlrwse::cluster
