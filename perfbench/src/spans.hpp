// Benchmark-owned tracing: an in-memory span log plus decorators that
// wrap the program's public seams and record one span per call.
//
//   TracedOperator  mdc::LinearOperator   mdd -> mdc   "mdc.apply"
//   TracedMvm       mdc::FrequencyMvm     mdc -> tlr   "tlr.mvm"
//   TracedStream    mdc::KernelStream     mdc -> oocache "oocache.acquire"
//   TracedSource    oocache::ShardSource  oocache -> io  "io.load"
//   TracedChannel   cluster::Channel      cluster -> transport "cluster.rpc"
//
// Spans carry (name, start, end, parent, request id, bytes). A disabled
// log makes every decorator a pass-through, which is how the traced and
// untraced runs of one ladder compare. The log is written as
// chrome://tracing JSON when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "tlrwse/cluster/transport.hpp"
#include "tlrwse/mdc/frequency_mvm.hpp"
#include "tlrwse/mdc/kernel_stream.hpp"
#include "tlrwse/mdc/linear_operator.hpp"
#include "tlrwse/oocache/shard_streamer.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // request sequence number (0 = none)
  std::int64_t t0_ns = 0;     // since the log's origin
  std::int64_t t1_ns = 0;
  double bytes = 0.0;
  int tid = 0;
  // kApply exchanges only: RHS count, frequencies, the worker's
  // receive->send time from the reply's clock stamps, whether the exchange
  // failed (threw or got no kApplyOk), and one fingerprint per RHS: a hash
  // of its spectrum at the shard's first frequency, which identifies the
  // request it belongs to when sweeps overlap.
  std::int64_t nrhs = 0;
  std::int64_t nfreq = 0;
  std::uint32_t shard = 0;
  double worker_s = 0.0;
  bool failed = false;
  std::vector<std::uint64_t> fingerprints;

  [[nodiscard]] double seconds() const { return 1e-9 * double(t1_ns - t0_ns); }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(Span s);
  [[nodiscard]] std::vector<Span> spans() const;
  /// chrome://tracing "X" events; args carry id/parent/request/bytes.
  void write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Where the spans of one client's calls attach: the request being served
/// and the innermost open span. Written by the client thread before each
/// call into the layer below; the OpenMP threads of that call read it
/// after the fork, and the prefetch thread reads the atomic request.
struct TraceContext {
  std::atomic<std::uint64_t> request{0};
  std::uint64_t parent = 0;
};

/// Times one span on the calling thread; records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, TraceContext& ctx, const char* name,
             double bytes = 0.0, bool reparent = true);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  TraceContext& ctx_;
  bool on_;
  bool reparent_;
  std::uint64_t saved_parent_ = 0;
  Span span_;
};

/// mdd -> mdc: every apply/apply_adjoint of the operator LSQR sees.
class TracedOperator final : public tlrwse::mdc::LinearOperator {
 public:
  TracedOperator(const tlrwse::mdc::LinearOperator& inner, SpanLog& log,
                 TraceContext& ctx)
      : inner_(inner), log_(log), ctx_(ctx) {}
  [[nodiscard]] index_t rows() const override { return inner_.rows(); }
  [[nodiscard]] index_t cols() const override { return inner_.cols(); }
  void apply(std::span<const float> x, std::span<float> y) const override;
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override;

 private:
  const tlrwse::mdc::LinearOperator& inner_;
  SpanLog& log_;
  TraceContext& ctx_;
};

/// mdc -> tlr: one frequency's kernel MVM. Non-owning; `bytes` is the
/// kernel's compressed payload (io::archive_kernel_bytes), the bytes one
/// MVM streams through.
class TracedMvm final : public tlrwse::mdc::FrequencyMvm {
 public:
  TracedMvm(const tlrwse::mdc::FrequencyMvm& inner, double bytes, SpanLog& log,
            TraceContext& ctx)
      : inner_(inner), bytes_(bytes), log_(log), ctx_(ctx) {}
  [[nodiscard]] index_t rows() const override { return inner_.rows(); }
  [[nodiscard]] index_t cols() const override { return inner_.cols(); }
  void apply(std::span<const tlrwse::cf32> x,
             std::span<tlrwse::cf32> y) const override;
  void apply_adjoint(std::span<const tlrwse::cf32> x,
                     std::span<tlrwse::cf32> y) const override;
  void apply(std::span<const tlrwse::cf32> x, std::span<tlrwse::cf32> y,
             tlrwse::mdc::FrequencyWorkspace& ws) const override;
  void apply_adjoint(std::span<const tlrwse::cf32> x,
                     std::span<tlrwse::cf32> y,
                     tlrwse::mdc::FrequencyWorkspace& ws) const override;
  void apply_batch(std::span<const tlrwse::cf32> X, std::span<tlrwse::cf32> Y,
                   index_t nrhs,
                   tlrwse::mdc::FrequencyWorkspace& ws) const override;
  void apply_adjoint_batch(std::span<const tlrwse::cf32> X,
                           std::span<tlrwse::cf32> Y, index_t nrhs,
                           tlrwse::mdc::FrequencyWorkspace& ws) const override;

 private:
  const tlrwse::mdc::FrequencyMvm& inner_;
  double bytes_;
  SpanLog& log_;
  TraceContext& ctx_;
};

/// Wraps a set of kernels (owned elsewhere) in TracedMvm decorators.
[[nodiscard]] std::vector<std::unique_ptr<tlrwse::mdc::FrequencyMvm>>
trace_kernels(const std::vector<std::unique_ptr<tlrwse::mdc::FrequencyMvm>>& inner,
              const std::vector<double>& bytes, SpanLog& log,
              TraceContext& ctx);

/// mdc -> oocache: shard acquires (the shard-ready wait). The kernels it
/// hands out are TracedMvm wrappers rebuilt per acquire, since a streamed
/// shard's kernel objects change on every reload. One consumer at a time.
class TracedStream final : public tlrwse::mdc::KernelStream {
 public:
  TracedStream(std::shared_ptr<tlrwse::mdc::KernelStream> inner,
               std::vector<double> freq_bytes, SpanLog& log, TraceContext& ctx);
  [[nodiscard]] index_t rows() const override { return inner_->rows(); }
  [[nodiscard]] index_t cols() const override { return inner_->cols(); }
  [[nodiscard]] index_t num_freqs() const override {
    return inner_->num_freqs();
  }
  [[nodiscard]] index_t num_shards() const override {
    return inner_->num_shards();
  }
  [[nodiscard]] std::pair<index_t, index_t> shard_range(
      index_t s) const override {
    return inner_->shard_range(s);
  }
  void begin_sweep() override;
  void end_sweep() noexcept override { inner_->end_sweep(); }
  [[nodiscard]] std::span<tlrwse::mdc::FrequencyMvm* const> acquire_shard(
      index_t s) override;
  void release_shard(index_t s) noexcept override {
    inner_->release_shard(s);
  }
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }

 private:
  std::shared_ptr<tlrwse::mdc::KernelStream> inner_;
  std::vector<double> freq_bytes_;
  SpanLog& log_;
  TraceContext& ctx_;
  std::uint64_t sweeps_ = 0;
  std::vector<std::vector<std::unique_ptr<TracedMvm>>> wrappers_;
  std::vector<std::vector<tlrwse::mdc::FrequencyMvm*>> raw_;
};

/// oocache -> io: shard loads, on whichever thread runs them (the
/// prefetcher). Attributed to the context's current request.
class TracedSource final : public tlrwse::oocache::ShardSource {
 public:
  TracedSource(std::shared_ptr<tlrwse::oocache::ShardSource> inner,
               std::vector<double> freq_file_bytes, SpanLog& log,
               TraceContext& ctx)
      : inner_(std::move(inner)),
        freq_file_bytes_(std::move(freq_file_bytes)),
        log_(log),
        ctx_(ctx) {}
  [[nodiscard]] index_t rows() const override { return inner_->rows(); }
  [[nodiscard]] index_t cols() const override { return inner_->cols(); }
  [[nodiscard]] tlrwse::oocache::ShardKernels load(index_t q_begin,
                                                   index_t q_end) override;

 private:
  std::shared_ptr<tlrwse::oocache::ShardSource> inner_;
  std::vector<double> freq_file_bytes_;
  SpanLog& log_;
  TraceContext& ctx_;
};

/// cluster -> transport: one frame exchange. Records frame bytes both
/// ways and, for kApply, the RHS/frequency counts, the worker-side time
/// from the reply's clock stamps and the per-RHS fingerprints.
class TracedChannel final : public tlrwse::cluster::Channel {
 public:
  TracedChannel(std::unique_ptr<tlrwse::cluster::Channel> inner, SpanLog& log,
                index_t ns, index_t nr)
      : inner_(std::move(inner)), log_(log), ns_(ns), nr_(nr) {}
  tlrwse::cluster::Frame call(const tlrwse::cluster::Frame& request) override;
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<tlrwse::cluster::Channel> inner_;
  SpanLog& log_;
  index_t ns_;
  index_t nr_;
};

}  // namespace perfbench
