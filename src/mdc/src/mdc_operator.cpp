#include "tlrwse/mdc/mdc_operator.hpp"

#include <atomic>

#include "tlrwse/common/error.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/common/tsan.hpp"
#include "tlrwse/mdc/cancellation.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/tracer.hpp"

namespace tlrwse::mdc {

namespace {
/// Registry handles for the always-on apply metrics; the per-frequency
/// histogram is recorded only while a trace is being captured, so the
/// steady-state cost per apply is three timer pairs and a few sharded adds.
struct ApplyMetrics {
  obs::Counter& applies;
  obs::Counter& adjoints;
  obs::Histogram& apply_s;
  obs::Histogram& fft_s;
  obs::Histogram& kernel_loop_s;
  obs::Histogram& freq_mvm_s;

  static ApplyMetrics& instance() {
    static ApplyMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      return ApplyMetrics{reg.counter("mdc.applies"),
                          reg.counter("mdc.adjoints"),
                          reg.histogram("mdc.apply_s"),
                          reg.histogram("mdc.fft_s"),
                          reg.histogram("mdc.kernel_loop_s"),
                          reg.histogram("mdc.freq_mvm_s")};
    }();
    return m;
  }
};

/// Validates and wraps resident kernels into the degenerate one-shard
/// stream behind the classic constructor.
std::shared_ptr<KernelStream> make_resident_stream(
    std::vector<std::unique_ptr<FrequencyMvm>> kernels) {
  TLRWSE_REQUIRE(!kernels.empty(), "need at least one frequency kernel");
  auto stream = std::make_shared<ResidentKernelStream>(std::move(kernels));
  const auto& ks = stream->kernels();
  const index_t ns = ks.front()->rows();
  const index_t nr = ks.front()->cols();
  for (std::size_t q = 0; q < ks.size(); ++q) {
    TLRWSE_REQUIRE(ks[q] != nullptr, "null kernel at frequency ", q);
    TLRWSE_REQUIRE(ks[q]->rows() == ns && ks[q]->cols() == nr,
                   "kernel dimension mismatch at frequency ", q);
  }
  return stream;
}
}  // namespace

MdcOperator::MdcOperator(index_t nt, std::vector<index_t> freq_bins,
                         std::vector<std::unique_ptr<FrequencyMvm>> kernels)
    : MdcOperator(nt, std::move(freq_bins),
                  make_resident_stream(std::move(kernels))) {}

MdcOperator::MdcOperator(index_t nt, std::vector<index_t> freq_bins,
                         std::shared_ptr<KernelStream> stream)
    : nt_(nt),
      nq_(static_cast<index_t>(freq_bins.size())),
      transform_(nt, freq_bins),
      stream_(std::move(stream)) {
  TLRWSE_REQUIRE(stream_ != nullptr, "null kernel stream");
  TLRWSE_REQUIRE(stream_->num_freqs() == nq_, "bins/kernels count mismatch");
  ns_ = stream_->rows();
  nr_ = stream_->cols();
  TLRWSE_REQUIRE(ns_ > 0 && nr_ > 0, "kernel stream with empty dimensions");
  const index_t nshards = stream_->num_shards();
  TLRWSE_REQUIRE(nshards >= 1, "kernel stream with no shards");
  index_t expect = 0;
  for (index_t s = 0; s < nshards; ++s) {
    const auto [b, e] = stream_->shard_range(s);
    TLRWSE_REQUIRE(b == expect && e > b,
                   "kernel stream shards must partition the frequency "
                   "range in ascending order (shard ",
                   s, " covers [", b, ", ", e, "))");
    expect = e;
  }
  TLRWSE_REQUIRE(expect == nq_, "kernel stream shards do not cover all ", nq_,
                 " frequencies");
}

template <typename PerFreq>
void MdcOperator::kernel_sweep([[maybe_unused]] PageScratch& ps,
                               const PerFreq& per_freq) const {
  [[maybe_unused]] const int team = team_size(inner_threads_);
  // Captured once: the hook lives on the calling thread, but every team
  // member polls it between MVMs so a deadline hit stops the whole batch.
  const CancelScope::Hook* const cancel = CancelScope::current();
  std::atomic<bool> cancelled{false};
  KernelStream& stream = *stream_;
  const index_t nshards = stream.num_shards();
  stream.begin_sweep();
  // end_sweep must run exactly once even when an acquire throws (stream
  // failure or deadline during a stall).
  struct SweepGuard {
    KernelStream& s;
    ~SweepGuard() { s.end_sweep(); }
  } guard{stream};
  for (index_t sh = 0; sh < nshards; ++sh) {
    // should_stop between shards: a deadline that fired during the last
    // shard is honoured before the next (possibly blocking) acquire.
    if (cancel != nullptr && (*cancel)()) throw CancelledError();
    const auto [q_begin, q_end] = stream.shard_range(sh);
    const std::span<FrequencyMvm* const> kernels = stream.acquire_shard(sh);
    TLRWSE_TSAN_RELEASE(&ps);
#pragma omp parallel num_threads(team)
    {
      TLRWSE_TSAN_ACQUIRE(&ps);
#pragma omp for schedule(static)
      for (index_t q = q_begin; q < q_end; ++q) {
        if (cancel != nullptr) {
          if (cancelled.load(std::memory_order_relaxed)) continue;
          if ((*cancel)()) {
            cancelled.store(true, std::memory_order_relaxed);
            continue;
          }
        }
        per_freq(q, *kernels[static_cast<std::size_t>(q - q_begin)],
                 freq_scratch_.local());
      }
      TLRWSE_TSAN_RELEASE(&ps);
    }
    TLRWSE_TSAN_ACQUIRE(&ps);
    stream.release_shard(sh);
    if (cancelled.load(std::memory_order_relaxed)) break;
  }
  if (cancelled.load(std::memory_order_relaxed)) throw CancelledError();
}

void MdcOperator::run(std::span<const float> in, std::span<float> out,
                      index_t nrhs, bool adjoint) const {
  ApplyMetrics& met = ApplyMetrics::instance();
  WallTimer apply_timer;
  const index_t in_traces = adjoint ? ns_ : nr_;
  const index_t out_traces = adjoint ? nr_ : ns_;
  TLRWSE_REQUIRE(nrhs >= 1, "nrhs");
  TLRWSE_REQUIRE(static_cast<index_t>(in.size()) == nt_ * in_traces * nrhs,
                 "input size");
  TLRWSE_REQUIRE(static_cast<index_t>(out.size()) == nt_ * out_traces * nrhs,
                 "output size");
  const index_t nin = in_traces * nrhs;    // one frequency's input panel
  const index_t nout = out_traces * nrhs;  // one frequency's output panel
  PageScratch& ps = page_scratch_.local();
  std::vector<cf32>& in_hat = adjoint ? ps.yhat : ps.xhat;
  std::vector<cf32>& out_hat = adjoint ? ps.xhat : ps.yhat;
  in_hat.resize(static_cast<std::size_t>(nq_ * nin));
  out_hat.resize(static_cast<std::size_t>(nq_ * nout));

  // F: every input trace of every RHS to the retained bins, [q][rhs][trace].
  {
    TLRWSE_TRACE_SPAN("mdc.fft_forward", "mdc");
    WallTimer fft_timer;
    transform_.forward(in, nin, std::span<cf32>(in_hat), inner_threads_);
    met.fft_s.record(fft_timer.seconds());
  }

  // K: per-frequency kernel MVMs on the in-place panels. Each frequency
  // reads and writes only its own bins, so the loop parallelises with no
  // shared state beyond per-thread workspaces.
  {
    const std::span<const cf32> xs(in_hat);
    const std::span<cf32> ys(out_hat);
    TLRWSE_TRACE_SPAN("mdc.kernel_loop", "mdc");
    WallTimer kernel_timer;
    const bool trace_freqs = obs::Tracer::detail_enabled();
    kernel_sweep(ps, [&](index_t q, FrequencyMvm& kernel,
                         FrequencyWorkspace& ws) {
      const std::uint64_t t0 = trace_freqs ? obs::Tracer::now_ns() : 0;
      const auto x_q = xs.subspan(static_cast<std::size_t>(q * nin),
                                  static_cast<std::size_t>(nin));
      const auto y_q = ys.subspan(static_cast<std::size_t>(q * nout),
                                  static_cast<std::size_t>(nout));
      if (nrhs == 1) {
        adjoint ? kernel.apply_adjoint(x_q, y_q, ws)
                : kernel.apply(x_q, y_q, ws);
      } else {
        adjoint ? kernel.apply_adjoint_batch(x_q, y_q, nrhs, ws)
                : kernel.apply_batch(x_q, y_q, nrhs, ws);
      }
      if (trace_freqs) {
        const std::uint64_t dur = obs::Tracer::now_ns() - t0;
        obs::Tracer::instance().complete("mdc.freq_mvm", "mdc", t0, dur);
        met.freq_mvm_s.record(static_cast<double>(dur) * 1e-9);
      }
    });
    met.kernel_loop_s.record(kernel_timer.seconds());
  }

  // F^H: the retained bins back to time.
  {
    TLRWSE_TRACE_SPAN("mdc.fft_inverse", "mdc");
    WallTimer fft_timer;
    transform_.inverse(std::span<const cf32>(out_hat), nout, out,
                       inner_threads_);
    met.fft_s.record(fft_timer.seconds());
  }
  met.apply_s.record(apply_timer.seconds());
}

void MdcOperator::apply(std::span<const float> x, std::span<float> y) const {
  TLRWSE_TRACE_SPAN("mdc.apply", "mdc");
  ApplyMetrics::instance().applies.add();
  run(x, y, 1, /*adjoint=*/false);
}

void MdcOperator::apply_adjoint(std::span<const float> y,
                                std::span<float> x) const {
  TLRWSE_TRACE_SPAN("mdc.apply_adjoint", "mdc");
  ApplyMetrics::instance().adjoints.add();
  run(y, x, 1, /*adjoint=*/true);
}

void MdcOperator::apply_batch(std::span<const float> X, std::span<float> Y,
                              index_t nrhs) const {
  TLRWSE_TRACE_SPAN("mdc.apply_batch", "mdc");
  ApplyMetrics::instance().applies.add(static_cast<std::uint64_t>(nrhs));
  run(X, Y, nrhs, /*adjoint=*/false);
}

void MdcOperator::apply_adjoint_batch(std::span<const float> Y,
                                      std::span<float> X,
                                      index_t nrhs) const {
  TLRWSE_TRACE_SPAN("mdc.apply_adjoint_batch", "mdc");
  ApplyMetrics::instance().adjoints.add(static_cast<std::uint64_t>(nrhs));
  run(Y, X, nrhs, /*adjoint=*/true);
}

}  // namespace tlrwse::mdc
