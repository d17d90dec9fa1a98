// Fixed per-request latency attribution across the serve/cluster pipeline.
//
// Every request accumulates one StageBreakdown — queue wait, operator
// load, oocache stream stall, FFT, remote/local MVM, gather/scatter, RPC,
// and the LSQR loop — and a StageRecorder folds it into per-stage
// histograms (<prefix>.stage.*) so the attribution shows up in metrics
// JSON and the Prometheus export without any per-request allocation. The
// recorder resolves its histogram handles once; record() is eight
// histogram records, cheap enough to stay always-on (bench_obs_overhead
// gates it under 2%).
#pragma once

#include <sstream>
#include <string>
#include <string_view>

#include "tlrwse/obs/metrics_registry.hpp"

namespace tlrwse::obs {

struct StageBreakdown {
  double queue_wait_s = 0.0;    // admission -> dequeue
  double load_s = 0.0;          // operator cache miss / shard load
  double stream_stall_s = 0.0;  // oocache prefetch stalls inside the solve
  double fft_s = 0.0;           // forward + inverse rFFT stages
  double mvm_s = 0.0;           // per-frequency kernel MVMs (cluster: the
                                // longest shard's worker compute per apply)
  double gather_scatter_s = 0.0;  // panel gather + spectrum scatter
  double rpc_s = 0.0;           // cluster: rest of each apply's fan-out wall
                                // time (first dispatch -> last reply)
  double lsqr_s = 0.0;          // whole LSQR loop (contains fft/mvm/rpc)
  int lsqr_iterations = 0;

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"queue_wait_s\":" << queue_wait_s << ",\"load_s\":" << load_s
       << ",\"stream_stall_s\":" << stream_stall_s << ",\"fft_s\":" << fft_s
       << ",\"mvm_s\":" << mvm_s
       << ",\"gather_scatter_s\":" << gather_scatter_s
       << ",\"rpc_s\":" << rpc_s << ",\"lsqr_s\":" << lsqr_s
       << ",\"lsqr_iterations\":" << lsqr_iterations << "}";
    return os.str();
  }
};

/// Resolve-once recorder for a registry's <prefix>.stage.* histograms.
class StageRecorder {
 public:
  StageRecorder(MetricsRegistry& reg, std::string_view prefix)
      : queue_wait_(reg.histogram(std::string(prefix) + ".stage.queue_wait_s")),
        load_(reg.histogram(std::string(prefix) + ".stage.load_s")),
        stream_stall_(
            reg.histogram(std::string(prefix) + ".stage.stream_stall_s")),
        fft_(reg.histogram(std::string(prefix) + ".stage.fft_s")),
        mvm_(reg.histogram(std::string(prefix) + ".stage.mvm_s")),
        gather_scatter_(
            reg.histogram(std::string(prefix) + ".stage.gather_scatter_s")),
        rpc_(reg.histogram(std::string(prefix) + ".stage.rpc_s")),
        lsqr_(reg.histogram(std::string(prefix) + ".stage.lsqr_s")),
        lsqr_iterations_(
            reg.histogram(std::string(prefix) + ".stage.lsqr_iterations")) {}

  void record(const StageBreakdown& b) noexcept {
    queue_wait_.record(b.queue_wait_s);
    load_.record(b.load_s);
    stream_stall_.record(b.stream_stall_s);
    fft_.record(b.fft_s);
    mvm_.record(b.mvm_s);
    gather_scatter_.record(b.gather_scatter_s);
    rpc_.record(b.rpc_s);
    lsqr_.record(b.lsqr_s);
    lsqr_iterations_.record(static_cast<double>(b.lsqr_iterations));
  }

 private:
  Histogram& queue_wait_;
  Histogram& load_;
  Histogram& stream_stall_;
  Histogram& fft_;
  Histogram& mvm_;
  Histogram& gather_scatter_;
  Histogram& rpc_;
  Histogram& lsqr_;
  Histogram& lsqr_iterations_;
};

}  // namespace tlrwse::obs
