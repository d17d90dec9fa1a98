// Shared helpers for the benchmark harness: the paper's validated
// configurations (Table 1), the paper-scale rank-model source, and the
// small functional dataset used by the MDD benches.
#pragma once

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tlrwse/common/table.hpp"
#include "tlrwse/common/units.hpp"
#include "tlrwse/obs/flight_recorder.hpp"
#include "tlrwse/seismic/modeling.hpp"
#include "tlrwse/seismic/rank_model.hpp"
#include "tlrwse/wse/machine.hpp"

namespace tlrwse::bench {

/// One of the paper's validated (nb, acc) configurations with the stack
/// width used on six CS-2 systems (Table 1).
struct PaperConfig {
  index_t nb;
  double acc;
  index_t stack_width;
};

/// The five "green" configurations of Fig. 12 / Table 1.
inline std::vector<PaperConfig> green_configs() {
  return {{25, 1e-4, 64},
          {50, 1e-4, 32},
          {70, 1e-4, 23},
          {50, 3e-4, 18},
          {70, 3e-4, 14}};
}

/// RankSource adapter over the paper-scale analytic rank model.
class RankModelSource final : public wse::RankSource {
 public:
  explicit RankModelSource(const seismic::RankModelConfig& cfg) : model_(cfg) {}
  explicit RankModelSource(index_t nb, double acc) : model_(make_config(nb, acc)) {}

  [[nodiscard]] index_t num_freqs() const override {
    return model_.config().num_freqs;
  }
  [[nodiscard]] const tlr::TileGrid& grid() const override {
    return model_.grid();
  }
  [[nodiscard]] std::vector<index_t> tile_ranks(index_t q) const override {
    return model_.tile_ranks(q);
  }
  [[nodiscard]] const seismic::RankModel& model() const noexcept {
    return model_;
  }

 private:
  static seismic::RankModelConfig make_config(index_t nb, double acc) {
    seismic::RankModelConfig cfg;
    cfg.nb = nb;
    cfg.acc = acc;
    return cfg;
  }
  seismic::RankModel model_;
};

/// Formats an accuracy like the paper's tables (0.0001 / 0.0003).
inline std::string acc_cell(double acc) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", acc);
  return buf;
}

/// A cluster simulation with a flight recorder attached: the paper-table
/// benches derive every number from the recorder's aggregation rather than
/// re-deriving accounting from the ClusterReport.
struct RecordedRun {
  wse::ClusterReport report;
  obs::FlightReport flight;
};

inline RecordedRun recorded_cluster_run(const wse::RankSource& source,
                                        wse::ClusterConfig cfg) {
  obs::FlightRecorder recorder(wse::flight_config_for(cfg.spec));
  cfg.recorder = &recorder;
  RecordedRun out;
  out.report = wse::simulate_cluster(source, cfg);
  out.flight = recorder.report();
  return out;
}

#ifndef TLRWSE_BUILD_GIT_SHA
#define TLRWSE_BUILD_GIT_SHA "unknown"
#endif

///// v2 bench-JSON header fields shared by every JSON-emitting bench:
/// schema version plus run metadata (git sha from TLRWSE_GIT_SHA — CI
/// exports it — else the sha stamped at configure time, else "unknown";
/// compiler, and thread count). Returned WITHOUT surrounding braces so
/// benches splice it into their header line.
inline std::string json_meta_fields() {
  const char* sha = std::getenv("TLRWSE_GIT_SHA");
  std::string out = "\"schema_version\":2,\"meta\":{\"git_sha\":\"";
  out += (sha != nullptr && sha[0] != '\0') ? sha : TLRWSE_BUILD_GIT_SHA;
  out += "\",\"compiler\":\"";
#if defined(__clang__)
  out += "clang " __clang_version__;
#elif defined(__GNUC__)
  out += "gcc " __VERSION__;
#else
  out += "unknown";
#endif
  out += "\",\"threads\":";
  out += std::to_string(std::thread::hardware_concurrency());
  out += "}";
  return out;
}

/// The small functional dataset shared by the Fig. 11-13 benches:
/// full physics (free-surface multiples, Hilbert ordering) at a scale a
/// single core inverts in seconds.
inline seismic::DatasetConfig bench_dataset_config() {
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(16, 12, 12, 9);
  // 2.05 s of data: long enough to hold the deepest primary (~1.2 s) and
  // its first free-surface multiples without circular-FFT wraparound.
  cfg.nt = 512;
  cfg.dt = 0.004;
  cfg.f_min = 3.0;
  cfg.f_max = 30.0;
  cfg.water_multiples = 2;
  return cfg;
}

}  // namespace tlrwse::bench
