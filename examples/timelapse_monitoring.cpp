// Time-lapse CO2 monitoring with MDD — the paper's headline motivation
// ("carbon capture and storage", Secs. 1/3: overburden-free local
// reflectivity matters most "when the times of certain multiple arrivals
// overlap with that of primaries from the target of interest — e.g., a CO2
// storage site to be monitored over time").
//
// Baseline and monitor surveys are modelled over the same overthrust-style
// geology with the storage reflector weakened by the injected plume. MDD
// is run on both; the 4D difference of the deconvolved local reflectivities
// isolates the reservoir change, while the raw upgoing data difference is
// contaminated by the free-surface multiples of the (unchanged!)
// overburden re-scattering the changed target response.
#include <cmath>
#include <cstdio>

#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"

namespace {

using namespace tlrwse;

seismic::DatasetConfig survey(const seismic::SubsurfaceModel& model) {
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(14, 10, 12, 9);
  cfg.model = model;
  cfg.nt = 512;
  cfg.f_min = 4.0;
  cfg.f_max = 30.0;
  cfg.water_multiples = 2;
  return cfg;
}

/// RMS of a window of trace samples around two-way time t0.
double window_rms(const std::vector<float>& traces, index_t nt, double dt,
                  double t0, double half_width) {
  const auto lo = static_cast<index_t>(std::max((t0 - half_width) / dt, 0.0));
  const auto hi =
      std::min<index_t>(static_cast<index_t>((t0 + half_width) / dt), nt - 1);
  const auto ntr = static_cast<index_t>(traces.size()) / nt;
  double sum = 0.0;
  index_t count = 0;
  for (index_t tr = 0; tr < ntr; ++tr) {
    for (index_t t = lo; t <= hi; ++t) {
      const double v = traces[static_cast<std::size_t>(tr * nt + t)];
      sum += v * v;
      ++count;
    }
  }
  return count > 0 ? std::sqrt(sum / count) : 0.0;
}

}  // namespace

int main() {
  std::printf("== Time-lapse CO2 monitoring with MDD ==\n");
  const auto base_model = seismic::SubsurfaceModel::overthrust_like();
  const auto monitor_model = seismic::SubsurfaceModel::co2_monitor(0.8);
  std::printf("target reflectivity: baseline %.3f -> monitor %.3f\n",
              base_model.interfaces.back().reflectivity,
              monitor_model.interfaces.back().reflectivity);

  const auto base = seismic::build_dataset(survey(base_model));
  const auto monitor = seismic::build_dataset(survey(monitor_model));

  tlr::CompressionConfig cc;
  cc.nb = 24;
  cc.acc = 1e-4;
  const auto op_base =
      mdd::make_mdc_operator(base, mdd::KernelBackend::kTlr, cc);
  const auto op_mon =
      mdd::make_mdc_operator(monitor, mdd::KernelBackend::kTlr, cc);

  const index_t v = base.num_receivers() / 2;
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 30;
  const auto rhs_base = mdd::virtual_source_rhs(base, v);
  const auto rhs_mon = mdd::virtual_source_rhs(monitor, v);
  const auto r_base = mdd::solve_mdd(*op_base, rhs_base, lsqr);
  const auto r_mon = mdd::solve_mdd(*op_mon, rhs_mon, lsqr);

  // 4D differences.
  std::vector<float> d_mdd(r_base.x.size());
  for (std::size_t i = 0; i < d_mdd.size(); ++i) {
    d_mdd[i] = r_mon.x[i] - r_base.x[i];
  }
  std::vector<float> d_raw(rhs_base.size());
  for (std::size_t i = 0; i < d_raw.size(); ++i) {
    d_raw[i] = rhs_mon[i] - rhs_base[i];
  }

  // Where should the change live? At the target's two-way time below the
  // datum (zero-offset): t_tgt = 2 (z_tgt - wd) / c_sed.
  const auto& model = base.config.model;
  const double z_tgt =
      model.interfaces.back().depth - model.water_depth;
  const double t_tgt = 2.0 * z_tgt / model.sediment_velocity;
  const index_t nt = base.config.nt;
  const double dt = base.config.dt;

  const double mdd_in = window_rms(d_mdd, nt, dt, t_tgt, 0.12);
  const double mdd_out = window_rms(d_mdd, nt, dt, t_tgt / 2.0, 0.12);
  const double raw_in = window_rms(d_raw, nt, dt, t_tgt + 0.25, 0.12);
  const double raw_late = window_rms(d_raw, nt, dt, t_tgt + 0.8, 0.12);

  std::printf("\nMDD 4D difference (local reflectivity):\n");
  std::printf("  RMS at the target time (%.2fs):   %.3e\n", t_tgt, mdd_in);
  std::printf("  RMS away from the target (%.2fs): %.3e  (focus ratio "
              "%.1fx)\n",
              t_tgt / 2.0, mdd_out, mdd_in / std::max(mdd_out, 1e-30));
  std::printf("\nraw upgoing 4D difference:\n");
  std::printf("  RMS near the target arrival:      %.3e\n", raw_in);
  std::printf("  RMS in the multiple coda (+0.8s): %.3e  (leakage ratio "
              "%.2fx)\n",
              raw_late, raw_late / std::max(raw_in, 1e-30));
  std::printf("\nThe deconvolved difference is confined to the reservoir "
              "time; the raw data difference re-scatters the change through "
              "the free-surface multiples of the overburden.\n");
  return 0;
}
