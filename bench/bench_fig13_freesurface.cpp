// Fig. 13: MDD removes free-surface related effects. The paper shows
// zero-offset sections of the full data, upgoing data, and MDD output
// along a crossline of virtual sources; downgoing events and free-surface
// multiples visible in the first two panels vanish after MDD.
//
// Functional-scale proxy: for a line of virtual sources we compare the
// fraction of trace energy arriving in the late "multiple" window (after
// the deepest primary) for the upgoing data, the MDD estimate, and the
// ground-truth reflectivity. MDD should push the late-energy fraction down
// to the truth's level.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"

namespace {

/// Energy fraction of the trace page (nt x ntraces) after time `t_late`.
double late_energy_fraction(const std::vector<float>& page,
                            tlrwse::index_t nt, double dt, double t_late) {
  const auto ntr = static_cast<tlrwse::index_t>(page.size()) / nt;
  const auto t0 = static_cast<tlrwse::index_t>(t_late / dt);
  double late = 0.0, total = 0.0;
  for (tlrwse::index_t tr = 0; tr < ntr; ++tr) {
    for (tlrwse::index_t t = 0; t < nt; ++t) {
      const double v = page[static_cast<std::size_t>(tr * nt + t)];
      total += v * v;
      if (t >= t0) late += v * v;
    }
  }
  return total > 0.0 ? late / total : 0.0;
}

}  // namespace

int main() {
  using namespace tlrwse;
  std::cout << "=== Fig. 13: free-surface removal along a virtual-source line "
               "===\n";
  const auto data = seismic::build_dataset(bench::bench_dataset_config());
  const auto& model = data.config.model;
  // Deepest primary two-way time below the datum, plus margin: everything
  // after this in the LOCAL reflectivity should be (nearly) silent, while
  // the upgoing data still carries free-surface multiples there.
  const double z_max = model.interfaces.back().depth - model.water_depth;
  const double t_late = 2.0 * (z_max + 150.0) / model.sediment_velocity;

  tlr::CompressionConfig cc;
  cc.nb = 24;
  cc.acc = 1e-4;
  const auto op = mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, cc);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 30;

  // A crossline of virtual sources through the middle of the receiver grid.
  const index_t line = data.num_receivers() / 2;
  const index_t nline = std::min<index_t>(8, data.num_receivers() - line);
  double up_frac = 0.0, mdd_frac = 0.0, true_frac = 0.0;
  for (index_t k = 0; k < nline; ++k) {
    const index_t v = line + k;
    const auto rhs = mdd::virtual_source_rhs(data, v);
    const auto truth = mdd::true_reflectivity_traces(data, v);
    const auto sol = mdd::solve_mdd(*op, rhs, lsqr);
    up_frac += late_energy_fraction(rhs, data.config.nt, data.config.dt, t_late);
    mdd_frac +=
        late_energy_fraction(sol.x, data.config.nt, data.config.dt, t_late);
    true_frac +=
        late_energy_fraction(truth, data.config.nt, data.config.dt, t_late);
  }
  up_frac /= static_cast<double>(nline);
  mdd_frac /= static_cast<double>(nline);
  true_frac /= static_cast<double>(nline);

  TablePrinter table({"Dataset", "late-window energy fraction"});
  table.add_row({"Upgoing data (with free-surface multiples)",
                 cell(up_frac, 4)});
  table.add_row({"MDD estimate", cell(mdd_frac, 4)});
  table.add_row({"True local reflectivity", cell(true_frac, 4)});
  table.print(std::cout);
  std::cout << "(paper: free-surface multiples present in the upgoing data "
               "are suppressed after MDD)\n"
            << "late window starts at t = " << t_late << " s over " << nline
            << " virtual sources\n";
  return 0;
}
