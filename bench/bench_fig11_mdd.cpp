// Fig. 11: MDD results for a single virtual source — a) cross-correlation
// (adjoint), b) LSQR inversion with tight compression accuracy, c) inversion
// with loose accuracy, all scored against d) the exact local reflectivity.
//
// Paper behaviour: the inversion removes the free-surface effects visible
// in the adjoint and closely resembles the ground truth; loosening the
// accuracy introduces noise. At this functional scale we report NMSE and
// correlation against the truth instead of wiggle plots; accuracies are
// rescaled to this dataset's compression regime (see EXPERIMENTS.md).
#include <iostream>

#include "bench_common.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"

int main() {
  using namespace tlrwse;
  std::cout << "=== Fig. 11: MDD adjoint vs inversion vs ground truth ===\n";
  const auto data = seismic::build_dataset(bench::bench_dataset_config());
  const index_t v = data.num_receivers() / 2;  // central virtual source
  const auto rhs = mdd::virtual_source_rhs(data, v);
  const auto truth = mdd::true_reflectivity_traces(data, v);

  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 30;  // the paper's iteration budget

  tlr::CompressionConfig tight;
  tight.nb = 24;
  tight.acc = 1e-4;
  tlr::CompressionConfig loose = tight;
  loose.acc = 1.5e-1;  // this dataset's analogue of the paper's 7e-4

  TablePrinter table({"Panel", "nb", "acc", "NMSE vs truth", "Correlation"});

  const auto op_tight =
      mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, tight);
  const auto adj = mdd::adjoint_reflectivity(*op_tight, rhs);
  table.add_row({"a) Adjoint (cross-corr.)", cell(tight.nb),
                 bench::acc_cell(tight.acc), "(unscaled)",
                 cell(mdd::correlation(adj, truth), 3)});

  const auto inv_tight = mdd::solve_mdd(*op_tight, rhs, lsqr);
  table.add_row({"b) Inverse, tight acc", cell(tight.nb),
                 bench::acc_cell(tight.acc),
                 cell(mdd::nmse(inv_tight.x, truth), 4),
                 cell(mdd::correlation(inv_tight.x, truth), 3)});

  const auto op_loose =
      mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, loose);
  const auto inv_loose = mdd::solve_mdd(*op_loose, rhs, lsqr);
  table.add_row({"c) Inverse, loose acc", cell(loose.nb),
                 bench::acc_cell(loose.acc),
                 cell(mdd::nmse(inv_loose.x, truth), 4),
                 cell(mdd::correlation(inv_loose.x, truth), 3)});

  table.add_row({"d) True local reflectivity", "-", "-", "0", "1.000"});
  table.print(std::cout);
  std::cout << "(paper: inversion ~ truth with free-surface effects removed; "
               "loose acc adds noise)\n";
  return 0;
}
