// Fig. 12 (top): effect of the compression accuracy on MDD quality —
// percentage NMSE change of each solution against the benchmark solution
// (tightest accuracy, largest tile size) and percentage compression of each
// approximation relative to the dense operator.
//
// Paper behaviour: two opposite trends — loosening acc gains compression
// but degrades the solution; nb plays a secondary role. The acc sweep is
// rescaled to this dataset's compression regime (paper: 1e-4 .. 7e-4).
#include <iostream>

#include "bench_common.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"

int main() {
  using namespace tlrwse;
  std::cout << "=== Fig. 12 (top): accuracy vs compression trade-off ===\n";
  const auto data = seismic::build_dataset(bench::bench_dataset_config());
  const index_t v = data.num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  const auto truth = mdd::true_reflectivity_traces(data, v);

  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 30;

  // Benchmark solution: largest nb, tightest acc (paper: nb=70, acc=1e-4).
  tlr::CompressionConfig bench_cfg;
  bench_cfg.nb = 32;
  bench_cfg.acc = 1e-4;
  const auto bench_op =
      mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, bench_cfg);
  const auto bench_sol = mdd::solve_mdd(*bench_op, rhs, lsqr);
  const double bench_nmse = mdd::nmse(bench_sol.x, truth);

  TablePrinter table({"nb", "acc", "% NMSE change", "% compression",
                      "NMSE vs truth"});
  for (index_t nb : {12, 24, 32}) {              // analogue of 25/50/70
    for (double acc : {1e-3, 1e-2, 5e-2, 1.5e-1}) {  // analogue of 1e-4..7e-4
      tlr::CompressionConfig cc;
      cc.nb = nb;
      cc.acc = acc;
      const auto stats = mdd::kernel_compression_stats(data, cc);
      const auto op =
          mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, cc);
      const auto sol = mdd::solve_mdd(*op, rhs, lsqr);
      const double n = mdd::nmse(sol.x, truth);
      table.add_row(
          {cell(nb), bench::acc_cell(acc),
           cell(mdd::nmse_change_percent(n, bench_nmse), 2),
           cell(100.0 * stats.compressed_bytes / stats.dense_bytes, 1),
           cell(n, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "(paper: NMSE change grows and compression %% shrinks as acc "
               "loosens — green/orange/red regions)\n";
  return 0;
}
