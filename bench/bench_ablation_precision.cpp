// Ablation: mixed-precision TLR storage (refs [23][24]) — per-tile FP16/
// BF16 bases for the weak tiles. Emits JSON lines (header + one row per
// policy) with the storage saving, tile precision census, and MDD
// solution quality, so CI can pin both numbers across commits:
//
//   {"bench":"ablation_precision","nb":24,"acc":...,...}
//   {"row":"all_fp32","saving":1.0,"stored_mb":...,"tiles_fp32":...,
//    "tiles_fp16":...,"tiles_bf16":...,"nmse":...}
//
// With --check the bench enforces the acceptance bars: the all-BF16
// policy must save >= 1.9x storage, and no half-precision policy may
// degrade the MDD NMSE past 2x the FP32 solve's (the quality pin of the
// packed-storage work — rounding the weak tiles is an accuracy choice the
// compression tolerance already dominates).
//
//   ./bench_ablation_precision [--check]
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/tlr/mixed.hpp"
#include "tlrwse/tlr/tlr_mvm.hpp"

namespace {

using namespace tlrwse;

/// MDC operator over pre-quantized kernels.
std::unique_ptr<mdc::MdcOperator> quantized_operator(
    const seismic::SeismicDataset& data, const tlr::CompressionConfig& cc,
    const tlr::MixedPrecisionPolicy& policy) {
  const auto dA = static_cast<float>(data.surface_element());
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> kernels;
  for (index_t q = 0; q < data.num_freqs(); ++q) {
    la::MatrixCF K = data.p_down[static_cast<std::size_t>(q)];
    for (index_t j = 0; j < K.cols(); ++j) {
      cf32* col = K.col(j);
      for (index_t i = 0; i < K.rows(); ++i) col[i] *= dA;
    }
    auto t = tlr::compress_tlr(K, cc);
    auto quant = tlr::quantize_tlr(t, policy);
    kernels.push_back(std::make_unique<mdc::TlrMvm>(
        tlr::StackedTlr<cf32>(quant.matrix)));
  }
  return std::make_unique<mdc::MdcOperator>(data.config.nt, data.freq_bins,
                                            std::move(kernels));
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  const auto data = seismic::build_dataset(bench::bench_dataset_config());
  tlr::CompressionConfig cc;
  cc.nb = 24;
  cc.acc = 1e-4;

  std::printf(
      "{\"bench\":\"ablation_precision\",\"nt\":%lld,\"num_freq\":%lld,"
      "\"ns\":%lld,\"nr\":%lld,\"nb\":%lld,\"acc\":%.0e,%s}\n",
      static_cast<long long>(data.config.nt),
      static_cast<long long>(data.num_freqs()),
      static_cast<long long>(data.num_sources()),
      static_cast<long long>(data.num_receivers()),
      static_cast<long long>(cc.nb), cc.acc,
      bench::json_meta_fields().c_str());

  const index_t v = data.num_receivers() / 2;
  const auto rhs = mdd::virtual_source_rhs(data, v);
  const auto truth = mdd::true_reflectivity_traces(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = 30;

  struct Policy {
    const char* name;
    tlr::MixedPrecisionPolicy p;
  };
  // Thresholds sized for this dataset's (narrow) tile-norm spread; the
  // paper-scale Hilbert-sorted matrices spread much wider, so production
  // policies would use the defaults.
  const std::vector<Policy> policies = {
      {"all_fp32", {0.0, 0.0}},
      {"weak_fp16", {0.7, 0.0}},
      {"weak_fp16_weakest_bf16", {0.7, 0.45}},
      {"all_bf16", {2.0, 2.0}},
  };

  // Storage stats from one representative kernel.
  const auto mid = tlr::compress_tlr(
      data.p_down[static_cast<std::size_t>(data.num_freqs() / 2)], cc);

  double nmse_fp32 = 0.0, worst_half_nmse = 0.0, bf16_saving = 0.0;
  for (const auto& pol : policies) {
    const auto q = tlr::quantize_tlr(mid, pol.p);
    const auto op = quantized_operator(data, cc, pol.p);
    const auto sol = mdd::solve_mdd(*op, rhs, lsqr);
    const double nmse = mdd::nmse(sol.x, truth);
    std::printf(
        "{\"row\":\"%s\",\"saving\":%.4f,\"stored_mb\":%.4f,"
        "\"fp32_mb\":%.4f,\"tiles_fp32\":%lld,\"tiles_fp16\":%lld,"
        "\"tiles_bf16\":%lld,\"nmse\":%.6f}\n",
        pol.name, q.saving(), q.stored_bytes / 1.0e6, q.fp32_bytes / 1.0e6,
        static_cast<long long>(q.tiles_fp32),
        static_cast<long long>(q.tiles_fp16),
        static_cast<long long>(q.tiles_bf16), nmse);
    if (std::strcmp(pol.name, "all_fp32") == 0) {
      nmse_fp32 = nmse;
    } else {
      worst_half_nmse = std::max(worst_half_nmse, nmse);
    }
    if (std::strcmp(pol.name, "all_bf16") == 0) bf16_saving = q.saving();
  }

  if (check) {
    const bool ok_saving = bf16_saving >= 1.9;
    const bool ok_quality = worst_half_nmse <= 2.0 * nmse_fp32;
    std::cerr << "check: all-bf16 saving " << bf16_saving
              << (ok_saving ? " >= 1.9 ok" : " < 1.9 FAIL")
              << ", worst half-policy NMSE " << worst_half_nmse << " vs fp32 "
              << nmse_fp32
              << (ok_quality ? " within 2x ok" : " past 2x FAIL") << "\n";
    return ok_saving && ok_quality ? 0 : 1;
  }
  return 0;
}
