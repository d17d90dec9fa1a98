// `perfbench triad`: the host bandwidth bound of the traced run. A STREAM
// triad a = b + s*c over three arrays whose combined size is at least 4x
// the last-level cache (capped, so a huge shared LLC cannot demand
// gigabytes), run with the workload's thread count. Reports the median of
// the repetitions in GB/s, counting 3 arrays moved per pass as STREAM does.
#include <omp.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

double llc_bytes() {
  // The highest cache index present is the last level.
  double best = 0.0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream is("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(is >> s) || s.empty()) continue;
    double v = std::stod(s);
    const char unit = s.back();
    if (unit == 'K') v *= 1024.0;
    if (unit == 'M') v *= 1024.0 * 1024.0;
    best = std::max(best, v);
  }
  return best > 0.0 ? best : 32.0 * 1024.0 * 1024.0;
}

}  // namespace

int cmd_triad(Args& args) {
  const int threads = static_cast<int>(args.integer("threads", 4));
  args.finish();
  constexpr double kCapMib = 1536.0;
  constexpr int kReps = 7;

  const double llc = llc_bytes();
  const double total = std::min(4.0 * llc, kCapMib * 1024.0 * 1024.0);
  const auto n = static_cast<std::size_t>(total / 3.0 / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  std::vector<double> gbps;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = seconds_since(t0);
    gbps.push_back(3.0 * static_cast<double>(n * sizeof(double)) / dt / 1e9);
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  JsonObject out;
  out.num("triad_gbps", quantile(gbps, 0.5))
      .integer("threads", threads)
      .num("llc_mib", llc / (1024.0 * 1024.0))
      .num("array_mib", static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0))
      .num("total_mib", 3.0 * static_cast<double>(n * sizeof(double)) /
                            (1024.0 * 1024.0))
      .boolean("at_least_4x_llc", 3.0 * double(n * sizeof(double)) >= 4.0 * llc);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
