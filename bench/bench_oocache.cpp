// Out-of-core streaming throughput sweep over operator cache budgets.
//
// Builds a small synthetic survey, archives it as TLRA, then measures
// apply+adjoint pairs per second at four budget points: fully resident
// (io::make_operator, the reference), 1/2 payload, 1/4 payload, and the
// minimum feasible budget (the plan's window). Each streamed point
// runs twice — background prefetch on, then the synchronous no-prefetch
// path — so the row carries both the cost of streaming relative to
// resident and the overlap won back by the prefetcher. Every streamed
// solve is checked bitwise against the resident operator: streaming moves
// bytes, never bits. One JSON line per budget point. Usage:
//
//   ./bench_oocache [pairs] [--check]
//
// --check enforces the out-of-core acceptance bars: every row bitwise
// identical to resident; at the 1/2-payload point the streams read no more
// than the plan's schedule allows (the whole payload on the first sweep,
// only the unpinned ring on every later one, plus — for the prefetching
// stream — the ring shards it may already hold for the next sweep); and
// at the 1/4-payload point the prefetching stream sustains >=70% of
// resident applies/s. The throughput bar needs
// the prefetch thread to actually overlap, so it is only enforced when
// hardware_concurrency() >= 2; below that it prints an informational
// skip instead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/oocache/streamed_operator.hpp"
#include "tlrwse/seismic/modeling.hpp"

namespace {

using namespace tlrwse;

seismic::SeismicDataset build_data() {
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(8, 6, 6, 5);
  cfg.nt = 128;
  cfg.f_min = 4.0;
  cfg.f_max = 40.0;
  return seismic::build_dataset(cfg);
}

struct BudgetPoint {
  std::string name;         // "resident" | "half" | "quarter" | "window"
  double budget_mb = 0.0;   // effective budget actually used
  index_t shards = 1;
  double window_mb = 0.0;
  double applies_per_sec = 0.0;
  double no_prefetch_applies_per_sec = 0.0;
  double pct_of_resident = 100.0;
  double prefetch_speedup = 1.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
  double bytes_streamed_mb = 0.0;
  double stall_s = 0.0;
  bool bitwise = true;
  // Not printed: the streaming-volume bar of --check, in bytes.
  double sync_bytes_streamed = 0.0;  // synchronous run
  double schedule_bytes = 0.0;       // payload + (sweeps - 1) * ring
  double lookahead_bytes = 0.0;      // ring room the prefetcher may fill
};

// The applies ride the multi-RHS panel path: one sweep over the operator
// data serves kNrhs wavefields, which is how a streamed archive is worth
// its I/O — the amortization a real inversion (many virtual sources per
// sweep) gets for free.
constexpr index_t kNrhs = 8;

/// Sweeps one measure_applies_per_sec call runs: the warm-up pair plus
/// `pairs` timed pairs, one sweep per batched apply or adjoint.
int sweeps_per_measure(int pairs) { return 2 * (pairs + 1); }

/// Timed batched apply+adjoint pairs; each RHS in each direction counts
/// as one apply.
double measure_applies_per_sec(mdc::MdcOperator& op, int pairs,
                               const std::vector<float>& x,
                               std::vector<float>& y,
                               std::vector<float>& xt) {
  // Warm-up pair: fills the initial stream window so the timed region
  // measures steady-state streaming, not the cold first sweep.
  op.apply_batch(x, std::span<float>(y), kNrhs);
  op.apply_adjoint_batch(y, std::span<float>(xt), kNrhs);
  WallTimer timer;
  for (int r = 0; r < pairs; ++r) {
    op.apply_batch(x, std::span<float>(y), kNrhs);
    op.apply_adjoint_batch(y, std::span<float>(xt), kNrhs);
  }
  const double wall = timer.seconds();
  return wall > 0.0
             ? 2.0 * static_cast<double>(kNrhs) * static_cast<double>(pairs) /
                   wall
             : 0.0;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void print_point(const BudgetPoint& p) {
  std::cout << "{\"budget\":\"" << p.name << "\",\"budget_mb\":" << p.budget_mb
            << ",\"shards\":" << p.shards << ",\"window_mb\":" << p.window_mb
            << ",\"applies_per_sec\":" << p.applies_per_sec
            << ",\"no_prefetch_applies_per_sec\":"
            << p.no_prefetch_applies_per_sec
            << ",\"pct_of_resident\":" << p.pct_of_resident
            << ",\"prefetch_speedup\":" << p.prefetch_speedup
            << ",\"hits\":" << p.hits << ",\"misses\":" << p.misses
            << ",\"loads\":" << p.loads << ",\"evictions\":" << p.evictions
            << ",\"bytes_streamed_mb\":" << p.bytes_streamed_mb
            << ",\"stall_s\":" << p.stall_s
            << ",\"bitwise\":" << (p.bitwise ? "true" : "false") << "}\n";
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

int main(int argc, char** argv) {
  int pairs = 6;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      pairs = std::atoi(argv[i]);
    }
  }
  if (pairs < 1) pairs = 1;

  const auto data = build_data();
  tlr::CompressionConfig cc;
  cc.nb = 12;
  cc.acc = 1e-4;
  const std::string path =
      (std::filesystem::temp_directory_path() / "tlrwse_bench_oocache.tlra")
          .string();
  io::save_archive(path, io::build_archive(data, cc));

  const auto archive = io::load_archive(path);
  const double payload = archive.compressed_bytes();
  auto resident_op = io::make_operator(archive);
  resident_op->set_inner_threads(1);

  std::cout << "{\"bench\":\"oocache\",\"nt\":" << data.config.nt
            << ",\"num_freq\":" << data.num_freqs()
            << ",\"ns\":" << data.num_sources()
            << ",\"nr\":" << data.num_receivers()
            << ",\"payload_mb\":" << payload / kMiB << ",\"pairs\":" << pairs
            << ",\"nrhs\":" << kNrhs << "," << bench::json_meta_fields()
            << "}\n";

  std::vector<float> x(
      static_cast<std::size_t>(resident_op->cols() * kNrhs), 0.0F);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0F + 0.25F * static_cast<float>(i % 7);
  }
  std::vector<float> y(static_cast<std::size_t>(resident_op->rows() * kNrhs));
  std::vector<float> xt(static_cast<std::size_t>(resident_op->cols() * kNrhs));
  std::vector<float> ref_y(y.size());
  std::vector<float> ref_xt(xt.size());

  BudgetPoint resident;
  resident.name = "resident";
  resident.budget_mb = payload / kMiB;
  resident.applies_per_sec =
      measure_applies_per_sec(*resident_op, pairs, x, ref_y, ref_xt);
  resident.no_prefetch_applies_per_sec = resident.applies_per_sec;
  print_point(resident);

  std::vector<BudgetPoint> points{resident};
  const std::vector<std::pair<std::string, double>> budgets = {
      {"half", payload / 2.0}, {"quarter", payload / 4.0}, {"window", 1.0}};
  for (const auto& [name, budget] : budgets) {
    oocache::StreamConfig scfg;
    scfg.budget_bytes = budget;
    scfg.grow_to_window = true;  // "window" asks for the minimum feasible
    auto streamed = oocache::make_streamed_operator(path, scfg);
    streamed.op->set_inner_threads(1);

    BudgetPoint p;
    p.name = name;
    p.budget_mb = streamed.streamer->budget_bytes() / kMiB;
    p.shards = streamed.streamer->plan().num_shards();
    p.window_mb = streamed.streamer->plan().window_bytes() / kMiB;
    p.applies_per_sec = measure_applies_per_sec(*streamed.op, pairs, x, y, xt);
    p.bitwise = bitwise_equal(y, ref_y) && bitwise_equal(xt, ref_xt);
    const auto st = streamed.streamer->stats();
    p.hits = st.hits;
    p.misses = st.misses;
    p.loads = st.loads;
    p.evictions = st.evictions;
    p.bytes_streamed_mb = st.bytes_streamed / kMiB;
    const oocache::StreamPlan& plan = streamed.streamer->plan();
    const double ring = plan.total_bytes() - plan.pinned_bytes();
    p.schedule_bytes = plan.total_bytes() +
                       (sweeps_per_measure(pairs) - 1) * ring;
    p.lookahead_bytes = streamed.streamer->budget_bytes() - plan.pinned_bytes();
    p.stall_s = st.stall_s;
    p.pct_of_resident = resident.applies_per_sec > 0.0
                            ? 100.0 * p.applies_per_sec /
                                  resident.applies_per_sec
                            : 0.0;

    scfg.prefetch = false;
    auto sync = oocache::make_streamed_operator(path, scfg);
    sync.op->set_inner_threads(1);
    p.no_prefetch_applies_per_sec =
        measure_applies_per_sec(*sync.op, pairs, x, y, xt);
    p.sync_bytes_streamed = sync.streamer->stats().bytes_streamed;
    p.bitwise = p.bitwise && bitwise_equal(y, ref_y) && bitwise_equal(xt, ref_xt);
    p.prefetch_speedup = p.no_prefetch_applies_per_sec > 0.0
                             ? p.applies_per_sec / p.no_prefetch_applies_per_sec
                             : 0.0;
    print_point(p);
    points.push_back(p);
  }

  std::remove(path.c_str());

  if (!check) return 0;

  int rc = 0;
  for (const auto& p : points) {
    if (!p.bitwise) {
      std::cerr << "oocache: " << p.name
                << " streamed solve is NOT bitwise identical to resident\n";
      rc = 1;
    }
    if (!(p.applies_per_sec > 0.0) || !std::isfinite(p.applies_per_sec)) {
      std::cerr << "oocache: non-finite throughput at " << p.name << "\n";
      rc = 1;
    }
  }
  for (const auto& p : points) {
    if (p.name != "half") continue;
    // One byte of slack absorbs the rounding of summed per-shard doubles
    // (the MiB scaling is a power of two, so it is exact).
    const double prefetch_bytes = p.bytes_streamed_mb * kMiB;
    if (p.sync_bytes_streamed > p.schedule_bytes + 1.0 ||
        prefetch_bytes > p.schedule_bytes + p.lookahead_bytes + 1.0) {
      std::cerr << "oocache: half-budget streams read "
                << p.sync_bytes_streamed << " (sync) and " << prefetch_bytes
                << " (prefetch) bytes, above the schedule's "
                << p.schedule_bytes << " (+" << p.lookahead_bytes
                << " lookahead)\n";
      rc = 1;
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  for (const auto& p : points) {
    if (p.name != "quarter") continue;
    if (cores >= 2) {
      if (p.pct_of_resident < 70.0) {
        std::cerr << "oocache: quarter-budget prefetching stream at "
                  << p.pct_of_resident
                  << "% of resident applies/s, below the 70% bar\n";
        rc = 1;
      }
    } else {
      std::cerr << "oocache: " << cores
                << " hardware threads — 70% overlap bar skipped "
                   "(informational: pct_of_resident="
                << p.pct_of_resident << ")\n";
    }
  }
  return rc;
}
