// tlrwse command-line tool.
//
//   tlrwse_cli synth    --out K.bin [--nsx 16 --nsy 12 --nrx 12 --nry 9]
//                       [--freq-index q] [--ordering hilbert|morton|natural]
//   tlrwse_cli compress --in K.bin --out K.tlr [--nb 24] [--acc 1e-4]
//                       [--backend svd|rrqr|rsvd|aca]
//   tlrwse_cli info     --in K.tlr
//   tlrwse_cli mvm      --in K.tlr [--reps 50] [--seed 1]
//   tlrwse_cli simulate [--nb 70] [--acc 1e-4] [--sw 23] [--strategy 1|2]
//                       [--systems 6]
//   tlrwse_cli mdd      [--nb 24] [--acc 1e-4] [--iters 30]
//   tlrwse_cli archive  --out survey.tlra [--nb 24] [--acc 1e-4] [geometry
//                       flags as for synth]   (compress a whole survey)
//   tlrwse_cli solve    --archive survey.tlra [--vsrc v] [--iters 30]
//                       [--stream-mb 0] [--stream-verify 0]
//                       (MDD from precompressed kernels; geometry flags
//                        must match the archive's survey. --stream-mb > 0
//                        runs out-of-core: kernels stream disk->RAM under
//                        that byte budget, grown to the plan's
//                        window when too small;
//                        --stream-verify 1 re-solves fully resident and
//                        asserts the streamed solution is bitwise equal)
//   tlrwse_cli serve    --archive survey.tlra [--clients 8] [--requests 4]
//                       [--workers 4] [--queue 64] [--batch 8] [--iters 10]
//                       [--mode lsqr|adjoint|mixed] [--deadline-ms 0]
//                       [--cache-mb 512] [--verify 1] [--metrics-out FILE]
//                       [--health-out FILE] [--watch MS] [--slo-ms 0]
//                       [--exemplar-dir DIR] [geometry flags as for solve]
//                       (closed-loop multi-client solve service driver;
//                       verifies bitwise vs sequential; prints the service
//                       registry snapshot as JSON; --metrics-out dumps the
//                       same snapshot in Prometheus text format;
//                       --health-out dumps the snapshot + the rolling
//                       SLO window as JSON; --watch MS repaints a live
//                       service view every MS milliseconds; --slo-ms sets
//                       the latency objective, with breach exemplars
//                       persisted under --exemplar-dir)
//   tlrwse_cli trace    --out trace.json [--iters 5] [--nb 24] [--acc 1e-4]
//                       [geometry flags as for synth]   (end-to-end demo:
//                       archive -> serve -> solve, captured as a
//                       chrome://tracing file plus a metrics JSON dump)
//   tlrwse_cli cluster  --archive survey.tlra [--workers 3] [--requests 6]
//                       [--iters 8] [--mode lsqr|adjoint] [--kill-worker 0]
//                       [--verify 1] [--replicate-mb 0]
//                       [--trace-merged-out FILE] [--health-out FILE]
//                       [--watch MS] [--slo-ms 0] [--exemplar-dir DIR]
//                       [geometry flags as for solve]   (multi-process
//                       smoke: forks real worker processes behind unix
//                       sockets, solves through the cluster frontend,
//                       verifies bitwise vs the single-process solve,
//                       prints the fleet's merged registry snapshot;
//                       --kill-worker 1 SIGKILLs one worker mid-run and
//                       asserts typed degradation; --trace-merged-out
//                       traces the first request end-to-end and writes one
//                       clock-aligned chrome://tracing timeline spanning
//                       the frontend and every worker process;
//                       --health-out dumps per-worker shard/bytes/uptime
//                       health + the SLO window as JSON; --watch MS
//                       repaints a live fleet view)
//
// `serve` installs SIGINT/SIGTERM handlers: on the first signal admission
// stops (clients submit nothing new), in-flight requests drain, and the
// metrics/trace outputs are still flushed before exit.
//
// There is also a hidden `cluster-worker --socket PATH` subcommand: the
// worker half of `cluster`, exec'd by the driver — not for interactive use.
//
// Every command also accepts --trace-out FILE: the whole run is recorded
// with the scoped-span tracer and dumped as chrome://tracing JSON (load it
// at chrome://tracing or https://ui.perfetto.dev).
//
// Exit code 0 on success, 1 on usage error, 2 on runtime failure.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "tlrwse/cluster/frontend.hpp"
#include "tlrwse/cluster/transport.hpp"
#include "tlrwse/cluster/worker.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/common/stats.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/common/units.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/io/serialize.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/prometheus.hpp"
#include "tlrwse/obs/tracer.hpp"
#include "tlrwse/oocache/streamed_operator.hpp"
#include "tlrwse/seismic/modeling.hpp"
#include "tlrwse/seismic/rank_model.hpp"
#include "tlrwse/serve/solve_service.hpp"
#include "tlrwse/tlr/stacked.hpp"
#include "tlrwse/wse/machine.hpp"

namespace {

using namespace tlrwse;

/// Tiny --flag value parser: every option takes exactly one value. A
/// trailing flag without a value is a usage error (not a silent drop), and
/// lookups are recorded so main() can reject flags the chosen subcommand
/// never consumed (catching typos like `--iter 5`).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0 || argv[i][2] == '\0') {
        throw std::invalid_argument(std::string("expected --flag, got ") +
                                    argv[i]);
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string("flag ") + argv[i] +
                                    " is missing its value");
      }
      values_[argv[i] + 2] = argv[i + 1];
      ++i;
    }
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] index_t integer(const std::string& key, index_t fallback) const {
    return static_cast<index_t>(num(key, static_cast<double>(fallback)));
  }
  [[nodiscard]] bool has(const std::string& key) const {
    consumed_.insert(key);
    return values_.count(key) > 0;
  }
  /// Flags provided on the command line that no code path looked up.
  [[nodiscard]] std::vector<std::string> unconsumed() const {
    std::vector<std::string> out;
    for (const auto& [key, value] : values_) {
      if (consumed_.count(key) == 0) out.push_back(key);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

/// Writes `text` to `path`; returns false (with a message) on failure.
bool write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  std::FILE* fh = std::fopen(path.c_str(), "wb");
  if (fh == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", what, path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), fh);
  std::fclose(fh);
  return true;
}

/// One top-like frame of the fleet view for `cluster --watch`.
std::string format_fleet_view(
    const std::vector<cluster::ClusterService::WorkerHealth>& fleet,
    const obs::SloTracker::Window& win) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "fleet: %zu workers | slo window: %llu reqs, p50 %.3fs, "
                "p95 %.3fs, p99 %.3fs, burn %.2f\n",
                fleet.size(), static_cast<unsigned long long>(win.count),
                win.p50_s, win.p95_s, win.p99_s, win.burn_rate);
  out += line;
  for (const auto& wh : fleet) {
    if (!wh.alive) {
      std::snprintf(line, sizeof(line), "  %-10s DEAD\n", wh.name.c_str());
      out += line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  %-10s up %6.1fs  inflight %2llu  applies %6llu  "
                  "resident %8.1f KiB  drops %llu",
                  wh.name.c_str(), 1e-9 * static_cast<double>(wh.health.uptime_ns),
                  static_cast<unsigned long long>(wh.health.inflight),
                  static_cast<unsigned long long>(wh.health.applies),
                  wh.health.resident_bytes / 1024.0,
                  static_cast<unsigned long long>(wh.health.dropped_spans));
    out += line;
    for (const auto& sh : wh.health.shards) {
      std::snprintf(line, sizeof(line), "  shard %u [q %lld:%lld)",
                    sh.shard_id, static_cast<long long>(sh.q_begin),
                    static_cast<long long>(sh.q_end));
      out += line;
    }
    out += "\n";
  }
  return out;
}

seismic::DatasetConfig dataset_config(const Args& args) {
  seismic::DatasetConfig cfg;
  cfg.geometry = seismic::AcquisitionGeometry::small_scale(
      args.integer("nsx", 16), args.integer("nsy", 12),
      args.integer("nrx", 12), args.integer("nry", 9));
  cfg.nt = args.integer("nt", 256);
  cfg.f_min = args.num("fmin", 3.0);
  cfg.f_max = args.num("fmax", 30.0);
  const std::string ord = args.get("ordering", "hilbert");
  cfg.ordering = ord == "natural"  ? reorder::Ordering::kNatural
                 : ord == "morton" ? reorder::Ordering::kMorton
                                   : reorder::Ordering::kHilbert;
  return cfg;
}

tlr::CompressionConfig compression_config(const Args& args) {
  tlr::CompressionConfig cc;
  cc.nb = args.integer("nb", 24);
  cc.acc = args.num("acc", 1e-4);
  const std::string backend = args.get("backend", "svd");
  cc.backend = backend == "rrqr"   ? tlr::CompressionBackend::kRrqr
               : backend == "rsvd" ? tlr::CompressionBackend::kRsvd
               : backend == "aca"  ? tlr::CompressionBackend::kAca
                                   : tlr::CompressionBackend::kSvd;
  return cc;
}

int cmd_synth(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "synth: --out is required\n");
    return 1;
  }
  const auto data = seismic::build_dataset(dataset_config(args));
  const index_t q = args.integer("freq-index", data.num_freqs() / 2);
  if (q < 0 || q >= data.num_freqs()) {
    std::fprintf(stderr, "synth: freq-index out of range [0, %lld)\n",
                 static_cast<long long>(data.num_freqs()));
    return 1;
  }
  io::save_matrix(out, data.p_down[static_cast<std::size_t>(q)]);
  std::printf("wrote %s: %lld x %lld frequency matrix at %.2f Hz\n",
              out.c_str(),
              static_cast<long long>(data.num_sources()),
              static_cast<long long>(data.num_receivers()),
              data.freqs_hz[static_cast<std::size_t>(q)]);
  return 0;
}

int cmd_compress(const Args& args) {
  TLRWSE_TRACE_SPAN("cli.compress", "cli");
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "compress: --in and --out are required\n");
    return 1;
  }
  const auto dense = io::load_matrix(in);
  const auto cc = compression_config(args);
  WallTimer t;
  const auto tlr_mat = tlr::compress_tlr(dense, cc);
  io::save_tlr(out, tlr_mat);
  std::printf("compressed %lld x %lld (nb=%lld, acc=%.1e): %s -> %s "
              "(%.2fx) in %.2fs\n",
              static_cast<long long>(dense.rows()),
              static_cast<long long>(dense.cols()),
              static_cast<long long>(cc.nb), cc.acc,
              format_bytes(tlr_mat.dense_bytes()).c_str(),
              format_bytes(tlr_mat.compressed_bytes()).c_str(),
              tlr_mat.compression_ratio(), t.seconds());
  return 0;
}

int cmd_info(const Args& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "info: --in is required\n");
    return 1;
  }
  const auto m = io::load_tlr(in);
  const auto s = m.rank_stats();
  std::printf("TLR matrix %s\n", in.c_str());
  std::printf("  shape: %lld x %lld, nb = %lld (%lld x %lld tiles)\n",
              static_cast<long long>(m.rows()), static_cast<long long>(m.cols()),
              static_cast<long long>(m.grid().nb()),
              static_cast<long long>(m.grid().mt()),
              static_cast<long long>(m.grid().nt()));
  std::printf("  ranks: min %lld, max %lld, mean %.2f\n",
              static_cast<long long>(s.min), static_cast<long long>(s.max),
              s.mean);
  std::printf("  size: %s compressed vs %s dense (%.2fx)\n",
              format_bytes(m.compressed_bytes()).c_str(),
              format_bytes(m.dense_bytes()).c_str(), m.compression_ratio());
  return 0;
}

int cmd_mvm(const Args& args) {
  TLRWSE_TRACE_SPAN("cli.mvm", "cli");
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "mvm: --in is required\n");
    return 1;
  }
  const auto m = io::load_tlr(in);
  // The same kernel object a solve runs: TlrMvm over its compiled plan.
  const mdc::TlrMvm mvm{tlr::StackedTlr<cf32>(m)};
  Rng rng(args.integer("seed", 1));
  std::vector<cf32> x(static_cast<std::size_t>(m.cols()));
  fill_normal(rng, x.data(), x.size());

  const int reps = static_cast<int>(args.integer("reps", 50));
  std::vector<cf32> y(static_cast<std::size_t>(m.rows()));
  mdc::FrequencyWorkspace ws;
  mvm.apply(std::span<const cf32>(x), std::span<cf32>(y), ws);  // warm-up
  WallTimer t;
  for (int r = 0; r < reps; ++r) {
    mvm.apply(std::span<const cf32>(x), std::span<cf32>(y), ws);
  }
  const double ms = t.millis() / reps;
  std::printf("TLR-MVM (%s plan): %.3f ms/apply, effective bandwidth %s\n",
              la::simd::level_name(la::simd::active_level()), ms,
              format_bandwidth(m.compressed_bytes() / (ms * 1e-3)).c_str());
  return 0;
}

int cmd_simulate(const Args& args) {
  seismic::RankModelConfig rcfg;
  rcfg.nb = args.integer("nb", 70);
  rcfg.acc = args.num("acc", 1e-4);

  struct ModelSource final : wse::RankSource {
    explicit ModelSource(const seismic::RankModelConfig& c) : model(c) {}
    seismic::RankModel model;
    [[nodiscard]] index_t num_freqs() const override {
      return model.config().num_freqs;
    }
    [[nodiscard]] const tlr::TileGrid& grid() const override {
      return model.grid();
    }
    [[nodiscard]] std::vector<index_t> tile_ranks(index_t q) const override {
      return model.tile_ranks(q);
    }
  } source(rcfg);

  wse::ClusterConfig cfg;
  cfg.stack_width = args.integer("sw", 23);
  cfg.systems = args.integer("systems", 0);
  cfg.strategy = args.integer("strategy", 1) == 2
                     ? wse::Strategy::kScatterRealMvms
                     : wse::Strategy::kSplitStackWidth;
  WallTimer t;
  const auto rep = wse::simulate_cluster(source, cfg);
  std::printf("paper-scale mapping (nb=%lld, acc=%.1e, sw=%lld, strategy "
              "%d)\n",
              static_cast<long long>(rcfg.nb), rcfg.acc,
              static_cast<long long>(cfg.stack_width),
              cfg.strategy == wse::Strategy::kScatterRealMvms ? 2 : 1);
  std::printf("  PEs: %lld on %lld CS-2 systems (%.1f%% occupancy)\n",
              static_cast<long long>(rep.pes_used),
              static_cast<long long>(rep.systems), 100.0 * rep.occupancy);
  std::printf("  worst cycles: %.0f (%.3f us)\n", rep.worst_cycles,
              rep.time_us);
  std::printf("  relative bandwidth: %s\n",
              format_bandwidth(rep.relative_bw).c_str());
  std::printf("  absolute bandwidth: %s\n",
              format_bandwidth(rep.absolute_bw).c_str());
  std::printf("  sustained: %s\n", format_flops(rep.flops_rate).c_str());
  std::printf("  max SRAM/PE: %s (%s)\n",
              format_bytes(rep.max_sram_bytes).c_str(),
              rep.fits_sram ? "fits" : "OVERFLOW");
  std::printf("  (simulated in %.1fs)\n", t.seconds());
  return 0;
}

int cmd_mdd(const Args& args) {
  TLRWSE_TRACE_SPAN("cli.mdd", "cli");
  const auto data = seismic::build_dataset(dataset_config(args));
  const auto cc = compression_config(args);
  const auto op =
      mdd::make_mdc_operator(data, mdd::KernelBackend::kTlr, cc);
  const index_t v = args.integer("vsrc", data.num_receivers() / 2);
  const auto rhs = mdd::virtual_source_rhs(data, v);
  const auto truth = mdd::true_reflectivity_traces(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = static_cast<int>(args.integer("iters", 30));
  WallTimer t;
  const auto sol = mdd::solve_mdd(*op, rhs, lsqr);
  std::printf("MDD (virtual source %lld, %d LSQR iterations, %.1fs):\n",
              static_cast<long long>(v), sol.iterations, t.seconds());
  std::printf("  NMSE vs truth: %.4f, correlation: %.3f, |r| = %.3e\n",
              mdd::nmse(sol.x, truth), mdd::correlation(sol.x, truth),
              sol.residual_norm);
  return 0;
}

int cmd_archive(const Args& args) {
  TLRWSE_TRACE_SPAN("cli.archive", "cli");
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "archive: --out is required\n");
    return 1;
  }
  const auto data = seismic::build_dataset(dataset_config(args));
  WallTimer t;
  const auto archive = io::build_archive(data, compression_config(args));
  io::save_archive(out, archive);
  std::printf("archived %lld kernels (%s compressed) to %s in %.1fs\n",
              static_cast<long long>(archive.num_freqs()),
              format_bytes(archive.compressed_bytes()).c_str(), out.c_str(),
              t.seconds());
  return 0;
}

int cmd_solve(const Args& args) {
  TLRWSE_TRACE_SPAN("cli.solve", "cli");
  const std::string path = args.get("archive", "");
  if (path.empty()) {
    std::fprintf(stderr, "solve: --archive is required\n");
    return 1;
  }
  const double stream_mb = args.num("stream-mb", 0.0);
  const bool stream_verify = args.integer("stream-verify", 0) != 0;
  std::unique_ptr<mdc::MdcOperator> op;
  std::shared_ptr<oocache::ShardStreamer> streamer;
  if (stream_mb > 0.0) {
    // Out-of-core: kernels stream disk->RAM under the byte budget while
    // the solve runs, grown to the plan's window when the request is too
    // small to be servable at all.
    oocache::StreamConfig scfg;
    scfg.budget_bytes = stream_mb * 1024.0 * 1024.0;
    scfg.grow_to_window = true;
    auto streamed = oocache::make_streamed_operator(path, scfg);
    op = std::move(streamed.op);
    streamer = streamed.streamer;
    std::printf("streaming %s: %.1f MiB payload in %lld shard(s), budget "
                "%.1f MiB (window %.1f MiB, pinned %.1f MiB)\n",
                path.c_str(), streamed.info.payload_bytes / (1024.0 * 1024.0),
                static_cast<long long>(streamer->plan().num_shards()),
                streamer->budget_bytes() / (1024.0 * 1024.0),
                streamer->plan().window_bytes() / (1024.0 * 1024.0),
                streamer->plan().pinned_bytes() / (1024.0 * 1024.0));
  } else {
    op = io::open_operator(path);
  }
  // The observed data still comes from the (re-modelled) survey; in a real
  // deployment it would be loaded from disk alongside the archive.
  const auto data = seismic::build_dataset(dataset_config(args));
  TLRWSE_REQUIRE(op->num_receivers() == data.num_receivers() &&
                     op->num_sources() == data.num_sources() &&
                     op->nt() == data.config.nt,
                 "archive does not match the survey geometry flags");
  const index_t v = args.integer("vsrc", data.num_receivers() / 2);
  const auto rhs = mdd::virtual_source_rhs(data, v);
  const auto truth = mdd::true_reflectivity_traces(data, v);
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = static_cast<int>(args.integer("iters", 30));
  WallTimer t;
  const auto sol = mdd::solve_mdd(*op, rhs, lsqr);
  std::printf("solved virtual source %lld from %s in %.1fs: NMSE %.4f, "
              "correlation %.3f\n",
              static_cast<long long>(v), path.c_str(), t.seconds(),
              mdd::nmse(sol.x, truth), mdd::correlation(sol.x, truth));
  if (streamer != nullptr) {
    const oocache::StreamStats st = streamer->stats();
    std::printf("stream stats: %llu hits, %llu misses, %llu loads, %llu "
                "evictions, %.1f MiB streamed, %.2fs stalled\n",
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.loads),
                static_cast<unsigned long long>(st.evictions),
                st.bytes_streamed / (1024.0 * 1024.0), st.stall_s);
  }
  if (stream_verify && streamer != nullptr) {
    // Ground truth: the same solve with every kernel resident. Streaming
    // must change residency timing only, never a single bit of the result.
    const auto resident = io::open_operator(path);
    const auto ref = mdd::solve_mdd(*resident, rhs, lsqr);
    const bool bitwise =
        ref.x.size() == sol.x.size() &&
        std::memcmp(ref.x.data(), sol.x.data(),
                    ref.x.size() * sizeof(float)) == 0;
    std::printf("stream verify: %s\n",
                bitwise ? "bitwise identical to resident solve"
                        : "MISMATCH vs resident solve");
    if (!bitwise) return 2;
  }
  return 0;
}

/// Set by the first SIGINT/SIGTERM during `serve`: client threads stop
/// submitting (admission stops), in-flight requests finish, and the run
/// exits through the normal path so metrics/trace files still flush.
volatile std::sig_atomic_t g_drain_requested = 0;

extern "C" void drain_signal_handler(int) { g_drain_requested = 1; }

int cmd_serve(const Args& args) {
  TLRWSE_TRACE_SPAN("cli.serve", "cli");
  const std::string path = args.get("archive", "");
  if (path.empty()) {
    std::fprintf(stderr, "serve: --archive is required\n");
    return 1;
  }
  const int clients = static_cast<int>(args.integer("clients", 8));
  const int requests = static_cast<int>(args.integer("requests", 4));
  const int iters = static_cast<int>(args.integer("iters", 10));
  const std::string mode = args.get("mode", "lsqr");
  const double deadline_s = args.num("deadline-ms", 0.0) / 1e3;
  const bool verify = args.integer("verify", 1) != 0;
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string health_out = args.get("health-out", "");
  const int watch_ms = static_cast<int>(args.integer("watch", 0));
  const double slo_ms = args.num("slo-ms", 0.0);
  const std::string exemplar_dir = args.get("exemplar-dir", "");
  if (clients < 1 || requests < 1) {
    std::fprintf(stderr, "serve: --clients/--requests must be >= 1\n");
    return 1;
  }
  if (mode != "lsqr" && mode != "adjoint" && mode != "mixed") {
    std::fprintf(stderr, "serve: --mode must be lsqr|adjoint|mixed\n");
    return 1;
  }

  serve::ServiceConfig cfg;
  cfg.workers = static_cast<int>(args.integer("workers", 4));
  cfg.queue_capacity = static_cast<std::size_t>(args.integer("queue", 64));
  cfg.max_batch = static_cast<std::size_t>(args.integer("batch", 8));
  cfg.cache_budget_bytes = args.num("cache-mb", 512.0) * 1024.0 * 1024.0;
  cfg.slo.latency_objective_s = slo_ms / 1e3;
  cfg.slo.exemplar_dir = exemplar_dir;

  // The observed data comes from the (re-modelled) survey, exactly as in
  // `solve`; the archive must match the geometry flags.
  const auto info = io::peek_archive(path);
  const auto data = seismic::build_dataset(dataset_config(args));
  TLRWSE_REQUIRE(info.nt == data.config.nt,
                 "archive nt does not match the survey geometry flags");
  const index_t nr = data.num_receivers();
  const serve::OperatorKey key{path, args.integer("nb", 0),
                               args.num("acc", 0.0)};

  const int total = clients * requests;
  auto kind_of = [&](int j) {
    if (mode == "adjoint") return serve::RequestKind::kAdjoint;
    if (mode == "mixed" && j % 2 == 1) return serve::RequestKind::kAdjoint;
    return serve::RequestKind::kLsqr;
  };
  // Pre-model the right-hand sides so client threads only exercise the
  // service (vsrc j cycles the receiver line).
  std::vector<std::vector<float>> rhs(static_cast<std::size_t>(
      std::min<index_t>(total, nr)));
  for (std::size_t v = 0; v < rhs.size(); ++v) {
    rhs[v] = mdd::virtual_source_rhs(data, static_cast<index_t>(v));
  }

  std::printf("serving %s: %d clients x %d requests (mode %s, %d workers, "
              "queue %zu)\n",
              path.c_str(), clients, requests, mode.c_str(), cfg.workers,
              cfg.queue_capacity);
  std::vector<serve::SolveResponse> responses(
      static_cast<std::size_t>(total));
  std::vector<char> submitted(static_cast<std::size_t>(total), 0);
  // Graceful drain: the first SIGINT/SIGTERM stops admission (clients
  // submit nothing new), every in-flight request runs to completion, and
  // the metrics/trace dumps below still happen.
  g_drain_requested = 0;
  struct sigaction drain_action = {};
  drain_action.sa_handler = drain_signal_handler;
  struct sigaction prev_int = {};
  struct sigaction prev_term = {};
  ::sigaction(SIGINT, &drain_action, &prev_int);
  ::sigaction(SIGTERM, &drain_action, &prev_term);
  WallTimer wall;
  {
    serve::SolveService service(cfg);
    // Live service view: repaint queue depth, completion counters, and the
    // rolling SLO window while the client pool runs.
    std::atomic<bool> watch_stop{false};
    std::thread watch_thread;
    if (watch_ms > 0) {
      watch_thread = std::thread([&] {
        const bool tty = ::isatty(1) != 0;
        while (!watch_stop.load(std::memory_order_relaxed)) {
          const auto snap = service.registry().snapshot();
          const auto win = service.slo_window();
          char line[256];
          std::snprintf(
              line, sizeof(line),
              "serve: queue %lld (peak %lld) | done %llu/%llu | slo "
              "window: %llu reqs, p50 %.3fs, p95 %.3fs, p99 %.3fs, "
              "burn %.2f\n",
              static_cast<long long>(snap.gauges.at("serve.queue_depth")),
              static_cast<long long>(snap.gauges.at("serve.queue_peak_depth")),
              static_cast<unsigned long long>(
                  snap.counters.at("serve.completed")),
              static_cast<unsigned long long>(
                  snap.counters.at("serve.submitted")),
              static_cast<unsigned long long>(win.count), win.p50_s,
              win.p95_s, win.p99_s, win.burn_rate);
          if (tty) std::printf("\033[2J\033[H");
          std::fputs(line, stdout);
          std::fflush(stdout);
          for (int spin = 0;
               spin * 25 < watch_ms &&
               !watch_stop.load(std::memory_order_relaxed);
               ++spin) {
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
          }
        }
      });
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (int r = 0; r < requests; ++r) {
          if (g_drain_requested != 0) break;  // admission stopped
          const int j = c * requests + r;
          const auto v = static_cast<std::size_t>(j) % rhs.size();
          serve::SolveRequest req;
          req.op = key;
          req.kind = kind_of(j);
          req.vsrc = static_cast<index_t>(v);
          req.rhs = rhs[v];
          req.lsqr.max_iters = iters;
          req.deadline_s = deadline_s;
          submitted[static_cast<std::size_t>(j)] = 1;
          // Closed loop: each client waits for its response before the
          // next submission.
          responses[static_cast<std::size_t>(j)] =
              service.submit(std::move(req)).get();
        }
      });
    }
    for (auto& t : pool) t.join();
    if (watch_thread.joinable()) {
      watch_stop.store(true, std::memory_order_relaxed);
      watch_thread.join();
    }
    ::sigaction(SIGINT, &prev_int, nullptr);
    ::sigaction(SIGTERM, &prev_term, nullptr);
    const bool drained = g_drain_requested != 0;
    int n_submitted = 0;
    for (const char s : submitted) n_submitted += s;
    if (drained) {
      std::printf("drain: signal received; %d of %d requests submitted, "
                  "in-flight work completed\n",
                  n_submitted, total);
    }
    const double elapsed = wall.seconds();

    // Quiescent snapshot (all clients joined): stdout, --metrics-out and
    // --health-out all render this one registry view.
    const auto m = service.metrics();
    const std::string metrics_json = m.snapshot.to_json();
    const auto count = [&m](const char* name) {
      return static_cast<unsigned long long>(m.snapshot.counters.at(name));
    };
    // Exact quantiles of this run's own answered requests.
    std::vector<double> latencies;
    for (int j = 0; j < total; ++j) {
      const auto& resp = responses[static_cast<std::size_t>(j)];
      if (submitted[static_cast<std::size_t>(j)] != 0 &&
          resp.status == serve::SolveStatus::kOk) {
        latencies.push_back(resp.total_s);
      }
    }
    const LatencySummary latency = summarize_latencies(latencies);
    std::printf("%s\n", metrics_json.c_str());
    std::printf("served %llu ok / %d submitted in %.2fs (%.1f req/s; "
                "latency p50 %.4fs, p99 %.4fs); rejected: %llu queue-full, "
                "%llu deadline, %llu missing; cache: %llu loads, %.0f%% hit "
                "rate\n",
                count("serve.completed"), n_submitted, elapsed,
                static_cast<double>(count("serve.completed")) / elapsed,
                latency.p50, latency.p99, count("serve.rejected_queue_full"),
                count("serve.rejected_deadline"),
                count("serve.rejected_archive_missing"),
                static_cast<unsigned long long>(m.cache.loads),
                100.0 * m.cache.hit_rate());

    if (!metrics_out.empty()) {
      const std::string text = obs::metrics_to_prometheus_text(m.snapshot);
      std::FILE* fh = std::fopen(metrics_out.c_str(), "wb");
      if (fh == nullptr) {
        std::fprintf(stderr, "serve: cannot write %s\n", metrics_out.c_str());
        return 2;
      }
      std::fwrite(text.data(), 1, text.size(), fh);
      std::fclose(fh);
      std::printf("metrics: wrote %zu bytes to %s\n", text.size(),
                  metrics_out.c_str());
    }

    if (!health_out.empty()) {
      // Single-process health view: the rolling SLO window plus the
      // registry snapshot (the cluster tier's fleet_health_json analogue).
      const std::string health = "{\"slo\":" +
                                 service.slo_window().to_json() +
                                 ",\"metrics\":" + metrics_json + "}";
      if (!write_text_file(health_out, health, "serve")) return 2;
      std::printf("health: wrote %zu bytes to %s\n", health.size(),
                  health_out.c_str());
    }

    if (verify) {
      // Sequential reference on a fresh operator instance: the service
      // must be bitwise identical per virtual source.
      const auto op = io::open_operator(path);
      TLRWSE_REQUIRE(op->num_receivers() == nr &&
                         op->num_sources() == data.num_sources(),
                     "archive does not match the survey geometry flags");
      std::map<std::pair<std::size_t, int>, std::vector<float>> reference;
      int mismatched = 0, errored = 0;
      for (int j = 0; j < total; ++j) {
        // A drain leaves later slots unsubmitted; only check real replies.
        if (submitted[static_cast<std::size_t>(j)] == 0) continue;
        const auto& resp = responses[static_cast<std::size_t>(j)];
        if (resp.status == serve::SolveStatus::kError) {
          std::fprintf(stderr, "request %d failed: %s\n", j,
                       resp.error.c_str());
          ++errored;
          continue;
        }
        if (resp.status != serve::SolveStatus::kOk) continue;
        const auto v = static_cast<std::size_t>(j) % rhs.size();
        const int kind = kind_of(j) == serve::RequestKind::kAdjoint ? 1 : 0;
        auto it = reference.find({v, kind});
        if (it == reference.end()) {
          std::vector<float> ref;
          if (kind == 1) {
            ref = mdd::adjoint_reflectivity(*op, rhs[v]);
          } else {
            mdd::LsqrConfig lsqr;
            lsqr.max_iters = iters;
            ref = mdd::solve_mdd(*op, rhs[v], lsqr).x;
          }
          it = reference.emplace(std::make_pair(v, kind), std::move(ref))
                   .first;
        }
        const auto& ref = it->second;
        if (resp.x.size() != ref.size() ||
            std::memcmp(resp.x.data(), ref.data(),
                        ref.size() * sizeof(float)) != 0) {
          std::fprintf(stderr,
                       "request %d (vsrc %zu): result differs from the "
                       "sequential solve\n",
                       j, v);
          ++mismatched;
        }
      }
      const bool load_once_ok =
          count("serve.completed") == 0 || m.cache.loads == 1;
      std::printf("verify: %d mismatches, %d errors, archive loads = %llu "
                  "(%s)\n",
                  mismatched, errored,
                  static_cast<unsigned long long>(m.cache.loads),
                  load_once_ok ? "loaded exactly once" : "EXPECTED 1");
      if (mismatched > 0 || errored > 0 || !load_once_ok) return 2;
    }
  }
  return 0;
}

/// Hidden worker half of `cluster`: serve one unix socket with a
/// ShardWorker until a kShutdown frame arrives. Exec'd by the driver via
/// /proc/self/exe — fork alone is not safe once OpenMP regions have run.
int cmd_cluster_worker(const Args& args) {
  const std::string sock = args.get("socket", "");
  if (sock.empty()) {
    std::fprintf(stderr, "cluster-worker: --socket is required\n");
    return 1;
  }
  cluster::ShardWorker worker;
  const auto server = cluster::SocketServer::listen_unix(
      sock, [&worker](const cluster::Frame& f) { return worker.handle(f); });
  while (!worker.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Grace period so the ShutdownOk reply flushes before the server stops.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->stop();
  std::error_code ec;
  std::filesystem::remove(sock, ec);
  return 0;
}

/// Multi-process cluster smoke driver: forks real worker processes behind
/// unix sockets, routes solves through the ClusterService front door, and
/// verifies every completed solve bitwise against the single-process
/// operator. With --kill-worker 1 it SIGKILLs one worker mid-run and
/// asserts typed degradation: responses are kOk (replanned onto the
/// survivors) or kWorkerFailed — never a hang, never an untyped error.
int cmd_cluster(const Args& args) {
  TLRWSE_TRACE_SPAN("cli.cluster", "cli");
  namespace fs = std::filesystem;
  // Consume every flag up front so early-exit paths don't misreport
  // recognised flags as typos.
  const std::string path = args.get("archive", "");
  const int workers = static_cast<int>(args.integer("workers", 3));
  const int requests = static_cast<int>(args.integer("requests", 6));
  const int iters = static_cast<int>(args.integer("iters", 8));
  const std::string mode = args.get("mode", "lsqr");
  const bool kill_worker = args.integer("kill-worker", 0) != 0;
  const bool verify = args.integer("verify", 1) != 0;
  const double replicate_mb = args.num("replicate-mb", 0.0);
  const std::string trace_merged_out = args.get("trace-merged-out", "");
  const std::string health_out = args.get("health-out", "");
  const int watch_ms = static_cast<int>(args.integer("watch", 0));
  const double slo_ms = args.num("slo-ms", 0.0);
  const std::string exemplar_dir = args.get("exemplar-dir", "");
  const auto dcfg = dataset_config(args);
  if (path.empty()) {
    std::fprintf(stderr, "cluster: --archive is required\n");
    return 1;
  }
  if (workers < 1 || requests < 1) {
    std::fprintf(stderr, "cluster: --workers/--requests must be >= 1\n");
    return 1;
  }
  if (mode != "lsqr" && mode != "adjoint") {
    std::fprintf(stderr, "cluster: --mode must be lsqr|adjoint\n");
    return 1;
  }

  const auto info = io::peek_archive(path);
  const auto data = seismic::build_dataset(dcfg);
  TLRWSE_REQUIRE(info.nt == data.config.nt,
                 "archive nt does not match the survey geometry flags");
  const index_t nr = data.num_receivers();

  // One process per worker. fork is immediately followed by exec, so the
  // children never touch this process's OpenMP/thread state.
  std::vector<pid_t> pids;
  std::vector<std::string> sockets;
  auto kill_all = [&pids] {
    for (const pid_t pid : pids) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  };
  for (int w = 0; w < workers; ++w) {
    const std::string sock =
        (fs::temp_directory_path() /
         ("tlrwse_cluster_" + std::to_string(::getpid()) + "_" +
          std::to_string(w) + ".sock"))
            .string();
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "cluster: fork failed\n");
      kill_all();
      return 2;
    }
    if (pid == 0) {
      ::execl("/proc/self/exe", "tlrwse_cli", "cluster-worker", "--socket",
              sock.c_str(), static_cast<char*>(nullptr));
      std::_Exit(127);  // exec failed; no cleanup in the child
    }
    pids.push_back(pid);
    sockets.push_back(sock);
  }

  std::vector<std::unique_ptr<cluster::WorkerClient>> fleet;
  for (int w = 0; w < workers; ++w) {
    std::unique_ptr<cluster::SocketChannel> chan;
    for (int attempt = 0; attempt < 400 && !chan; ++attempt) {
      try {
        chan = cluster::SocketChannel::connect_unix(
            sockets[static_cast<std::size_t>(w)], /*timeout_ms=*/60000);
      } catch (const cluster::TransportError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    if (!chan) {
      std::fprintf(stderr, "cluster: worker %d never came up\n", w);
      kill_all();
      return 2;
    }
    fleet.push_back(std::make_unique<cluster::WorkerClient>(
        std::move(chan), "worker" + std::to_string(w)));
  }
  std::printf("cluster: %d worker processes up (%s placement)\n", workers,
              replicate_mb > 0.0 ? "replicated-if-small" : "sharded");

  cluster::ClusterConfig ccfg;
  ccfg.planner.replicate_max_bytes = replicate_mb * 1024.0 * 1024.0;
  ccfg.slo.latency_objective_s = slo_ms / 1e3;
  ccfg.slo.exemplar_dir = exemplar_dir;
  int rc = 0;
  int killed_index = -1;
  std::vector<cluster::ClusterResponse> responses;
  {
    cluster::ClusterService service(ccfg, std::move(fleet));
    const serve::OperatorKey key{path, 0, 0.0};
    auto make_req = [&](int j, bool trace = false) {
      cluster::ClusterRequest req;
      req.op = key;
      req.kind = mode == "adjoint" ? serve::RequestKind::kAdjoint
                                   : serve::RequestKind::kLsqr;
      req.vsrc = static_cast<index_t>(j) % nr;
      req.rhs = mdd::virtual_source_rhs(data, req.vsrc);
      req.lsqr.max_iters = iters;
      req.trace = trace;
      return req;
    };

    // Live fleet view: a background poller drives kHealth frames against
    // every worker and repaints a top-like summary (cleared in-place on a
    // tty, appended when piped) until the run completes.
    std::atomic<bool> watch_stop{false};
    std::thread watch_thread;
    if (watch_ms > 0) {
      watch_thread = std::thread([&] {
        const bool tty = ::isatty(1) != 0;
        while (!watch_stop.load(std::memory_order_relaxed)) {
          const std::string view =
              format_fleet_view(service.fleet_health(), service.slo_window());
          if (tty) std::printf("\033[2J\033[H");
          std::fwrite(view.data(), 1, view.size(), stdout);
          std::fflush(stdout);
          for (int spin = 0;
               spin * 25 < watch_ms &&
               !watch_stop.load(std::memory_order_relaxed);
               ++spin) {
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
          }
        }
      });
    }

    // First request runs alone so a --kill-worker run kills a fleet with
    // a warm placement: mid-service, not mid-load. It is also the traced
    // request: quiescent, so the merged timeline is one clean solve.
    responses.push_back(
        service.submit(make_req(0, !trace_merged_out.empty())).response.get());
    if (!trace_merged_out.empty()) {
      if (responses.back().trace_json.empty()) {
        std::fprintf(stderr, "cluster: traced request produced no timeline "
                             "(status %s)\n",
                     cluster::to_string(responses.back().status));
        rc = 2;
      } else if (!write_text_file(trace_merged_out,
                                  responses.back().trace_json, "cluster")) {
        rc = 2;
      } else {
        std::printf("cluster: wrote merged trace (%zu bytes) to %s\n",
                    responses.back().trace_json.size(),
                    trace_merged_out.c_str());
      }
    }
    if (kill_worker) {
      killed_index = workers - 1;
      const pid_t victim = pids[static_cast<std::size_t>(killed_index)];
      ::kill(victim, SIGKILL);
      int status = 0;
      ::waitpid(victim, &status, 0);
      std::printf("cluster: killed worker %d (pid %ld) mid-run\n",
                  killed_index, static_cast<long>(victim));
    }
    std::vector<cluster::SubmittedRequest> handles;
    for (int j = 1; j < requests; ++j) {
      handles.push_back(service.submit(make_req(j)));
    }
    for (auto& h : handles) responses.push_back(h.response.get());

    if (kill_worker) {
      // The kWorkerFailed solves above dropped the cached placement; this
      // request must replan onto the survivors and succeed.
      auto recovered = service.submit(make_req(requests)).response.get();
      std::printf("cluster: post-kill replan request -> %s\n",
                  cluster::to_string(recovered.status));
      if (recovered.status != cluster::ClusterStatus::kOk) rc = 2;
      responses.push_back(std::move(recovered));
    }

    if (watch_thread.joinable()) {
      watch_stop.store(true, std::memory_order_relaxed);
      watch_thread.join();
    }

    // Health snapshot while the workers are still up: per-worker shard
    // ownership, resident/streamed bytes, stall totals, and the frontend's
    // rolling SLO window, in one JSON document.
    if (!health_out.empty()) {
      const std::string health = service.fleet_health_json();
      if (!write_text_file(health_out, health, "cluster")) {
        rc = 2;
      } else {
        std::printf("cluster: wrote fleet health (%zu bytes) to %s\n",
                    health.size(), health_out.c_str());
      }
    }

    std::printf("%s\n", service.cluster_snapshot().to_json().c_str());
    service.shutdown();
  }

  int ok = 0, failed_typed = 0, other = 0;
  for (const auto& r : responses) {
    if (r.status == cluster::ClusterStatus::kOk) {
      ++ok;
    } else if (r.status == cluster::ClusterStatus::kWorkerFailed) {
      ++failed_typed;
    } else {
      ++other;
      std::fprintf(stderr, "cluster: request %llu -> %s: %s\n",
                   static_cast<unsigned long long>(r.request_id),
                   cluster::to_string(r.status), r.error.c_str());
    }
  }
  std::printf("cluster: %d ok, %d worker-failed, %d other of %zu requests\n",
              ok, failed_typed, other, responses.size());
  // Typed degradation contract: every response resolved (no hang by
  // construction of the futures above), none with an untyped status, and
  // the fleet kept serving — even a kill leaves the replanned survivors
  // answering later requests.
  if (other > 0 || ok == 0) rc = 2;
  if (!kill_worker && failed_typed > 0) rc = 2;

  if (verify && rc == 0) {
    // Single-process reference on a fresh operator: distributed solves
    // must be bitwise identical per virtual source.
    const auto op = io::open_operator(path);
    std::map<index_t, std::vector<float>> reference;
    int mismatched = 0;
    for (const auto& r : responses) {
      if (r.status != cluster::ClusterStatus::kOk) continue;
      auto it = reference.find(r.vsrc);
      if (it == reference.end()) {
        const auto rhs_v = mdd::virtual_source_rhs(data, r.vsrc);
        std::vector<float> ref;
        if (mode == "adjoint") {
          ref = mdd::adjoint_reflectivity(*op, rhs_v);
        } else {
          mdd::LsqrConfig lsqr;
          lsqr.max_iters = iters;
          ref = mdd::solve_mdd(*op, rhs_v, lsqr).x;
        }
        it = reference.emplace(r.vsrc, std::move(ref)).first;
      }
      const auto& ref = it->second;
      if (r.x.size() != ref.size() ||
          std::memcmp(r.x.data(), ref.data(),
                      ref.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "cluster: vsrc %lld differs from the single-process "
                     "solve\n",
                     static_cast<long long>(r.vsrc));
        ++mismatched;
      }
    }
    std::printf("verify: %d mismatches across %d completed solves\n",
                mismatched, ok);
    if (mismatched > 0) rc = 2;
  }

  // shutdown() asked the surviving workers to exit; reap them, escalating
  // to SIGKILL if one lingers.
  for (std::size_t w = 0; w < pids.size(); ++w) {
    if (static_cast<int>(w) == killed_index) continue;  // already reaped
    int status = 0;
    pid_t reaped = 0;
    for (int spin = 0; spin < 200 && reaped == 0; ++spin) {
      reaped = ::waitpid(pids[w], &status, WNOHANG);
      if (reaped == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    if (reaped == 0) {
      ::kill(pids[w], SIGKILL);
      ::waitpid(pids[w], &status, 0);
    }
  }
  for (const auto& sock : sockets) {
    std::error_code ec;
    fs::remove(sock, ec);
  }
  return rc;
}

/// End-to-end observability demo: model a small survey, archive it, drive
/// two requests through the solve service (which exercises the cache, the
/// LSQR solver, the MDC operator, and the TLR kernels), and dump both the
/// chrome://tracing file and the process-wide metrics snapshot.
int cmd_trace(const Args& args) {
  if (!obs::Tracer::enabled()) {
    obs::Tracer::instance().enable(obs::Tracer::kDefaultCapacity,
                                   /*detail=*/true);
  }
  obs::Tracer::instance().set_thread_name("main");
  TLRWSE_TRACE_SPAN("cli.trace", "cli");
  const std::string out = args.get("out", "trace.json");
  const int iters = static_cast<int>(args.integer("iters", 5));
  const auto data = seismic::build_dataset(dataset_config(args));

  namespace fs = std::filesystem;
  const fs::path tmp =
      fs::temp_directory_path() /
      ("tlrwse_trace_" + std::to_string(::getpid()) + ".tlra");
  {
    TLRWSE_TRACE_SPAN("cli.trace.archive", "cli");
    const auto archive = io::build_archive(data, compression_config(args));
    io::save_archive(tmp.string(), archive);
  }

  int rc = 0;
  {
    serve::ServiceConfig cfg;
    cfg.workers = 2;
    serve::SolveService service(cfg);
    const serve::OperatorKey key{tmp.string(), 0, 0.0};
    std::vector<std::future<serve::SolveResponse>> futures;
    const index_t nreq = std::min<index_t>(2, data.num_receivers());
    for (index_t v = 0; v < nreq; ++v) {
      serve::SolveRequest req;
      req.op = key;
      req.vsrc = v;
      req.rhs = mdd::virtual_source_rhs(data, v);
      req.lsqr.max_iters = iters;
      futures.push_back(service.submit(std::move(req)));
    }
    for (auto& f : futures) {
      const auto resp = f.get();
      if (resp.status != serve::SolveStatus::kOk) {
        std::fprintf(stderr, "trace: request failed (%s): %s\n",
                     serve::to_string(resp.status), resp.error.c_str());
        rc = 2;
      }
    }
  }
  fs::remove(tmp);
  if (rc != 0) return rc;

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  if (!tracer.write_json(out)) {
    std::fprintf(stderr, "trace: cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("trace: wrote %zu events to %s (%llu dropped)\n",
              tracer.event_count(), out.c_str(),
              static_cast<unsigned long long>(tracer.dropped_count()));
  std::printf("%s\n",
              obs::MetricsRegistry::instance().snapshot().to_json().c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: tlrwse_cli "
               "<synth|compress|info|mvm|simulate|mdd|archive|solve|serve|"
               "cluster|trace> [--flag value ...] [--trace-out trace.json]\n"
               "see the header of tools/tlrwse_cli.cpp for the flag list\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    // --trace-out records the whole command with the scoped-span tracer and
    // dumps chrome://tracing JSON on success (any command, not just trace).
    const std::string trace_out = args.get("trace-out", "");
    if (!trace_out.empty()) {
      tlrwse::obs::Tracer::instance().enable(
          tlrwse::obs::Tracer::kDefaultCapacity, /*detail=*/true);
      tlrwse::obs::Tracer::instance().set_thread_name("main");
    }
    int rc = -1;
    if (cmd == "synth") rc = cmd_synth(args);
    else if (cmd == "compress") rc = cmd_compress(args);
    else if (cmd == "info") rc = cmd_info(args);
    else if (cmd == "mvm") rc = cmd_mvm(args);
    else if (cmd == "simulate") rc = cmd_simulate(args);
    else if (cmd == "mdd") rc = cmd_mdd(args);
    else if (cmd == "archive") rc = cmd_archive(args);
    else if (cmd == "solve") rc = cmd_solve(args);
    else if (cmd == "serve") rc = cmd_serve(args);
    else if (cmd == "cluster") rc = cmd_cluster(args);
    else if (cmd == "cluster-worker") rc = cmd_cluster_worker(args);
    else if (cmd == "trace") rc = cmd_trace(args);
    if (rc == -1) {
      usage();
      return 1;
    }
    if (!trace_out.empty() && rc == 0) {
      auto& tracer = tlrwse::obs::Tracer::instance();
      tracer.disable();
      if (!tracer.write_json(trace_out)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     trace_out.c_str());
        return 2;
      }
      std::printf("trace: wrote %zu events to %s (%llu dropped)\n",
                  tracer.event_count(), trace_out.c_str(),
                  static_cast<unsigned long long>(tracer.dropped_count()));
    }
    if (rc == 0) {
      // A flag nothing consumed is a typo, not a no-op.
      const auto leftover = args.unconsumed();
      if (!leftover.empty()) {
        std::fprintf(stderr, "error: flag(s) not recognised by %s:",
                     cmd.c_str());
        for (const auto& key : leftover) {
          std::fprintf(stderr, " --%s", key.c_str());
        }
        std::fprintf(stderr, "\n");
        return 1;
      }
    }
    return rc;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failure: %s\n", e.what());
    return 2;
  }
}
