// Solve-service throughput/latency sweep over closed-loop client counts.
//
// Builds a small synthetic survey, archives it, then for each client count
// runs a fresh SolveService and hammers it with closed-loop clients (each
// waits for its response before sending the next request). The operator is
// made resident by a warm-up request, so the sweep measures the serving
// path — admission, batching, solve — not the one-time archive load. One
// JSON line per client count carries requests/s, the batching counters of
// the service's registry snapshot, and exact p50/p95/p99 latency computed
// from the timed responses themselves (warm-up excluded). Usage:
//
//   ./bench_serve_throughput [max_clients] [requests_per_client]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "tlrwse/common/stats.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/serve/solve_service.hpp"

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

struct SweepPoint {
  int clients = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double wall_s = 0.0;
  serve::ServiceMetrics metrics;
  LatencySummary latency;     // admission -> response of the timed kOk replies
  LatencySummary queue_wait;  // admission -> dequeue of the same replies
};

SweepPoint run_point(const serve::OperatorKey& key,
                     const seismic::SeismicDataset& data, int clients,
                     int per_client) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = static_cast<std::size_t>(clients) * 2;
  serve::SolveService service(cfg);

  const index_t nvsrc = std::min<index_t>(4, data.num_receivers());
  std::vector<std::vector<float>> rhs;
  for (index_t v = 0; v < nvsrc; ++v) {
    rhs.push_back(mdd::virtual_source_rhs(data, v));
  }
  const auto request = [&](int j) {
    serve::SolveRequest req;
    req.op = key;
    req.kind = serve::RequestKind::kLsqr;
    req.vsrc = j % nvsrc;
    req.rhs = rhs[static_cast<std::size_t>(req.vsrc)];
    req.lsqr.max_iters = 10;
    return req;
  };

  // Warm-up: one request makes the operator resident so the timed region
  // measures serving, not the archive load.
  (void)service.submit(request(0)).get();

  WallTimer timer;
  std::vector<serve::SolveResponse> responses(
      static_cast<std::size_t>(clients * per_client));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < per_client; ++r) {
        const int j = c * per_client + r;
        responses[static_cast<std::size_t>(j)] =
            service.submit(request(j)).get();
      }
    });
  }
  for (auto& t : threads) t.join();

  SweepPoint p;
  p.clients = clients;
  p.wall_s = timer.seconds();
  p.metrics = service.metrics();
  const auto& counters = p.metrics.snapshot.counters;
  p.completed = counters.at("serve.completed") - 1;  // minus the warm-up
  p.rejected = counters.at("serve.rejected_queue_full") +
               counters.at("serve.rejected_deadline");
  std::vector<double> latency, queue_wait;
  for (const auto& r : responses) {
    if (r.status != serve::SolveStatus::kOk) continue;
    latency.push_back(r.total_s);
    queue_wait.push_back(r.queue_wait_s);
  }
  p.latency = summarize_latencies(latency);
  p.queue_wait = summarize_latencies(queue_wait);
  return p;
}

void print_point(const SweepPoint& p) {
  const auto& counters = p.metrics.snapshot.counters;
  const double rps =
      p.wall_s > 0.0 ? static_cast<double>(p.completed) / p.wall_s : 0.0;
  std::cout << "{\"clients\":" << p.clients << ",\"completed\":" << p.completed
            << ",\"rejected\":" << p.rejected << ",\"wall_s\":" << p.wall_s
            << ",\"requests_per_sec\":" << rps
            << ",\"batches\":" << counters.at("serve.batches")
            << ",\"coalesced_requests\":" << counters.at("serve.coalesced")
            << ",\"cache_hit_rate\":" << p.metrics.cache.hit_rate()
            << ",\"latency_p50_s\":" << p.latency.p50
            << ",\"latency_p95_s\":" << p.latency.p95
            << ",\"latency_p99_s\":" << p.latency.p99
            << ",\"latency_mean_s\":" << p.latency.mean
            << ",\"queue_wait_p95_s\":" << p.queue_wait.p95 << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  int max_clients = argc > 1 ? std::atoi(argv[1]) : 16;
  int per_client = argc > 2 ? std::atoi(argv[2]) : 4;
  if (max_clients < 1) max_clients = 1;
  if (per_client < 1) per_client = 1;

  const auto data = build_data();
  tlr::CompressionConfig cc;
  cc.nb = 12;
  cc.acc = 1e-4;
  const std::string archive =
      (std::filesystem::temp_directory_path() / "tlrwse_bench_serve.tlra")
          .string();
  io::save_archive(archive, io::build_archive(data, cc));
  const serve::OperatorKey key{archive, cc.nb, cc.acc};

  std::cout << "{\"bench\":\"serve_throughput\",\"nt\":" << data.config.nt
            << ",\"num_freq\":" << data.num_freqs()
            << ",\"ns\":" << data.num_sources() << ",\"nr\":" << data.num_receivers()
            << ",\"workers\":4,\"lsqr_iters\":10,\"requests_per_client\":"
            << per_client << "," << bench::json_meta_fields() << "}\n";

  std::vector<int> sweep{1};
  for (int c = 2; c <= max_clients; c *= 2) sweep.push_back(c);
  if (sweep.back() != max_clients) sweep.push_back(max_clients);

  for (int clients : sweep) {
    print_point(run_point(key, data, clients, per_client));
  }

  std::remove(archive.c_str());
  return 0;
}
