// Forked unix-socket ShardWorker processes with a readiness handshake.
//
// Each worker is fork+exec'd from this binary (`perfbench worker`), binds
// its socket, and only then writes one byte to a pipe the parent holds;
// the parent blocks on that pipe instead of polling connect(), so fleet
// start-up time has no sleep quantum in it. Workers die with the parent
// (PR_SET_PDEATHSIG) and are reaped by the destructor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tlrwse/cluster/transport.hpp"

namespace perfbench {

class Fleet {
 public:
  /// Spawns `workers` processes with OMP_NUM_THREADS=`omp_threads`, each
  /// on socket `<socket_dir>/w<parent pid>_<i>.sock`, waits for every
  /// readiness byte, and connects one channel per worker.
  Fleet(int workers, int omp_threads, const std::string& socket_dir);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The connected channels, in worker order (callable once).
  [[nodiscard]] std::vector<std::unique_ptr<tlrwse::cluster::Channel>>
  take_channels();
  /// Sum of the workers' peak RSS (VmHWM) in MiB, while they are alive.
  [[nodiscard]] double peak_rss_mib() const;
  /// Waits up to `timeout_s` for the workers to exit (after a cluster
  /// shutdown asked them to), then kills and reaps any that remain.
  void reap(double timeout_s);

 private:
  std::vector<int> pids_;
  std::vector<std::string> sockets_;
  std::vector<std::unique_ptr<tlrwse::cluster::Channel>> channels_;
};

}  // namespace perfbench
