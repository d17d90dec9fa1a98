#include "fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "tlrwse/cluster/worker.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

void kill_and_reap(std::vector<int>& pids) {
  for (const int pid : pids) ::kill(pid, SIGKILL);
  for (const int pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  pids.clear();
}

}  // namespace

Fleet::Fleet(int workers, int omp_threads, const std::string& socket_dir) {
  std::filesystem::create_directories(socket_dir);
  // Everything the children need is built before fork: the child only
  // makes async-signal-safe calls before exec.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_NUM_THREADS=", 16) != 0) env.emplace_back(*e);
  }
  env.push_back("OMP_NUM_THREADS=" + std::to_string(omp_threads));
  std::vector<char*> envp;
  for (auto& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::vector<int> ready_fds;
  try {
    for (int w = 0; w < workers; ++w) {
      const std::string sock = socket_dir + "/w" + std::to_string(::getpid()) +
                               "_" + std::to_string(w) + ".sock";
      std::filesystem::remove(sock);
      int fds[2];
      if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
      std::string fd_arg = std::to_string(fds[1]);
      std::string sock_arg = sock;
      std::string a0 = "perfbench", a1 = "worker", a2 = "--socket",
                  a4 = "--ready-fd";
      char* argv[] = {a0.data(), a1.data(), a2.data(), sock_arg.data(),
                      a4.data(), fd_arg.data(), nullptr};
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("fork failed");
      }
      if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::fcntl(fds[1], F_SETFD, 0);  // the one fd the worker inherits
        ::execve("/proc/self/exe", argv, envp.data());
        ::_exit(127);
      }
      ::close(fds[1]);
      pids_.push_back(pid);
      sockets_.push_back(sock);
      ready_fds.push_back(fds[0]);
    }
    for (std::size_t w = 0; w < ready_fds.size(); ++w) {
      pollfd p{ready_fds[w], POLLIN, 0};
      char byte = 0;
      const bool ready =
          ::poll(&p, 1, 60000) == 1 && ::read(ready_fds[w], &byte, 1) == 1;
      if (!ready) {
        throw std::runtime_error("worker " + std::to_string(w) +
                                 " exited or timed out before listening");
      }
    }
    for (const auto& sock : sockets_) {
      channels_.push_back(
          tlrwse::cluster::SocketChannel::connect_unix(sock, 60000));
    }
  } catch (...) {
    for (const int fd : ready_fds) ::close(fd);
    kill_and_reap(pids_);
    throw;
  }
  for (const int fd : ready_fds) ::close(fd);
}

Fleet::~Fleet() {
  kill_and_reap(pids_);
  for (const auto& sock : sockets_) {
    std::error_code ec;
    std::filesystem::remove(sock, ec);
  }
}

std::vector<std::unique_ptr<tlrwse::cluster::Channel>> Fleet::take_channels() {
  return std::move(channels_);
}

double Fleet::peak_rss_mib() const {
  double sum = 0.0;
  for (const int pid : pids_) sum += perfbench::peak_rss_mib(pid);
  return sum;
}

void Fleet::reap(double timeout_s) {
  const auto t0 = Clock::now();
  std::vector<int> left;
  do {
    left.clear();
    for (const int pid : pids_) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == 0) left.push_back(pid);
    }
    pids_ = left;
    if (pids_.empty()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (seconds_since(t0) < timeout_s);
  kill_and_reap(pids_);
}

int cmd_worker(Args& args) {
  const std::string sock = args.str("socket", "");
  const int ready_fd = static_cast<int>(args.integer("ready-fd", -1));
  args.finish();
  if (sock.empty() || ready_fd < 0) {
    throw std::invalid_argument("worker: --socket and --ready-fd are required");
  }
  tlrwse::cluster::ShardWorker worker;
  const auto server = tlrwse::cluster::SocketServer::listen_unix(
      sock, [&worker](const tlrwse::cluster::Frame& f) {
        return worker.handle(f);
      });
  const char byte = 1;
  const bool signalled = ::write(ready_fd, &byte, 1) == 1;
  ::close(ready_fd);
  if (!signalled) return 1;
  while (!worker.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Let the ShutdownOk reply flush before the server closes connections.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->stop();
  std::error_code ec;
  std::filesystem::remove(sock, ec);
  return 0;
}

}  // namespace perfbench
