// Shared plumbing of the solve benchmark: argument parsing, the prepared
// input set, timing helpers and process-memory probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tlrwse/common/types.hpp"

namespace perfbench {

using tlrwse::index_t;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `--key value` pairs after the subcommand. Unknown keys are an error at
/// the end of parsing (see finish()).
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& def);
  [[nodiscard]] long long integer(const std::string& key, long long def);
  [[nodiscard]] double num(const std::string& key, double def);
  /// Throws when a flag was given that no accessor consumed.
  void finish() const;

 private:
  std::map<std::string, std::string> kv_;
  std::map<std::string, bool> used_;
};

/// The survey and request inputs written once by `perfbench prep`. Every
/// per-source array holds `candidates` rows, row i belonging to virtual
/// source `vsrc[i]`.
struct Manifest {
  index_t nsx = 0, nsy = 0, nrx = 0, nry = 0;
  index_t nt = 0, nb = 0;
  double acc = 0.0;
  int lsqr_iters = 0;
  index_t candidates = 0;
  index_t ns = 0;  // sources (rhs traces)
  index_t nr = 0;  // receivers (answer traces)
  index_t nfreq = 0;
  double payload_fp32 = 0.0;  // compressed payload bytes of each archive
  double payload_bf16 = 0.0;
  std::vector<index_t> vsrc;

  [[nodiscard]] std::size_t rhs_len() const {
    return static_cast<std::size_t>(nt * ns);
  }
  [[nodiscard]] std::size_t x_len() const {
    return static_cast<std::size_t>(nt * nr);
  }
};

void write_manifest(const std::string& dir, const Manifest& m);
[[nodiscard]] Manifest read_manifest(const std::string& dir);

/// Paths of the prepared files inside the input directory.
[[nodiscard]] std::string archive_path(const std::string& dir, bool bf16);
[[nodiscard]] std::string rows_path(const std::string& dir,
                                    const std::string& kind);

/// Appends one row of floats to a raw row file.
void append_row(const std::string& path, const std::vector<float>& row);
/// Reads row `i` (of `len` floats) of a raw row file.
[[nodiscard]] std::vector<float> read_row(const std::string& path,
                                          std::size_t len, index_t i);

/// One request a client may send: the arrays the measured process needs.
struct PoolEntry {
  index_t vsrc = 0;
  std::vector<float> rhs;
  std::vector<float> reference;  // bitwise expected answer
  std::vector<float> truth;      // true reflectivity traces
};

/// The seeded request set of one run: `pool_size` distinct candidates
/// drawn by `seed`, and a seeded request order over them (request k of
/// the run asks for pool entry slot(k)). `adjoint` selects the adjoint
/// references instead of the LSQR ones.
class RequestSet {
 public:
  RequestSet(const std::string& dir, const Manifest& m, std::uint64_t seed,
             index_t pool_size, bool adjoint);
  [[nodiscard]] std::size_t size() const { return pool_.size(); }
  [[nodiscard]] std::size_t slot(std::uint64_t k) const;
  /// The first request number that asks for pool entry `slot`.
  [[nodiscard]] std::uint64_t first_k(std::size_t slot) const;
  [[nodiscard]] const PoolEntry& entry(std::uint64_t k) const {
    return pool_[slot(k)];
  }

 private:
  std::vector<PoolEntry> pool_;
  std::uint64_t seed_;
};

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 = this process.
[[nodiscard]] double peak_rss_mib(int pid = 0);

[[nodiscard]] bool bitwise_equal(const std::vector<float>& a,
                                 const std::vector<float>& b);

/// Linear-interpolated quantile of a sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Minimal ordered JSON object writer for the result lines.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, long long v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

}  // namespace perfbench
