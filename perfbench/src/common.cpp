#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "tlrwse/common/rng.hpp"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + flag + "'");
    }
    kv_[flag.substr(2)] = argv[++i];
  }
}

std::string Args::str(const std::string& key, const std::string& def) {
  used_[key] = true;
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

long long Args::integer(const std::string& key, long long def) {
  const std::string v = str(key, "");
  return v.empty() ? def : std::stoll(v);
}

double Args::num(const std::string& key, double def) {
  const std::string v = str(key, "");
  return v.empty() ? def : std::stod(v);
}

void Args::finish() const {
  for (const auto& [k, v] : kv_) {
    if (!used_.count(k)) throw std::invalid_argument("unknown flag --" + k);
  }
}

void write_manifest(const std::string& dir, const Manifest& m) {
  std::ofstream os(dir + "/manifest.txt");
  os.precision(17);
  os << "nsx " << m.nsx << "\nnsy " << m.nsy << "\nnrx " << m.nrx
     << "\nnry " << m.nry << "\nnt " << m.nt << "\nnb " << m.nb << "\nacc "
     << m.acc << "\nlsqr_iters " << m.lsqr_iters << "\ncandidates "
     << m.candidates << "\nns " << m.ns << "\nnr " << m.nr << "\nnfreq "
     << m.nfreq << "\npayload_fp32 " << m.payload_fp32 << "\npayload_bf16 "
     << m.payload_bf16 << "\nvsrc";
  for (const index_t v : m.vsrc) os << ' ' << v;
  os << '\n';
  if (!os) throw std::runtime_error("cannot write manifest in " + dir);
}

Manifest read_manifest(const std::string& dir) {
  std::ifstream is(dir + "/manifest.txt");
  if (!is) throw std::runtime_error("no prepared inputs in " + dir);
  Manifest m;
  std::string key;
  while (is >> key) {
    if (key == "vsrc") {
      m.vsrc.resize(static_cast<std::size_t>(m.candidates));
      for (auto& v : m.vsrc) is >> v;
      continue;
    }
    double v = 0.0;
    is >> v;
    if (key == "nsx") m.nsx = static_cast<index_t>(v);
    else if (key == "nsy") m.nsy = static_cast<index_t>(v);
    else if (key == "nrx") m.nrx = static_cast<index_t>(v);
    else if (key == "nry") m.nry = static_cast<index_t>(v);
    else if (key == "nt") m.nt = static_cast<index_t>(v);
    else if (key == "nb") m.nb = static_cast<index_t>(v);
    else if (key == "acc") m.acc = v;
    else if (key == "lsqr_iters") m.lsqr_iters = static_cast<int>(v);
    else if (key == "candidates") m.candidates = static_cast<index_t>(v);
    else if (key == "ns") m.ns = static_cast<index_t>(v);
    else if (key == "nr") m.nr = static_cast<index_t>(v);
    else if (key == "nfreq") m.nfreq = static_cast<index_t>(v);
    else if (key == "payload_fp32") m.payload_fp32 = v;
    else if (key == "payload_bf16") m.payload_bf16 = v;
  }
  if (m.candidates <= 0 ||
      static_cast<index_t>(m.vsrc.size()) != m.candidates) {
    throw std::runtime_error("malformed manifest in " + dir);
  }
  return m;
}

std::string archive_path(const std::string& dir, bool bf16) {
  return dir + (bf16 ? "/survey_bf16.tlra" : "/survey_fp32.tlra");
}

std::string rows_path(const std::string& dir, const std::string& kind) {
  return dir + "/" + kind + ".f32";
}

void append_row(const std::string& path, const std::vector<float>& row) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os.write(reinterpret_cast<const char*>(row.data()),
           static_cast<std::streamsize>(row.size() * sizeof(float)));
  if (!os) throw std::runtime_error("cannot append to " + path);
}

std::vector<float> read_row(const std::string& path, std::size_t len,
                            index_t i) {
  std::ifstream is(path, std::ios::binary);
  std::vector<float> row(len);
  is.seekg(static_cast<std::streamoff>(static_cast<std::size_t>(i) * len *
                                       sizeof(float)));
  is.read(reinterpret_cast<char*>(row.data()),
          static_cast<std::streamsize>(len * sizeof(float)));
  if (!is) throw std::runtime_error("short read of " + path);
  return row;
}

namespace {

// splitmix64: the request-order hash (seed, k) -> pool slot.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RequestSet::RequestSet(const std::string& dir, const Manifest& m,
                       std::uint64_t seed, index_t pool_size, bool adjoint)
    : seed_(seed) {
  if (pool_size < 1 || pool_size > m.candidates) {
    throw std::invalid_argument("pool size out of range");
  }
  std::vector<index_t> order(static_cast<std::size_t>(m.candidates));
  std::iota(order.begin(), order.end(), index_t{0});
  tlrwse::Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng.engine());
  order.resize(static_cast<std::size_t>(pool_size));
  std::sort(order.begin(), order.end());
  for (const index_t c : order) {
    PoolEntry e;
    e.vsrc = m.vsrc[static_cast<std::size_t>(c)];
    e.rhs = read_row(rows_path(dir, "rhs"), m.rhs_len(), c);
    e.reference = read_row(rows_path(dir, adjoint ? "adjoint_ref" : "lsqr_ref"),
                           m.x_len(), c);
    e.truth = read_row(rows_path(dir, "truth"), m.x_len(), c);
    pool_.push_back(std::move(e));
  }
}

std::size_t RequestSet::slot(std::uint64_t k) const {
  return mix(seed_ ^ mix(k)) % pool_.size();
}

std::uint64_t RequestSet::first_k(std::size_t s) const {
  for (std::uint64_t k = 0; k < (std::uint64_t{1} << 24); ++k) {
    if (slot(k) == s) return k;
  }
  throw std::logic_error("no request asks for pool entry " + std::to_string(s));
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kib = 0.0;
      ls >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](float x, float y) {
           return std::memcmp(&x, &y, sizeof(float)) == 0;
         });
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + k + "\":";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, long long v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + v + "\"";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
