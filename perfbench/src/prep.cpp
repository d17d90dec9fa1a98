// `perfbench prep`: the one-off input generator. Synthesises the survey,
// writes the fp32 archive and its bf16 copy, and stores, for a fixed set
// of candidate virtual sources, the right-hand side, the true reflectivity
// and the reference answers (sequential resident LSQR on the fp32
// archive, adjoint on the bf16 archive). Measured runs only read these
// files, so their set-up time and memory describe the system, not this
// generator.
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/seismic/modeling.hpp"
#include "workloads.hpp"

namespace perfbench {

// The survey: 48x32 sources x 32x24 receivers, nt 256, tiles of 48 at acc
// 1e-4 (27 frequencies, ~138 MB compressed fp32, >= 4x a 32 MiB LLC), 32
// candidate virtual sources, and the short fixed LSQR budget of both LSQR
// workloads.
constexpr index_t kNsx = 48, kNsy = 32, kNrx = 32, kNry = 24;
constexpr index_t kNt = 256, kNb = 48;
constexpr double kAcc = 1e-4;
constexpr int kLsqrIters = 1;
constexpr index_t kCandidates = 32;

int cmd_prep(Args& args) {
  const std::string dir = args.str("dir", "");
  args.finish();
  if (dir.empty()) throw std::invalid_argument("prep: --dir is required");
  Manifest m;
  m.nsx = kNsx;
  m.nsy = kNsy;
  m.nrx = kNrx;
  m.nry = kNry;
  m.nt = kNt;
  m.nb = kNb;
  m.acc = kAcc;
  m.lsqr_iters = kLsqrIters;
  m.candidates = kCandidates;
  std::filesystem::create_directories(dir);
  for (const char* kind : {"rhs", "truth", "lsqr_ref", "adjoint_ref"}) {
    std::filesystem::remove(rows_path(dir, kind));
  }

  const auto t0 = Clock::now();
  tlrwse::seismic::DatasetConfig dcfg;
  dcfg.geometry =
      tlrwse::seismic::AcquisitionGeometry::small_scale(m.nsx, m.nsy, m.nrx, m.nry);
  dcfg.nt = m.nt;
  dcfg.f_min = 3.0;
  dcfg.f_max = 30.0;
  const auto data = tlrwse::seismic::build_dataset(dcfg);
  m.ns = data.num_sources();
  m.nr = data.num_receivers();
  m.nfreq = data.num_freqs();
  if (m.candidates > m.nr) throw std::invalid_argument("too many candidates");

  tlrwse::tlr::CompressionConfig cc;
  cc.nb = m.nb;
  cc.acc = m.acc;
  {
    tlrwse::io::KernelArchive archive = tlrwse::io::build_archive(data, cc);
    m.payload_fp32 = archive.compressed_bytes();
    tlrwse::io::save_archive(archive_path(dir, false), archive);
    tlrwse::tlr::MixedPrecisionPolicy all_bf16;
    all_bf16.fp16_below = 2.0;  // every tile's relative norm is <= 1
    all_bf16.bf16_below = 2.0;
    tlrwse::io::quantize_archive(archive, all_bf16);
    m.payload_bf16 = archive.compressed_bytes();
    tlrwse::io::save_archive(archive_path(dir, true), archive);
  }
  std::printf("prep: survey %lld sources x %lld receivers, %lld frequencies, "
              "payload %.1f MB fp32 / %.1f MB bf16 (%.1f s)\n",
              static_cast<long long>(m.ns), static_cast<long long>(m.nr),
              static_cast<long long>(m.nfreq), m.payload_fp32 / 1e6,
              m.payload_bf16 / 1e6, seconds_since(t0));

  // References come from the archives as saved, through the same loaders
  // the measured systems use.
  const auto fp32_op =
      tlrwse::io::make_operator(tlrwse::io::load_archive(archive_path(dir, false)));
  const auto bf16_op =
      tlrwse::io::make_operator(tlrwse::io::load_archive(archive_path(dir, true)));
  tlrwse::mdd::LsqrConfig lsqr;
  lsqr.max_iters = m.lsqr_iters;
  for (index_t c = 0; c < m.candidates; ++c) {
    // Evenly spread over the receiver line, offset into the interior.
    const index_t v = (2 * c + 1) * m.nr / (2 * m.candidates);
    m.vsrc.push_back(v);
    const std::vector<float> rhs = tlrwse::mdd::virtual_source_rhs(data, v);
    append_row(rows_path(dir, "rhs"), rhs);
    append_row(rows_path(dir, "truth"),
               tlrwse::mdd::true_reflectivity_traces(data, v));
    append_row(rows_path(dir, "lsqr_ref"),
               tlrwse::mdd::solve_mdd(*fp32_op, rhs, lsqr).x);
    append_row(rows_path(dir, "adjoint_ref"),
               tlrwse::mdd::adjoint_reflectivity(*bf16_op, rhs));
  }
  write_manifest(dir, m);
  std::printf("prep: %lld candidate sources with %d-iteration LSQR and "
              "adjoint references (%.1f s total)\n",
              static_cast<long long>(m.candidates), m.lsqr_iters,
              seconds_since(t0));
  return 0;
}

}  // namespace perfbench
