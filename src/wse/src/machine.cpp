#include "tlrwse/wse/machine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <vector>

#include "tlrwse/common/error.hpp"

namespace tlrwse::wse {

obs::FlightRecorderConfig flight_config_for(const WseSpec& spec) {
  obs::FlightRecorderConfig cfg;
  cfg.pes_per_system = spec.usable_pes();
  cfg.fabric_cols = spec.usable_cols;
  cfg.clock_hz = spec.clock_hz;
  return cfg;
}

ClusterReport simulate_cluster(const RankSource& source,
                               const ClusterConfig& cfg) {
  ClusterReport rep;
  const double call = cfg.cost.cycles_per_call;
  index_t pe_index = 0;  // running PE id for the flight recorder

  for_each_chunk(source, cfg.stack_width, [&](const Chunk& c) {
    ++rep.chunks;
    const auto shapes = chunk_mvm_shapes(c);

    if (cfg.strategy == Strategy::kSplitStackWidth) {
      // One PE executes all eight MVMs back to back.
      PeWork pe;
      for (const auto& s : shapes) pe.add_mvm(cfg.cost, s);
      pe.cycles += call;
      const double sram = static_cast<double>(chunk_sram_bytes_strategy1(c));
      rep.worst_cycles = std::max(rep.worst_cycles, pe.cycles);
      rep.relative_bytes += pe.relative_bytes;
      rep.absolute_bytes += pe.absolute_bytes;
      rep.flops += pe.flops;
      rep.max_sram_bytes = std::max(rep.max_sram_bytes, sram);
      TLRWSE_FLIGHT_RECORD(
          cfg.recorder, obs::Phase::kFusedColumn, pe_index,
          (obs::PeSample{pe.cycles, pe.relative_bytes, pe.absolute_bytes,
                         pe.flops, sram}));
      pe_index += 1;
    } else {
      // Eight PEs execute the chunk's eight real MVMs with their column
      // streams interleaved round-robin, so each PE carries the balanced
      // 1/8 share of the batch's fmac and column-setup work. The per-MVM
      // prologue disappears: a PE issues a single fused launch (c_call)
      // instead of the strategy-1 batch loop. This matches the near-8x
      // cycle reduction the paper's Tables 2 and 5 jointly imply for the
      // scatter runs (19131 -> ~2387 worst cycles on the nb = 70 headline).
      double stream_cycles = 0.0;
      double rel = 0.0, abs_b = 0.0, fl = 0.0;
      for (const auto& s : shapes) {
        stream_cycles +=
            cfg.cost.cycles_per_element * s.mn + cfg.cost.cycles_per_column * s.n;
        rel += s.relative_bytes();
        abs_b += s.absolute_bytes();
        fl += s.flops();
      }
      rep.relative_bytes += rel;
      rep.absolute_bytes += abs_b;
      rep.flops += fl;
      const double per_pe = stream_cycles / 8.0 + call;
      const double sram = static_cast<double>(chunk_sram_bytes_strategy2(c));
      rep.worst_cycles = std::max(rep.worst_cycles, per_pe);
      rep.max_sram_bytes = std::max(rep.max_sram_bytes, sram);
      if (cfg.recorder != nullptr) {
        // The interleaved scatter balances cycles and traffic alike, so
        // each of the eight PEs carries 1/8 of the chunk.
        const obs::PeSample sample{per_pe, rel / 8.0, abs_b / 8.0, fl / 8.0,
                                   sram};
        cfg.recorder->record_span(obs::Phase::kFusedColumn, pe_index, 8,
                                  sample);
      }
      pe_index += 8;
    }
  });

  const index_t pes_per_chunk =
      (cfg.strategy == Strategy::kSplitStackWidth) ? 1 : 8;
  rep.pes_used = rep.chunks * pes_per_chunk;

  const index_t usable = cfg.spec.usable_pes();
  rep.systems = (cfg.systems > 0)
                    ? cfg.systems
                    : std::max<index_t>(1, (rep.pes_used + usable - 1) / usable);
  rep.occupancy = static_cast<double>(rep.pes_used) /
                  (static_cast<double>(rep.systems) * static_cast<double>(usable));
  rep.fits_sram =
      rep.max_sram_bytes <= static_cast<double>(cfg.spec.data_sram_bytes());

  if (rep.worst_cycles > 0.0) {
    rep.time_us = rep.worst_cycles / cfg.spec.clock_hz * 1e6;
    const double per_second = cfg.spec.clock_hz / rep.worst_cycles;
    rep.relative_bw = rep.relative_bytes * per_second;
    rep.absolute_bw = rep.absolute_bytes * per_second;
    rep.flops_rate = rep.flops * per_second;
  }
  return rep;
}

index_t choose_stack_width(const RankSource& source, const WseSpec& spec,
                           index_t systems, Strategy strategy,
                           index_t max_width) {
  const index_t pes_per_chunk = (strategy == Strategy::kSplitStackWidth) ? 1 : 8;
  const index_t capacity = systems * spec.usable_pes();
  // PE demand decreases monotonically with the stack width: binary search
  // the smallest width that fits.
  index_t lo = 1;
  index_t hi = max_width;
  if (count_chunks(source, hi) * pes_per_chunk > capacity) return 0;
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (count_chunks(source, mid) * pes_per_chunk <= capacity) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

PackedReport simulate_packed_cluster(const RankSource& source,
                                     const ClusterConfig& cfg,
                                     index_t systems) {
  TLRWSE_REQUIRE(systems >= 1, "need at least one system");
  TLRWSE_REQUIRE(cfg.strategy == Strategy::kSplitStackWidth,
                 "packing models strategy 1 (one chunk stream per PE)");
  PackedReport rep;
  const index_t capacity = systems * cfg.spec.usable_pes();

  // Pass 1: per-chunk cycle costs and global traffic totals.
  std::vector<double> chunk_cycles;
  double rel_bytes = 0.0, abs_bytes = 0.0;
  for_each_chunk(source, cfg.stack_width, [&](const Chunk& c) {
    double cycles = cfg.cost.cycles_per_call;
    for (const auto& s : chunk_mvm_shapes(c)) {
      cycles += mvm_cycles(cfg.cost, s.mn, s.n);
      rel_bytes += s.relative_bytes();
      abs_bytes += s.absolute_bytes();
    }
    chunk_cycles.push_back(cycles);
  });
  rep.chunks = static_cast<index_t>(chunk_cycles.size());
  rep.pes = std::min<index_t>(rep.chunks, capacity);
  if (rep.pes == 0) return rep;

  // LPT greedy: biggest chunks first onto the least-loaded PE. A k-way
  // min-heap over PE loads keeps this O(n log p).
  std::sort(chunk_cycles.begin(), chunk_cycles.end(), std::greater<>());
  std::priority_queue<double, std::vector<double>, std::greater<>> loads;
  for (index_t p = 0; p < rep.pes; ++p) loads.push(0.0);
  double total = 0.0;
  for (double c : chunk_cycles) {
    double load = loads.top();
    loads.pop();
    loads.push(load + c);
    total += c;
  }
  double worst = 0.0;
  while (!loads.empty()) {
    worst = std::max(worst, loads.top());
    loads.pop();
  }
  rep.worst_pe_cycles = worst;
  rep.mean_pe_cycles = total / static_cast<double>(rep.pes);
  rep.imbalance = rep.mean_pe_cycles > 0.0 ? worst / rep.mean_pe_cycles : 1.0;
  const double per_second = cfg.spec.clock_hz / worst;
  rep.relative_bw = rel_bytes * per_second;
  rep.absolute_bw = abs_bytes * per_second;
  return rep;
}

namespace {

/// Early-exit sentinel for streaming SRAM checks.
struct SramOverflow {};

/// True when every chunk at this stack width fits the data SRAM budget.
/// Aborts the chunk stream on the first overflow.
bool all_chunks_fit(const RankSource& source, index_t stack_width,
                    Strategy strategy, index_t budget_bytes) {
  try {
    for_each_chunk(source, stack_width, [&](const Chunk& c) {
      const index_t bytes = (strategy == Strategy::kSplitStackWidth)
                                ? chunk_sram_bytes_strategy1(c)
                                : chunk_sram_bytes_strategy2(c);
      if (bytes > budget_bytes) throw SramOverflow{};
    });
  } catch (const SramOverflow&) {
    return false;
  }
  return true;
}

}  // namespace

index_t max_stack_width_for_sram(const RankSource& source, const WseSpec& spec,
                                 Strategy strategy, index_t max_width) {
  // The footprint grows monotonically with the width: binary search the
  // largest width that still fits.
  const auto fits = [&](index_t sw) {
    return all_chunks_fit(source, sw, strategy, spec.data_sram_bytes());
  };
  if (!fits(1)) return 0;
  index_t lo = 1;
  index_t hi = max_width;
  if (fits(hi)) return hi;
  while (lo + 1 < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

index_t minimum_systems(const RankSource& source, const WseSpec& spec,
                        Strategy strategy) {
  const index_t sw = max_stack_width_for_sram(source, spec, strategy);
  TLRWSE_REQUIRE(sw > 0, "dataset tiles do not fit a single PE's SRAM");
  const index_t pes_per_chunk =
      (strategy == Strategy::kSplitStackWidth) ? 1 : 8;
  const index_t pes = count_chunks(source, sw) * pes_per_chunk;
  return (pes + spec.usable_pes() - 1) / spec.usable_pes();
}

ConstantBatchPoint simulate_constant_batch(const WseSpec& spec,
                                           const CostModelParams& cost,
                                           index_t n) {
  TLRWSE_REQUIRE(n >= 1, "matrix size must be positive");
  ConstantBatchPoint pt;
  pt.n = n;
  RealMvmShape s;
  s.m = static_cast<double>(n);
  s.n = static_cast<double>(n);
  s.mn = s.m * s.n;
  PeWork pe;
  for (int k = 0; k < 8; ++k) pe.add_mvm(cost, s);
  pe.cycles += cost.cycles_per_call;
  const double per_second = spec.clock_hz / pe.cycles;
  const double pes = static_cast<double>(spec.usable_pes());
  pt.relative_bw = pe.relative_bytes * per_second * pes;
  pt.absolute_bw = pe.absolute_bytes * per_second * pes;
  return pt;
}

}  // namespace tlrwse::wse
