#include "tlrwse/wse/bsp.hpp"

#include <algorithm>
#include <cmath>

#include "tlrwse/common/error.hpp"

namespace tlrwse::wse {

BspReport simulate_bsp_3phase(const RankSource& source, const IpuSpec& spec,
                              obs::FlightRecorder* recorder) {
  TLRWSE_REQUIRE(spec.tiles >= 1 && spec.clock_hz > 0.0, "bad IPU spec");
  const tlr::TileGrid& g = source.grid();

  // Work and traffic totals over the whole dataset.
  double v_elems = 0.0;   // V-batch fmacs (complex elements x 4 real MVMs)
  double u_elems = 0.0;
  double shuffle_bytes = 0.0;  // every yv element crosses the exchange
  double base_bytes = 0.0;
  for (index_t q = 0; q < source.num_freqs(); ++q) {
    const auto ranks = source.tile_ranks(q);
    for (index_t j = 0; j < g.nt(); ++j) {
      for (index_t i = 0; i < g.mt(); ++i) {
        const auto k = static_cast<double>(
            ranks[static_cast<std::size_t>(g.tile_index(i, j))]);
        v_elems += k * static_cast<double>(g.tile_cols(j));
        u_elems += k * static_cast<double>(g.tile_rows(i));
        shuffle_bytes += 8.0 * k;  // one cf32 per rank row
      }
    }
  }
  base_bytes = 8.0 * (v_elems + u_elems);

  BspReport rep;
  // Devices: bases + vectors must reside in tile SRAM (BSP has no shared
  // memory either). 70% of SRAM usable for data (code + exchange buffers).
  rep.devices = std::max<index_t>(
      1, static_cast<index_t>(std::ceil(base_bytes / (0.7 * spec.sram_total()))));

  // Supersteps 1 and 3: embarrassingly parallel fmacs across all tiles of
  // all devices; 4 real MVMs per basis, 1 fmac per element per MVM.
  const double total_tiles =
      static_cast<double>(rep.devices) * static_cast<double>(spec.tiles);
  const double v_sec = 4.0 * v_elems /
                       (total_tiles * spec.flops_per_cycle_per_tile *
                        spec.clock_hz);
  const double u_sec = 4.0 * u_elems /
                       (total_tiles * spec.flops_per_cycle_per_tile *
                        spec.clock_hz);
  rep.compute_sec = v_sec + u_sec;

  // Superstep 2: the shuffle. Within a device the exchange moves at the
  // all-to-all bandwidth; traffic between devices rides the (much slower)
  // IPU-Link, folded here into an effective 1/4 bandwidth once the dataset
  // spans devices. Both real and imaginary yv planes move, for all 4
  // intermediate vectors of the split-real formulation.
  const double cross_penalty = (rep.devices > 1) ? 4.0 : 1.0;
  const double moved = 4.0 * shuffle_bytes;  // 4 real yv vectors
  rep.exchange_sec =
      moved * cross_penalty /
      (static_cast<double>(rep.devices) * spec.exchange_bytes_per_sec);

  // Three barriers (after each superstep), global across devices.
  rep.barrier_sec = 3.0 * spec.barrier_sec;

  rep.total_sec = rep.compute_sec + rep.exchange_sec + rep.barrier_sec;

  if (recorder != nullptr) {
    // One sample per device per superstep (the model assumes perfect
    // balance within a superstep), cycles on the IPU clock with the
    // superstep's barrier folded in so the per-phase critical path sums to
    // total_sec. Traffic uses the paper's relative (cache-style)
    // accounting; the flat-SRAM absolute accounting is a CS-2 concept, so
    // the absolute stream mirrors the relative one on the IPU.
    const double dev = static_cast<double>(rep.devices);
    const double barrier_cy = spec.barrier_sec * spec.clock_hz;
    const auto per_device = [&](double phase_sec, double bytes,
                                double flops) {
      obs::PeSample s;
      s.cycles = phase_sec * spec.clock_hz + barrier_cy;
      s.relative_bytes = bytes / dev;
      s.absolute_bytes = bytes / dev;
      s.flops = flops / dev;
      s.sram_bytes = base_bytes / dev;
      return s;
    };
    const obs::PeSample v = per_device(v_sec, 8.0 * v_elems, 8.0 * v_elems);
    const obs::PeSample sh =
        per_device(rep.exchange_sec, 4.0 * shuffle_bytes, 0.0);
    const obs::PeSample u = per_device(u_sec, 8.0 * u_elems, 8.0 * u_elems);
    for (index_t d = 0; d < rep.devices; ++d) {
      recorder->record(obs::Phase::kVMvm, d, v);
      recorder->record(obs::Phase::kShuffle, d, sh);
      recorder->record(obs::Phase::kUMvm, d, u);
    }
  }
  return rep;
}

}  // namespace tlrwse::wse
