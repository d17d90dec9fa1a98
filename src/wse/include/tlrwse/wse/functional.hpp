// Functional (value-exact) execution of the WSE mapping.
//
// The performance simulator counts cycles and bytes; this component
// actually computes the MVM through the same chunk decomposition a real
// CS-2 deployment would use — each chunk plays the role of one PE running
// the eight real MVMs on its slice of the stacked bases, and the final
// host-side reduction sums the partial y vectors. Tests compare the result
// bit-for-bit-ish (FP32 reassociation tolerance) against the reference
// TLR-MVM kernels, proving the mapping computes the right answer.
#pragma once

#include <span>
#include <vector>

#include "tlrwse/obs/flight_recorder.hpp"
#include "tlrwse/tlr/stacked.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"
#include "tlrwse/wse/chunking.hpp"

namespace tlrwse::wse {

/// RankSource adapter over real compressed matrices (all sharing a grid).
class TlrRankSource final : public RankSource {
 public:
  explicit TlrRankSource(const std::vector<tlr::TlrMatrix<cf32>>& matrices);

  [[nodiscard]] index_t num_freqs() const override {
    return static_cast<index_t>(matrices_->size());
  }
  [[nodiscard]] const tlr::TileGrid& grid() const override;
  [[nodiscard]] std::vector<index_t> tile_ranks(index_t q) const override;

 private:
  const std::vector<tlr::TlrMatrix<cf32>>* matrices_;
};

/// Executes y = A x through the chunked PE mapping at the given stack
/// width, with each chunk's arithmetic performed as the eight split-real
/// MVMs of Sec. 6.6 and partial results host-reduced. When a flight
/// recorder is attached, every chunk launch records its cost-model sample
/// (one PE per chunk, the fused column phase).
[[nodiscard]] std::vector<cf32> functional_wse_mvm(
    const tlr::StackedTlr<cf32>& A, index_t stack_width,
    std::span<const cf32> x, obs::FlightRecorder* recorder = nullptr);

}  // namespace tlrwse::wse
