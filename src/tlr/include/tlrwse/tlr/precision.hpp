// Per-tile storage precision for TLR factors.
//
// A tile's U/V bases can be stored as packed fp16 or bf16 planes (see
// la/half.hpp for the exact packing semantics) while all arithmetic
// accumulates in float32. The tag travels with the tile everywhere bytes
// are counted or moved: TlrMatrix -> StackedTlr -> MvmPlan arenas, the
// TLRA/TLRS archive rank tables (so streaming and serve admission price
// the operator at its true packed size), and archive granule -> MvmPlan.
//
// The numeric values are the on-disk encoding of the archive precision
// tables (format version 2) — do not renumber.
#pragma once

#include <cstdint>

#include "tlrwse/la/half.hpp"

namespace tlrwse::tlr {

enum class StoragePrecision : std::uint8_t { kFp32 = 0, kFp16 = 1, kBf16 = 2 };

[[nodiscard]] constexpr double bytes_per_real(StoragePrecision p) {
  return p == StoragePrecision::kFp32 ? 4.0 : 2.0;
}

[[nodiscard]] constexpr const char* precision_name(StoragePrecision p) {
  switch (p) {
    case StoragePrecision::kFp32:
      return "fp32";
    case StoragePrecision::kFp16:
      return "fp16";
    case StoragePrecision::kBf16:
      return "bf16";
  }
  return "unknown";
}

[[nodiscard]] constexpr bool is_half(StoragePrecision p) {
  return p != StoragePrecision::kFp32;
}

/// The 16-bit packing of a half precision; only meaningful when is_half(p).
[[nodiscard]] constexpr la::HalfFormat half_format(StoragePrecision p) {
  return p == StoragePrecision::kBf16 ? la::HalfFormat::kBf16
                                      : la::HalfFormat::kFp16;
}

/// Validates an archive precision byte before casting it to the enum.
[[nodiscard]] constexpr bool valid_precision_tag(std::uint8_t tag) {
  return tag <= static_cast<std::uint8_t>(StoragePrecision::kBf16);
}

}  // namespace tlrwse::tlr
