// Tier selection for the SIMD engine: which tables this binary carries,
// which the host can execute, and the one-time resolution of the active
// level (cpuid + TLRWSE_SIMD_LEVEL override).
#include <array>
#include <cstdlib>
#include <cstring>

#include "tlrwse/la/simd.hpp"

namespace tlrwse::la::simd {

namespace detail {
// Implemented in the per-ISA TUs; nullptr when a tier is not compiled in.
const KernelTable* scalar_table();
const KernelTable* neon_table();
const KernelTable* avx2_table();
const KernelTable* avx512_table();
}  // namespace detail

namespace {

const KernelTable* raw_table(Level level) {
  switch (level) {
    case Level::kScalar:
      return detail::scalar_table();
    case Level::kNeon:
      return detail::neon_table();
    case Level::kAvx2:
      return detail::avx2_table();
    case Level::kAvx512:
      return detail::avx512_table();
  }
  return nullptr;
}

bool host_supports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kNeon:
#if defined(__aarch64__)
      return true;  // Advanced SIMD is architecturally baseline on aarch64.
#else
      return false;
#endif
    case Level::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Level::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

// Whether a tier's compiled-in half-precision loads are real hardware
// converts on THIS host. The AVX2 tier is compiled with -mf16c, so its
// table is only safe where cpuid reports F16C (every AVX2 part shipped has
// it, but the contract is cpuid, not folklore). vcvtph2ps on zmm is part
// of AVX-512F itself and NEON fcvtl is ARMv8-A baseline, so those tiers
// need no extra bit.
bool half_hw_ok(Level level) {
  switch (level) {
    case Level::kScalar:
      return false;
    case Level::kNeon:
      return true;
    case Level::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("f16c");
#else
      return false;
#endif
    case Level::kAvx512:
      return true;
  }
  return false;
}

// Patched copies of the raw tables: when hardware widening is unavailable
// (no F16C) or explicitly disabled (TLRWSE_NO_F16C set, the CI switch for
// exercising the scalar conversion tier), the hgemv_* entries fall back to
// the scalar tier's bit-exact conversions while every float32 kernel stays
// vectorised. Results are bitwise identical either way.
struct EffectiveTables {
  std::array<KernelTable, 4> tables{};
  std::array<bool, 4> hw_half{};
};

const EffectiveTables& effective_tables() {
  static const EffectiveTables tb = [] {
    EffectiveTables out;
    const bool no_f16c = std::getenv("TLRWSE_NO_F16C") != nullptr;
    const KernelTable* scalar = detail::scalar_table();
    for (int i = 0; i < 4; ++i) {
      const Level l = static_cast<Level>(i);
      const KernelTable* raw = raw_table(l);
      if (raw == nullptr) continue;
      out.tables[i] = *raw;
      const bool hw = !no_f16c && half_hw_ok(l);
      if (!hw) {
        out.tables[i].hgemv_split_multi = scalar->hgemv_split_multi;
        out.tables[i].hgemv_split_adjoint_multi =
            scalar->hgemv_split_adjoint_multi;
      }
      out.hw_half[i] = hw;
    }
    return out;
  }();
  return tb;
}

const KernelTable* effective_table(Level level) {
  if (raw_table(level) == nullptr) return nullptr;
  return &effective_tables().tables[static_cast<int>(level)];
}

struct Availability {
  std::array<Level, 4> levels{};
  std::size_t count = 0;
};

const Availability& availability() {
  static const Availability a = [] {
    Availability out;
    for (const Level l : {Level::kScalar, Level::kNeon, Level::kAvx2,
                          Level::kAvx512}) {
      if (raw_table(l) != nullptr && host_supports(l)) {
        out.levels[out.count++] = l;
      }
    }
    return out;
  }();
  return a;
}

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::span<const Level> available_levels() noexcept {
  const Availability& a = availability();
  return {a.levels.data(), a.count};
}

Level parse_level(const char* s, bool& ok) noexcept {
  ok = true;
  if (s != nullptr) {
    if (std::strcmp(s, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(s, "neon") == 0) return Level::kNeon;
    if (std::strcmp(s, "avx2") == 0) return Level::kAvx2;
    if (std::strcmp(s, "avx512") == 0) return Level::kAvx512;
  }
  ok = false;
  return Level::kScalar;
}

Level resolve_level(Level want) noexcept {
  const Availability& a = availability();
  Level best = Level::kScalar;
  for (std::size_t i = 0; i < a.count; ++i) {
    if (static_cast<int>(a.levels[i]) <= static_cast<int>(want)) {
      best = a.levels[i];
    }
  }
  return best;
}

const KernelTable& table(Level want) noexcept {
  return *effective_table(resolve_level(want));
}

Level active_level() noexcept {
  static const Level active = [] {
    Level want = Level::kAvx512;  // "best available" before clamping
    if (const char* env = std::getenv("TLRWSE_SIMD_LEVEL")) {
      bool ok = false;
      const Level parsed = parse_level(env, ok);
      if (ok) want = parsed;
    }
    return resolve_level(want);
  }();
  return active;
}

const KernelTable& dispatch() noexcept {
  return *effective_table(active_level());
}

bool half_hw_convert() noexcept {
  return effective_tables().hw_half[static_cast<int>(active_level())];
}

}  // namespace tlrwse::la::simd
