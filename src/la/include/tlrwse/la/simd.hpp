// Runtime-dispatched SIMD microkernel engine for the TLR-MVM hot path.
//
// The paper's x86 baseline (Sec. 6.6) splits every complex MVM into real
// batched MVMs precisely so vendor SIMD kernels apply. This module is our
// vendor-kernel equivalent: register-blocked float32 microkernels (plain
// sgemv, fused split-complex gemv computing yr/yi in one pass over Ar/Ai,
// conjugated adjoint forms, and multi-RHS variants that block 4-8
// right-hand sides so repeated applies become small GEMMs), compiled once
// per ISA tier and selected once at startup via cpuid.
//
// Tiers: scalar (always available, the reference), NEON on aarch64, and
// AVX2+FMA / AVX-512 on x86-64. Every tier computes BITWISE-identical
// results by construction: all tiers use fused multiply-add (std::fma in
// the scalar tier) in the same per-element order, and every dot-form
// reduction accumulates into the same fixed 16-lane pattern reduced by the
// same pairwise tree regardless of vector width. The parity fuzz test
// (test_simd) pins this at <= 4 ULP elementwise; in practice the tiers
// agree exactly.
//
// Selection: `dispatch()` resolves the best tier compiled in AND supported
// by the host, overridable by the TLRWSE_SIMD_LEVEL environment variable
// ("scalar" | "neon" | "avx2" | "avx512"; requests above what the host
// supports clamp downward). A vector tier is compiled in whenever the
// compiler targets its ISA (x86-64 builds compile the AVX2 and AVX-512 TUs
// with their own flags; aarch64 always has NEON); TLRWSE_SIMD_LEVEL=scalar
// is the portable path. These kernels serve the only host TLR apply paths,
// one per compressed format: tlr::MvmPlan and tlr::SharedBasisMvmPlan.
#pragma once

#include <cstdint>
#include <span>

#include "tlrwse/common/types.hpp"
#include "tlrwse/la/half.hpp"

namespace tlrwse::la::simd {

/// ISA tiers in ascending preference order. Clamping walks downward, so a
/// level absent on the host resolves to the best available one below it.
enum class Level : int { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

/// One tier's kernel set. All matrices are column-major float32 with an
/// explicit leading dimension (the MvmPlan arena pads leading dimensions
/// to 16 floats so columns start 64-byte aligned, but kernels use
/// unaligned loads and accept any lda >= m). `accumulate` selects y += ...
/// over y = ...; multi-RHS operands are column-major panels with leading
/// dimensions ldx/ldy.
struct KernelTable {
  const char* name;

  /// y (+)= A x  (column-sweep axpy form; m x n).
  void (*sgemv)(index_t m, index_t n, const float* A, index_t lda,
                const float* x, float* y, bool accumulate);
  /// y (+)= A^T x  (dot form; y has n entries, reduction length m).
  void (*sgemv_t)(index_t m, index_t n, const float* A, index_t lda,
                  const float* x, float* y, bool accumulate);
  /// Fused split-complex MVM: (yr + i yi) (+)= (Ar + i Ai)(xr + i xi),
  /// both result planes computed in ONE pass over Ar/Ai (the paper's
  /// four real MVMs fused to halve the matrix traffic).
  void (*sgemv_split)(index_t m, index_t n, const float* Ar, const float* Ai,
                      index_t lda, const float* xr, const float* xi, float* yr,
                      float* yi, bool accumulate);
  /// Fused split-complex adjoint: (yr + i yi) (+)= (Ar + i Ai)^H (xr + i xi).
  void (*sgemv_split_adjoint)(index_t m, index_t n, const float* Ar,
                              const float* Ai, index_t lda, const float* xr,
                              const float* xi, float* yr, float* yi,
                              bool accumulate);
  /// Multi-RHS sgemv: Y (+)= A X for nrhs right-hand sides, register-
  /// blocking 8 RHS columns per sweep over A (~nrhs x the arithmetic
  /// intensity of one MVM). Each RHS column is bitwise identical to a
  /// single-RHS sgemv call.
  void (*sgemv_multi)(index_t m, index_t n, const float* A, index_t lda,
                      const float* X, index_t ldx, float* Y, index_t ldy,
                      index_t nrhs, bool accumulate);
  /// Multi-RHS fused split-complex MVM (register-blocks 4 RHS).
  void (*sgemv_split_multi)(index_t m, index_t n, const float* Ar,
                            const float* Ai, index_t lda, const float* Xr,
                            const float* Xi, index_t ldx, float* Yr, float* Yi,
                            index_t ldy, index_t nrhs, bool accumulate);
  /// Multi-RHS fused split-complex adjoint (register-blocks 4 RHS).
  void (*sgemv_split_adjoint_multi)(index_t m, index_t n, const float* Ar,
                                    const float* Ai, index_t lda,
                                    const float* Xr, const float* Xi,
                                    index_t ldx, float* Yr, float* Yi,
                                    index_t ldy, index_t nrhs, bool accumulate);
  /// Multi-RHS fused split-complex MVM over PACKED 16-bit factor planes
  /// (fp16 or bf16 per `fmt`): each factor register is widened to float32
  /// in-register (F16C / AVX-512 / NEON converts, or the bit-exact scalar
  /// conversion on the scalar tier) and ALL arithmetic accumulates in
  /// float32 with the same fused multiply-add order as sgemv_split_multi.
  /// Because widening is exact, results are bitwise identical across tiers
  /// AND to the float32 kernel applied to the widened planes; nrhs = 1 is
  /// the single-RHS form. `lda` counts uint16 elements.
  void (*hgemv_split_multi)(HalfFormat fmt, index_t m, index_t n,
                            const std::uint16_t* Ar, const std::uint16_t* Ai,
                            index_t lda, const float* Xr, const float* Xi,
                            index_t ldx, float* Yr, float* Yi, index_t ldy,
                            index_t nrhs, bool accumulate);
  /// Multi-RHS fused split-complex adjoint over packed 16-bit factors,
  /// float32 accumulation (same lane pattern as sgemv_split_adjoint).
  void (*hgemv_split_adjoint_multi)(HalfFormat fmt, index_t m, index_t n,
                                    const std::uint16_t* Ar,
                                    const std::uint16_t* Ai, index_t lda,
                                    const float* Xr, const float* Xi,
                                    index_t ldx, float* Yr, float* Yi,
                                    index_t ldy, index_t nrhs,
                                    bool accumulate);
  /// Deinterleave a complex vector into planar re/im.
  void (*split_complex)(index_t n, const cf32* x, float* re, float* im);
  /// Interleave planar re/im back into a complex vector.
  void (*merge_complex)(index_t n, const float* re, const float* im, cf32* y);
};

[[nodiscard]] const char* level_name(Level level) noexcept;

/// Tiers compiled in AND executable on this host, ascending; always
/// contains at least Level::kScalar.
[[nodiscard]] std::span<const Level> available_levels() noexcept;

/// Parses a TLRWSE_SIMD_LEVEL value; `ok` reports whether `s` named a level.
[[nodiscard]] Level parse_level(const char* s, bool& ok) noexcept;

/// Best available level <= `want` (scalar when nothing else qualifies).
[[nodiscard]] Level resolve_level(Level want) noexcept;

/// Kernel table of resolve_level(want). Valid for the process lifetime.
[[nodiscard]] const KernelTable& table(Level want) noexcept;

/// The tier the process runs on: the best available level, overridden by
/// TLRWSE_SIMD_LEVEL. Resolved once on first use (cpuid + getenv), so the
/// hot path pays one predicted branch and an indirect call.
[[nodiscard]] Level active_level() noexcept;

/// Kernel table of active_level().
[[nodiscard]] const KernelTable& dispatch() noexcept;

/// True when the active tier widens 16-bit factors with hardware converts
/// (F16C on AVX2, AVX-512F, NEON). False on the scalar tier, when the host
/// lacks F16C, or when TLRWSE_NO_F16C is set in the environment — in those
/// cases the hgemv_* entries of every table are patched to the scalar
/// conversion tier. Both paths widen exactly, so results are bitwise
/// identical either way; this only affects throughput.
[[nodiscard]] bool half_hw_convert() noexcept;

}  // namespace tlrwse::la::simd
