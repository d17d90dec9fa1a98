// AVX2+FMA tier (8-wide). This TU is always listed in the build; the body
// only materialises when this file is compiled with -mavx2 -mfma (x86-64,
// see src/la/CMakeLists.txt), so other targets still link.
#include "kernels_impl.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace tlrwse::la::simd::detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

struct VecAvx2 {
  static constexpr index_t kWidth = 8;
  using reg = __m256;
  static reg zero() { return _mm256_setzero_ps(); }
  static reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg broadcast(float v) { return _mm256_set1_ps(v); }
  static reg fmadd(reg a, reg b, reg c) { return _mm256_fmadd_ps(a, b, c); }
  static reg fnmadd(reg a, reg b, reg c) { return _mm256_fnmadd_ps(a, b, c); }
  static reg load_f16(const std::uint16_t* p) {
#if defined(__F16C__)
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
#else
    // Bit-exact software widen (toolchains without -mf16c); dispatch.cpp
    // additionally verifies F16C via cpuid before handing out this table's
    // half entries, so the hardware path never runs on a non-F16C host.
    return _mm256_setr_ps(fp16_bits_to_f32(p[0]), fp16_bits_to_f32(p[1]),
                          fp16_bits_to_f32(p[2]), fp16_bits_to_f32(p[3]),
                          fp16_bits_to_f32(p[4]), fp16_bits_to_f32(p[5]),
                          fp16_bits_to_f32(p[6]), fp16_bits_to_f32(p[7]));
#endif
  }
  static reg load_bf16(const std::uint16_t* p) {
    // bf16 widen is a zero-extend + 16-bit left shift: plain AVX2 integer
    // ops, exact by construction.
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
  }
};

}  // namespace

const KernelTable* avx2_table() {
  static constexpr KernelTable t = make_table<VecAvx2>("avx2");
  return &t;
}

#else

const KernelTable* avx2_table() { return nullptr; }

#endif

}  // namespace tlrwse::la::simd::detail
