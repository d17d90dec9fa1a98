// AVX-512 tier (16-wide): one register holds a full dot-form lane block,
// so the fixed 16-lane reduction costs a single store. Compiled with
// -mavx512f on x86-64 (see src/la/CMakeLists.txt).
#include "kernels_impl.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace tlrwse::la::simd::detail {

#if defined(__AVX512F__)

namespace {

struct VecAvx512 {
  static constexpr index_t kWidth = 16;
  using reg = __m512;
  static reg zero() { return _mm512_setzero_ps(); }
  static reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, reg v) { _mm512_storeu_ps(p, v); }
  static reg broadcast(float v) { return _mm512_set1_ps(v); }
  static reg fmadd(reg a, reg b, reg c) { return _mm512_fmadd_ps(a, b, c); }
  static reg fnmadd(reg a, reg b, reg c) { return _mm512_fnmadd_ps(a, b, c); }
  // vcvtph2ps on zmm is plain AVX512F — no F16C needed at this tier.
  static reg load_f16(const std::uint16_t* p) {
    return _mm512_cvtph_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static reg load_bf16(const std::uint16_t* p) {
    const __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
  }
};

}  // namespace

const KernelTable* avx512_table() {
  static constexpr KernelTable t = make_table<VecAvx512>("avx512");
  return &t;
}

#else

const KernelTable* avx512_table() { return nullptr; }

#endif

}  // namespace tlrwse::la::simd::detail
