// NEON tier (4-wide) for aarch64, where Advanced SIMD is baseline and
// needs no extra compile flags. vfmaq_f32 is a true fused multiply-add,
// so the bitwise-parity contract holds here too.
#include "kernels_impl.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace tlrwse::la::simd::detail {

#if defined(__aarch64__)

namespace {

struct VecNeon {
  static constexpr index_t kWidth = 4;
  using reg = float32x4_t;
  static reg zero() { return vdupq_n_f32(0.0f); }
  static reg load(const float* p) { return vld1q_f32(p); }
  static void store(float* p, reg v) { vst1q_f32(p, v); }
  static reg broadcast(float v) { return vdupq_n_f32(v); }
  static reg fmadd(reg a, reg b, reg c) { return vfmaq_f32(c, a, b); }
  static reg fnmadd(reg a, reg b, reg c) { return vfmsq_f32(c, a, b); }
  // fp16 storage-format converts (fcvtl) are ARMv8-A baseline.
  static reg load_f16(const std::uint16_t* p) {
    return vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(p)));
  }
  static reg load_bf16(const std::uint16_t* p) {
    return vreinterpretq_f32_u32(vshlq_n_u32(vmovl_u16(vld1_u16(p)), 16));
  }
};

}  // namespace

const KernelTable* neon_table() {
  static const KernelTable t = make_table<VecNeon>("neon");
  return &t;
}

#else

const KernelTable* neon_table() { return nullptr; }

#endif

}  // namespace tlrwse::la::simd::detail
