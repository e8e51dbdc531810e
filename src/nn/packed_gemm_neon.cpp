// kNative tier for AArch64: NEON packed-FP8 decode + GEMM.
//
// Advanced SIMD is baseline on AArch64, so no -march flag is needed; the
// TU is still compiled -ffp-contract=off and uses explicit vmulq/vaddq
// (never vfmaq) so each element sees the same exact mul+add sequence as
// the scalar reference tier (docs/KERNELS.md).
#include "nn/packed_gemm.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

namespace fp8q {
namespace {

/// Broadcast decode constants for one format, mirroring Fp8DecodeSpec.
struct DecodeCtx {
  int32x4_t man_shift;    ///< 23 - man_bits, as a per-lane shift count
  uint32x4_t exp_add;     ///< (127 - bias) << 23: integer exponent rebias
  float32x4_t sub_scale;  ///< 2^(1 - bias - man_bits)
  uint32x4_t sub_lo;      ///< 1 << man_bits: mag < this  <=>  subnormal
  uint32x4_t special_lo;  ///< mag >= this  <=>  Inf/NaN code
  uint32x4_t inf_bits;    ///< 0x7F800000
  uint32x4_t nan_bits;    ///< 0x7FC00000 (canonical unsigned quiet NaN)
  bool ieee;
};

DecodeCtx make_ctx(Fp8Kind kind) {
  const Fp8DecodeSpec& spec = fp8_decode_spec(kind);
  DecodeCtx d;
  d.man_shift = vdupq_n_s32(static_cast<std::int32_t>(spec.man_shift));
  d.exp_add = vdupq_n_u32(spec.exp_add);
  d.sub_scale = vdupq_n_f32(spec.sub_scale);
  d.sub_lo = vdupq_n_u32(spec.sub_lo);
  d.special_lo = vdupq_n_u32(spec.special_lo);
  d.inf_bits = vdupq_n_u32(0x7F800000u);
  d.nan_bits = vdupq_n_u32(0x7FC00000u);
  d.ieee = spec.ieee;
  return d;
}

/// Decodes 4 widened codes -- the 4-lane transcription of fp8_decode_bits
/// (fp8/packed.h): integer exponent rebias for normal lanes, exact convert
/// + power-of-two multiply for subnormal lanes, then the special selects.
inline float32x4_t decode4(uint32x4_t c, const DecodeCtx& d) {
  const uint32x4_t mag = vandq_u32(c, vdupq_n_u32(0x7Fu));
  const uint32x4_t sgn = vshlq_n_u32(vandq_u32(c, vdupq_n_u32(0x80u)), 24);
  const uint32x4_t norm = vaddq_u32(vshlq_u32(mag, d.man_shift), d.exp_add);
  const float32x4_t sub =
      vmulq_f32(vcvtq_f32_u32(mag), d.sub_scale);
  const uint32x4_t is_sub = vcltq_u32(mag, d.sub_lo);
  const uint32x4_t val = vbslq_u32(is_sub, vreinterpretq_u32_f32(sub), norm);
  uint32x4_t bits = vorrq_u32(val, sgn);
  const uint32x4_t special = vcgeq_u32(mag, d.special_lo);
  const uint32x4_t is_nan = d.ieee ? vcgtq_u32(mag, d.special_lo) : special;
  const uint32x4_t spec_bits = vbslq_u32(is_nan, d.nan_bits, vorrq_u32(sgn, d.inf_bits));
  bits = vbslq_u32(special, spec_bits, bits);
  return vreinterpretq_f32_u32(bits);
}

/// Decodes 8 consecutive codes into two float32x4 halves.
inline void decode8(const std::uint8_t* codes, const DecodeCtx& d, float32x4_t& lo,
                    float32x4_t& hi) {
  const uint16x8_t w16 = vmovl_u8(vld1_u8(codes));
  lo = decode4(vmovl_u16(vget_low_u16(w16)), d);
  hi = decode4(vmovl_u16(vget_high_u16(w16)), d);
}

void decode_mul_neon(const std::uint8_t* codes, float inv, float* out, std::int64_t count,
                     Fp8Kind kind) {
  const DecodeCtx d = make_ctx(kind);
  const float32x4_t invv = vdupq_n_f32(inv);
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    float32x4_t lo;
    float32x4_t hi;
    decode8(codes + i, d, lo, hi);
    vst1q_f32(out + i, vmulq_f32(lo, invv));
    vst1q_f32(out + i + 4, vmulq_f32(hi, invv));
  }
  const Fp8DecodeSpec& spec = fp8_decode_spec(kind);
  for (; i < count; ++i) {
    out[i] = std::bit_cast<float>(fp8_decode_bits(codes[i], spec)) * inv;
  }
}

void gemm_neon(const float* x, const PackedWeightMatrix& w, const float* bias, float* y,
               std::int64_t rows) {
  const DecodeCtx d = make_ctx(w.kind);
  const Fp8DecodeSpec& spec = fp8_decode_spec(w.kind);
  const std::int64_t n = w.n;
  const std::int64_t k = w.k;
  const std::uint8_t* codes = w.codes.data();
  const float* invs = w.inv_scales.data();
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* x0 = x + (r + 0) * k;
    const float* x1 = x + (r + 1) * k;
    const float* x2 = x + (r + 2) * k;
    const float* x3 = x + (r + 3) * k;
    std::int64_t j = 0;
    // 4 rows x 8 output channels: decode each 8-channel weight strip once
    // per reduction step and broadcast four activations against it.
    for (; j + 8 <= n; j += 8) {
      const float32x4_t inv_lo = vld1q_f32(invs + j);
      const float32x4_t inv_hi = vld1q_f32(invs + j + 4);
      const float32x4_t b_lo = bias ? vld1q_f32(bias + j) : vdupq_n_f32(0.0f);
      const float32x4_t b_hi = bias ? vld1q_f32(bias + j + 4) : vdupq_n_f32(0.0f);
      float32x4_t acc0_lo = b_lo;
      float32x4_t acc0_hi = b_hi;
      float32x4_t acc1_lo = b_lo;
      float32x4_t acc1_hi = b_hi;
      float32x4_t acc2_lo = b_lo;
      float32x4_t acc2_hi = b_hi;
      float32x4_t acc3_lo = b_lo;
      float32x4_t acc3_hi = b_hi;
      const std::uint8_t* cp = codes + j;
      for (std::int64_t kk = 0; kk < k; ++kk, cp += n) {
        float32x4_t w_lo;
        float32x4_t w_hi;
        decode8(cp, d, w_lo, w_hi);
        w_lo = vmulq_f32(w_lo, inv_lo);
        w_hi = vmulq_f32(w_hi, inv_hi);
        const float32x4_t xv0 = vdupq_n_f32(x0[kk]);
        const float32x4_t xv1 = vdupq_n_f32(x1[kk]);
        const float32x4_t xv2 = vdupq_n_f32(x2[kk]);
        const float32x4_t xv3 = vdupq_n_f32(x3[kk]);
        acc0_lo = vaddq_f32(acc0_lo, vmulq_f32(xv0, w_lo));
        acc0_hi = vaddq_f32(acc0_hi, vmulq_f32(xv0, w_hi));
        acc1_lo = vaddq_f32(acc1_lo, vmulq_f32(xv1, w_lo));
        acc1_hi = vaddq_f32(acc1_hi, vmulq_f32(xv1, w_hi));
        acc2_lo = vaddq_f32(acc2_lo, vmulq_f32(xv2, w_lo));
        acc2_hi = vaddq_f32(acc2_hi, vmulq_f32(xv2, w_hi));
        acc3_lo = vaddq_f32(acc3_lo, vmulq_f32(xv3, w_lo));
        acc3_hi = vaddq_f32(acc3_hi, vmulq_f32(xv3, w_hi));
      }
      vst1q_f32(y + (r + 0) * n + j, acc0_lo);
      vst1q_f32(y + (r + 0) * n + j + 4, acc0_hi);
      vst1q_f32(y + (r + 1) * n + j, acc1_lo);
      vst1q_f32(y + (r + 1) * n + j + 4, acc1_hi);
      vst1q_f32(y + (r + 2) * n + j, acc2_lo);
      vst1q_f32(y + (r + 2) * n + j + 4, acc2_hi);
      vst1q_f32(y + (r + 3) * n + j, acc3_lo);
      vst1q_f32(y + (r + 3) * n + j + 4, acc3_hi);
    }
    for (; j < n; ++j) {
      const float inv = invs[j];
      float acc0 = bias ? bias[j] : 0.0f;
      float acc1 = acc0;
      float acc2 = acc0;
      float acc3 = acc0;
      const std::uint8_t* cp = codes + j;
      for (std::int64_t kk = 0; kk < k; ++kk, cp += n) {
        const float wv = std::bit_cast<float>(fp8_decode_bits(*cp, spec)) * inv;
        acc0 += x0[kk] * wv;
        acc1 += x1[kk] * wv;
        acc2 += x2[kk] * wv;
        acc3 += x3[kk] * wv;
      }
      y[(r + 0) * n + j] = acc0;
      y[(r + 1) * n + j] = acc1;
      y[(r + 2) * n + j] = acc2;
      y[(r + 3) * n + j] = acc3;
    }
  }
  for (; r < rows; ++r) {
    const float* xr = x + r * k;
    float* yr = y + r * n;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const float32x4_t inv_lo = vld1q_f32(invs + j);
      const float32x4_t inv_hi = vld1q_f32(invs + j + 4);
      float32x4_t acc_lo = bias ? vld1q_f32(bias + j) : vdupq_n_f32(0.0f);
      float32x4_t acc_hi = bias ? vld1q_f32(bias + j + 4) : vdupq_n_f32(0.0f);
      const std::uint8_t* cp = codes + j;
      for (std::int64_t kk = 0; kk < k; ++kk, cp += n) {
        float32x4_t w_lo;
        float32x4_t w_hi;
        decode8(cp, d, w_lo, w_hi);
        w_lo = vmulq_f32(w_lo, inv_lo);
        w_hi = vmulq_f32(w_hi, inv_hi);
        const float32x4_t xv = vdupq_n_f32(xr[kk]);
        acc_lo = vaddq_f32(acc_lo, vmulq_f32(xv, w_lo));
        acc_hi = vaddq_f32(acc_hi, vmulq_f32(xv, w_hi));
      }
      vst1q_f32(yr + j, acc_lo);
      vst1q_f32(yr + j + 4, acc_hi);
    }
    for (; j < n; ++j) {
      const float inv = invs[j];
      float acc = bias ? bias[j] : 0.0f;
      const std::uint8_t* cp = codes + j;
      for (std::int64_t kk = 0; kk < k; ++kk, cp += n) {
        const float wv = std::bit_cast<float>(fp8_decode_bits(*cp, spec)) * inv;
        acc += xr[kk] * wv;
      }
      yr[j] = acc;
    }
  }
}

// No NEON conv kernel yet: Conv2d runs the portable clamped tap loop.
constexpr PackedKernelTable kNeonTable{decode_mul_neon, gemm_neon, detail::conv2d_clamped};

}  // namespace

namespace detail {

const PackedKernelTable& packed_kernels_native_impl() { return kNeonTable; }

}  // namespace detail
}  // namespace fp8q

#endif  // defined(__aarch64__)
