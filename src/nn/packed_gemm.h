// Packed FP8 GEMM/conv kernels: compute directly on 8-bit weight codes.
//
// The quantization pipeline used to dequantize every weight into a full
// FP32 tensor before calling the blocked matmul, so the 4x memory win of
// the FP8 formats never reached the hot path. These kernels keep the
// weight as uint8 codes and decode in-register inside the microkernel --
// one code byte streams in where four float bytes used to.
//
// Memory layout (docs/KERNELS.md has diagrams):
//
//   PackedWeightMatrix  GEMM operand for y = x * W^T (+ bias). Codes are
//     repacked k-major / channel-last: codes[kk * n + j] is output channel
//     j at reduction index kk, so the microkernel loads a contiguous run
//     of 8/16 output channels per reduction step and broadcasts one
//     activation. inv_scales[j] = 1 / scale_j is precomputed once.
//   PackedConvWeight    Conv2d operand; codes stay in the op's native
//     [oc][ic/g * kh * kw] order with inv_scales per output channel. The
//     conv forward decodes the whole weight once with decode_mul, then
//     runs the same conv2d entry as the FP32 path over it.
//
// Microkernel contract (every tier, every thread count):
//
//   y[r][j] = bias[j] (+) sum_kk x[r][kk] * (decode(code[kk][j]) * inv[j])
//
// with the kk-summation strictly ascending per output element, the weight
// produced by exactly one decode multiply and one scale multiply, and the
// sum accumulated with separate mul+add (fp contraction is disabled on
// every kernel TU). decode() is bit-identical across tiers -- the LUT and
// the arithmetic decode agree on all 256 codes (fp8/packed.h) -- so every
// tier produces bit-identical outputs, and because decode(code) * inv is
// bitwise the fake-quantized weight, the packed path also matches the
// dequantize-to-FP32 path bit for bit (the bit-exactness policy in
// docs/KERNELS.md).
//
// Dispatch: packed_kernels(tier) returns a per-tier function table;
// callers index it with isa_tier() (core/cpu_dispatch.h). The kNative
// table is compiled in arch-specific TUs (packed_gemm_avx2.cpp,
// packed_gemm_neon.cpp) and falls back to the kScalar table when the CPU
// or the build lacks a native path. The table's conv2d entry runs on an FP32
// weight and serves both Conv2d paths: the packed path decodes its codes
// with decode_mul first. It keeps the clamped tap loop's bits at every
// tier (docs/KERNELS.md).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cpu_dispatch.h"
#include "fp8/packed.h"

namespace fp8q {

/// GEMM weight operand: k-major codes + per-output-channel reciprocal
/// scales (layout in the file comment).
struct PackedWeightMatrix {
  std::int64_t k = 0;                ///< reduction depth (in_features)
  std::int64_t n = 0;                ///< output channels (out_features)
  Fp8Kind kind = Fp8Kind::E4M3;
  std::vector<std::uint8_t> codes;   ///< [k][n]: codes[kk * n + j]
  std::vector<float> inv_scales;     ///< [n]: 1 / scale_j

  /// Bytes held (codes + scales), vs k * n * 4 for the FP32 weight.
  [[nodiscard]] std::size_t storage_bytes() const {
    return codes.size() + inv_scales.size() * sizeof(float);
  }
};

/// Builds the GEMM operand from a per-channel packed [n, k] weight
/// (LinearOp's [out, in] layout; scales on axis 0). Per-tensor packings
/// broadcast their single scale.
[[nodiscard]] PackedWeightMatrix pack_gemm_weight(const PackedFp8Tensor& packed);

/// Conv2d weight operand: codes in the op's native layout + per-oc
/// reciprocal scales.
struct PackedConvWeight {
  std::int64_t oc = 0;               ///< output channels
  std::int64_t block = 0;            ///< taps per channel: (ic/g) * kh * kw
  Fp8Kind kind = Fp8Kind::E4M3;
  std::vector<std::uint8_t> codes;   ///< [oc][block], same order as the weight
  std::vector<float> inv_scales;     ///< [oc]: 1 / scale_o

  [[nodiscard]] std::size_t storage_bytes() const {
    return codes.size() + inv_scales.size() * sizeof(float);
  }
};

/// Builds the conv operand from a per-channel packed [oc, ic/g, kh, kw]
/// weight (scales on axis 0).
[[nodiscard]] PackedConvWeight pack_conv_weight(const PackedFp8Tensor& packed);

/// Shape of one Conv2d forward: input [n, ic, h, w], weight
/// [oc, ic/groups, kh, kw], output [n, oc, oh, ow].
struct Conv2dGeometry {
  std::int64_t n = 0, ic = 0, h = 0, w = 0;
  std::int64_t oc = 0, kh = 0, kw = 0;
  std::int64_t oh = 0, ow = 0;
  std::int64_t stride = 1, padding = 0, groups = 1;
};

/// Per-tier kernel entry points (one table per IsaTier; see file comment
/// for the bit-exactness contract they all satisfy).
struct PackedKernelTable {
  /// Decodes `count` codes sharing one reciprocal scale:
  /// out[i] = decode(codes[i]) * inv. Used for conv weight rows and
  /// weight-cache hits, where the scale is constant per channel.
  void (*decode_mul)(const std::uint8_t* codes, float inv, float* out, std::int64_t count,
                     Fp8Kind kind);

  /// The GEMM microkernel: `rows` rows of x [rows, k] against w, writing
  /// y [rows, n]. bias is [n] or nullptr. Single-threaded over its slice;
  /// packed_gemm_forward parallelizes across row chunks.
  void (*gemm)(const float* x, const PackedWeightMatrix& w, const float* bias, float* y,
               std::int64_t rows);

  /// Conv2d over output planes [plane_lo, plane_hi) of the n * oc planes
  /// (plane = image * oc + out_channel). w is the FP32 (or decoded) weight
  /// in [oc][ic/g][kh][kw] order; bias is [oc] or nullptr. Each output
  /// element is bias (+) the in-range taps x * w in c -> ky -> kx order,
  /// skipping the taps that fall outside the input. Single-threaded over
  /// its slice; Conv2dOp::forward parallelizes across plane chunks.
  void (*conv2d)(const Conv2dGeometry& g, const float* x, const float* w, const float* bias,
                 float* y, std::int64_t plane_lo, std::int64_t plane_hi);
};

/// Function table for one tier. kNative falls back to the scalar table
/// when no native path exists (missing CPU feature or non-SIMD build).
[[nodiscard]] const PackedKernelTable& packed_kernels(IsaTier tier);

/// Parallel GEMM driver: row-partitioned with the same grain policy as
/// LinearOp, dispatching to packed_kernels(isa_tier()).
void packed_gemm_forward(const float* x, const PackedWeightMatrix& w, const float* bias,
                         float* y, std::int64_t rows);

namespace detail {
/// Defined by the arch TU compiled into this build (AVX2 or NEON).
[[nodiscard]] const PackedKernelTable& packed_kernels_native_impl();

/// The portable conv2d entry (the scalar tier, and every shape a
/// native kernel does not cover): per output element, the kernel window
/// is clamped to the input once and the in-range taps are summed.
void conv2d_clamped(const Conv2dGeometry& g, const float* x, const float* w,
                    const float* bias, float* y, std::int64_t plane_lo,
                    std::int64_t plane_hi);
}  // namespace detail

}  // namespace fp8q
