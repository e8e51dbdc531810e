#include "nn/packed_gemm.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.h"
#include "fp8/format.h"

namespace fp8q {
namespace {

// Column-tile width for the scalar tier: wide enough that the decode and
// accumulate loops amortize their setup, small enough that a row of
// accumulators stays in L1.
constexpr std::int64_t kTileN = 64;

// ---------------------------------------------------------------------------
// kScalar tier: table-lookup decode, plain loops. This is the reference
// the native tier is tested bit-equal against, so it favors obviousness
// over speed: one row at a time, one output element's ascending
// kk-summation clearly visible.
// ---------------------------------------------------------------------------

void decode_mul_scalar_tier(const std::uint8_t* codes, float inv, float* out,
                            std::int64_t count, Fp8Kind kind) {
  const Fp8DecodeTable& lut = fp8_decode_table(kind);
  for (std::int64_t i = 0; i < count; ++i) out[i] = lut.values[codes[i]] * inv;
}

void gemm_scalar_tier(const float* x, const PackedWeightMatrix& w, const float* bias,
                      float* y, std::int64_t rows) {
  const Fp8DecodeTable& lut = fp8_decode_table(w.kind);
  const std::int64_t n = w.n;
  const std::int64_t k = w.k;
  const std::uint8_t* codes = w.codes.data();
  const float* invs = w.inv_scales.data();
  float acc[kTileN];
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    float* yr = y + r * n;
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
      const std::int64_t jw = std::min(kTileN, n - j0);
      for (std::int64_t j = 0; j < jw; ++j) acc[j] = bias ? bias[j0 + j] : 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float xv = xr[kk];
        const std::uint8_t* crow = codes + kk * n + j0;
        for (std::int64_t j = 0; j < jw; ++j) {
          const float wv = lut.values[crow[j]] * invs[j0 + j];
          acc[j] += xv * wv;
        }
      }
      for (std::int64_t j = 0; j < jw; ++j) yr[j0 + j] = acc[j];
    }
  }
}

constexpr PackedKernelTable kScalarTable{decode_mul_scalar_tier, gemm_scalar_tier,
                                         detail::conv2d_clamped};

}  // namespace

namespace detail {

void conv2d_clamped(const Conv2dGeometry& geo, const float* xd, const float* wd,
                    const float* bd, float* yd, std::int64_t plane_lo,
                    std::int64_t plane_hi) {
  const std::int64_t ic = geo.ic;
  const std::int64_t h = geo.h;
  const std::int64_t w = geo.w;
  const std::int64_t oc = geo.oc;
  const std::int64_t icg = ic / geo.groups;
  const std::int64_t kh = geo.kh;
  const std::int64_t kw = geo.kw;
  const std::int64_t oh = geo.oh;
  const std::int64_t ow = geo.ow;
  const std::int64_t stride = geo.stride;
  const std::int64_t padding = geo.padding;
  const std::int64_t oc_per_group = oc / geo.groups;
  // Decode (batch, out-channel) once per chunk and step incrementally;
  // the division leaves the plane loop entirely.
  std::int64_t b = plane_lo / oc;
  std::int64_t o = plane_lo - b * oc;
  for (std::int64_t plane = plane_lo; plane < plane_hi; ++plane) {
    const std::int64_t g = o / oc_per_group;
    const float bias_v = bd ? bd[o] : 0.0f;
    const float* wbase = wd + o * icg * kh * kw;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const std::int64_t iy0 = oy * stride - padding;
      // Clamp the kernel window to the input once per output row /
      // column instead of bounds-testing every tap. Out-of-range taps
      // never contributed to the sum, so skipping them wholesale leaves
      // the in-range accumulation order -- and thus the result bits --
      // unchanged.
      const std::int64_t ky_lo = std::max<std::int64_t>(std::int64_t{0}, -iy0);
      const std::int64_t ky_hi = std::min<std::int64_t>(kh, h - iy0);
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float acc = bias_v;
        const std::int64_t ix0 = ox * stride - padding;
        const std::int64_t kx_lo = std::max<std::int64_t>(std::int64_t{0}, -ix0);
        const std::int64_t kx_hi = std::min<std::int64_t>(kw, w - ix0);
        for (std::int64_t c = 0; c < icg; ++c) {
          const std::int64_t in_c = g * icg + c;
          const float* xplane = xd + ((b * ic + in_c) * h) * w;
          const float* wplane = wbase + (c * kh) * kw;
          for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
            const float* xrow = xplane + (iy0 + ky) * w + ix0;
            const float* wrow = wplane + ky * kw;
            for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
              acc += xrow[kx] * wrow[kx];
            }
          }
        }
        yd[((b * oc + o) * oh + oy) * ow + ox] = acc;
      }
    }
    if (++o == oc) {
      o = 0;
      ++b;
    }
  }
}

}  // namespace detail

const PackedKernelTable& packed_kernels([[maybe_unused]] IsaTier tier) {
#if defined(FP8Q_PACKED_NATIVE_TU)
  if (tier == IsaTier::kNative && isa_native_available()) {
    return detail::packed_kernels_native_impl();
  }
#endif
  return kScalarTable;
}

PackedWeightMatrix pack_gemm_weight(const PackedFp8Tensor& packed) {
  const Shape& shape = packed.shape();
  if (shape.size() != 2) {
    throw std::invalid_argument("pack_gemm_weight: weight must be [out, in]");
  }
  PackedWeightMatrix w;
  w.n = shape[0];
  w.k = shape[1];
  w.kind = packed.kind();
  const auto& scales = packed.scales();
  if (scales.size() != static_cast<std::size_t>(w.n) && scales.size() != 1) {
    throw std::invalid_argument("pack_gemm_weight: need a scale per output channel");
  }
  w.inv_scales.resize(static_cast<std::size_t>(w.n));
  for (std::int64_t j = 0; j < w.n; ++j) {
    const float s = scales.size() == 1 ? scales[0] : scales[static_cast<std::size_t>(j)];
    // The same reciprocal the dequantize path multiplies by
    // (fp8/cast_fast.cpp), so decode * inv reproduces its bits.
    w.inv_scales[static_cast<std::size_t>(j)] = 1.0f / s;
  }
  // Transpose [n][k] row-major codes into the k-major kernel layout.
  const std::uint8_t* src = packed.codes().data();
  w.codes.resize(static_cast<std::size_t>(w.k * w.n));
  for (std::int64_t j = 0; j < w.n; ++j) {
    for (std::int64_t kk = 0; kk < w.k; ++kk) {
      w.codes[static_cast<std::size_t>(kk * w.n + j)] =
          src[static_cast<std::size_t>(j * w.k + kk)];
    }
  }
  return w;
}

PackedConvWeight pack_conv_weight(const PackedFp8Tensor& packed) {
  const Shape& shape = packed.shape();
  if (shape.size() != 4) {
    throw std::invalid_argument("pack_conv_weight: weight must be [oc, ic/g, kh, kw]");
  }
  PackedConvWeight w;
  w.oc = shape[0];
  w.block = shape[1] * shape[2] * shape[3];
  w.kind = packed.kind();
  const auto& scales = packed.scales();
  if (scales.size() != static_cast<std::size_t>(w.oc) && scales.size() != 1) {
    throw std::invalid_argument("pack_conv_weight: need a scale per output channel");
  }
  w.inv_scales.resize(static_cast<std::size_t>(w.oc));
  for (std::int64_t o = 0; o < w.oc; ++o) {
    const float s = scales.size() == 1 ? scales[0] : scales[static_cast<std::size_t>(o)];
    w.inv_scales[static_cast<std::size_t>(o)] = 1.0f / s;
  }
  w.codes = packed.codes();
  return w;
}

void packed_gemm_forward(const float* x, const PackedWeightMatrix& w, const float* bias,
                         float* y, std::int64_t rows) {
  const PackedKernelTable& kt = packed_kernels(isa_tier());
  // Same row-partition grain policy as LinearOp::forward: rows own
  // disjoint output slices with row-local accumulators, so any partition
  // -- and any tier -- yields identical bits.
  const std::int64_t cost_per_row = std::max<std::int64_t>(
      std::int64_t{1}, capped_cost(w.n, w.k, kParallelGrainFlops));
  const std::int64_t grain =
      std::max<std::int64_t>(std::int64_t{1}, kParallelGrainFlops / cost_per_row);
  parallel_for(0, rows, grain, [&](std::int64_t lo, std::int64_t hi) {
    kt.gemm(x + lo * w.k, w, bias, y + lo * w.n, hi - lo);
  });
}

}  // namespace fp8q
