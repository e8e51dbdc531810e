// kNative tier for x86-64: AVX2 packed-FP8 decode + GEMM, stride-1 Conv2d.
//
// Compiled with -mavx2 (and NOT -mfma) for this TU only; entered only
// after the runtime probe confirms AVX2 (core/cpu_dispatch.h). Every
// multiply/add is an explicit _mm256_mul_ps / _mm256_add_ps, mirroring
// the scalar tier's mul+add per element, so results are bit-identical to
// the reference at every shape and thread count (docs/KERNELS.md).
#include "nn/packed_gemm.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace fp8q {
namespace {

/// Broadcast decode constants for one format, mirroring Fp8DecodeSpec.
struct DecodeCtx {
  __m256i mask7;       ///< 0x7F magnitude mask
  __m256i mask_sign;   ///< 0x80 sign bit
  __m128i man_shift;   ///< 23 - man_bits, as a shift count
  __m256i exp_add;     ///< (127 - bias) << 23: integer exponent rebias
  __m256 sub_scale;    ///< 2^(1 - bias - man_bits)
  __m256i sub_lo;      ///< 1 << man_bits: sub_lo > mag  <=>  subnormal
  __m256i special_m1;  ///< special_lo - 1: mag > this  <=>  mag >= special_lo
  __m256i special_lo;  ///< mag > this  <=>  NaN range (IEEE family)
  __m256i inf_bits;    ///< 0x7F800000
  __m256i nan_bits;    ///< 0x7FC00000 (canonical unsigned quiet NaN)
  bool ieee;
};

DecodeCtx make_ctx(Fp8Kind kind) {
  const Fp8DecodeSpec& spec = fp8_decode_spec(kind);
  DecodeCtx d;
  d.mask7 = _mm256_set1_epi32(0x7F);
  d.mask_sign = _mm256_set1_epi32(0x80);
  d.man_shift = _mm_cvtsi32_si128(static_cast<int>(spec.man_shift));
  d.exp_add = _mm256_set1_epi32(static_cast<int>(spec.exp_add));
  d.sub_scale = _mm256_set1_ps(spec.sub_scale);
  d.sub_lo = _mm256_set1_epi32(static_cast<int>(spec.sub_lo));
  d.special_m1 = _mm256_set1_epi32(static_cast<int>(spec.special_lo) - 1);
  d.special_lo = _mm256_set1_epi32(static_cast<int>(spec.special_lo));
  d.inf_bits = _mm256_set1_epi32(0x7F800000);
  d.nan_bits = _mm256_set1_epi32(0x7FC00000);
  d.ieee = spec.ieee;
  return d;
}

/// Decodes 8 consecutive codes to float32 -- the 8-lane transcription of
/// fp8_decode_bits (fp8/packed.h): integer exponent rebias for normal
/// lanes, exact convert + power-of-two multiply for subnormal lanes (no
/// denormal float32 operand in either, so no FP assists), sign OR, then
/// compare-select the Inf/NaN lanes.
inline __m256 decode8(const std::uint8_t* codes, const DecodeCtx& d) {
  const __m256i c =
      _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes)));
  const __m256i mag = _mm256_and_si256(c, d.mask7);
  const __m256i sgn = _mm256_slli_epi32(_mm256_and_si256(c, d.mask_sign), 24);
  const __m256i norm =
      _mm256_add_epi32(_mm256_sll_epi32(mag, d.man_shift), d.exp_add);
  const __m256 sub = _mm256_mul_ps(_mm256_cvtepi32_ps(mag), d.sub_scale);
  const __m256i is_sub = _mm256_cmpgt_epi32(d.sub_lo, mag);
  const __m256i val = _mm256_blendv_epi8(norm, _mm256_castps_si256(sub), is_sub);
  __m256i bits = _mm256_or_si256(val, sgn);
  const __m256i special = _mm256_cmpgt_epi32(mag, d.special_m1);
  const __m256i is_nan = d.ieee ? _mm256_cmpgt_epi32(mag, d.special_lo) : special;
  const __m256i spec_bits =
      _mm256_blendv_epi8(_mm256_or_si256(sgn, d.inf_bits), d.nan_bits, is_nan);
  bits = _mm256_blendv_epi8(bits, spec_bits, special);
  return _mm256_castsi256_ps(bits);
}

void decode_mul_avx2(const std::uint8_t* codes, float inv, float* out, std::int64_t count,
                     Fp8Kind kind) {
  const DecodeCtx d = make_ctx(kind);
  const __m256 invv = _mm256_set1_ps(inv);
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(decode8(codes + i, d), invv));
  }
  const Fp8DecodeSpec& spec = fp8_decode_spec(kind);
  for (; i < count; ++i) {
    out[i] = std::bit_cast<float>(fp8_decode_bits(codes[i], spec)) * inv;
  }
}

void gemm_avx2(const float* x, const PackedWeightMatrix& w, const float* bias, float* y,
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
      const __m256 inv = _mm256_loadu_ps(invs + j);
      const __m256 binit = bias ? _mm256_loadu_ps(bias + j) : _mm256_setzero_ps();
      __m256 acc0 = binit;
      __m256 acc1 = binit;
      __m256 acc2 = binit;
      __m256 acc3 = binit;
      const std::uint8_t* cp = codes + j;
      for (std::int64_t kk = 0; kk < k; ++kk, cp += n) {
        const __m256 wv = _mm256_mul_ps(decode8(cp, d), inv);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(x0[kk]), wv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(x1[kk]), wv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(x2[kk]), wv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(x3[kk]), wv));
      }
      _mm256_storeu_ps(y + (r + 0) * n + j, acc0);
      _mm256_storeu_ps(y + (r + 1) * n + j, acc1);
      _mm256_storeu_ps(y + (r + 2) * n + j, acc2);
      _mm256_storeu_ps(y + (r + 3) * n + j, acc3);
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
      const __m256 inv = _mm256_loadu_ps(invs + j);
      __m256 acc = bias ? _mm256_loadu_ps(bias + j) : _mm256_setzero_ps();
      const std::uint8_t* cp = codes + j;
      for (std::int64_t kk = 0; kk < k; ++kk, cp += n) {
        const __m256 wv = _mm256_mul_ps(decode8(cp, d), inv);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(xr[kk]), wv));
      }
      _mm256_storeu_ps(yr + j, acc);
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

// ---------------------------------------------------------------------------
// Stride-1 Conv2d across output positions. The image is copied once into a
// zero-bordered grid of width pw = w + 2 * pad, and the output plane is laid
// out flat on that grid: output (oy, ox) sits at p = oy * pw + ox, and its
// tap (c, ky, kx) reads grid[c][p + ky * pw + kx]. Each tap is then one
// contiguous load across kConvLanes output positions. Lanes with ox >= ow
// (the grid's extra columns) are computed and discarded.
//
// A tap that falls outside the input reads the zero border. The clamped
// loop (detail::conv2d_clamped) skips such a tap instead of adding x * w,
// and adding the zero product would change bits (-0 + +0 = +0 for a -0.0f
// bias, 0 * Inf = NaN for a non-finite weight). So the product of an
// out-of-range tap is replaced by -0.0f with a per-lane blend before the
// add; acc + -0.0f is acc exactly for every non-signaling acc. Each element
// therefore still sees bias, then the in-range taps in c -> ky -> kx order,
// each as an explicit mul then add: the clamped loop's bits.
// ---------------------------------------------------------------------------

/// Output positions per block: kConvVecs independent 8-wide accumulators,
/// enough add chains in flight to hide the add latency.
constexpr std::int64_t kConvVecs = 4;
constexpr std::int64_t kConvLanes = 8 * kConvVecs;

/// One block of kConvLanes positions for one output channel. x points at
/// the block's first position in the group's first padded channel; masks
/// holds kh * kw rows of kConvLanes lane masks (-1 = in range, 0 = skip).
template <bool kMasked>
inline void conv_block_avx2(const float* x, std::int64_t grid, std::int64_t pw,
                            const float* w, std::int64_t icg, std::int64_t kh,
                            std::int64_t kw, const std::int32_t* masks, float bias,
                            float* out) {
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  __m256 acc[kConvVecs];
  for (std::int64_t v = 0; v < kConvVecs; ++v) acc[v] = _mm256_set1_ps(bias);
  for (std::int64_t c = 0; c < icg; ++c, x += grid) {
    const std::int32_t* m = masks;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const float* xrow = x + ky * pw;
      for (std::int64_t kx = 0; kx < kw; ++kx, ++w) {
        const __m256 wv = _mm256_broadcast_ss(w);
        for (std::int64_t v = 0; v < kConvVecs; ++v) {
          __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(xrow + kx + 8 * v), wv);
          if constexpr (kMasked) {
            const __m256 keep = _mm256_castsi256_ps(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 8 * v)));
            prod = _mm256_blendv_ps(neg_zero, prod, keep);
          }
          acc[v] = _mm256_add_ps(acc[v], prod);
        }
        if constexpr (kMasked) m += kConvLanes;
      }
    }
  }
  for (std::int64_t v = 0; v < kConvVecs; ++v) _mm256_storeu_ps(out + 8 * v, acc[v]);
}

void conv2d_avx2(const Conv2dGeometry& geo, const float* x, const float* w, const float* bias,
                 float* y, std::int64_t plane_lo, std::int64_t plane_hi) {
  if (geo.stride != 1) {
    detail::conv2d_clamped(geo, x, w, bias, y, plane_lo, plane_hi);
    return;
  }
  const std::int64_t pad = geo.padding;
  const std::int64_t pw = geo.w + 2 * pad;
  const std::int64_t grid = (geo.h + 2 * pad) * pw;
  const std::int64_t span = (geo.oh - 1) * pw + geo.ow;
  const std::int64_t blocks = (span + kConvLanes - 1) / kConvLanes;
  const std::int64_t taps = geo.kh * geo.kw;

  // Lane masks from the geometry alone, shared by every plane of the
  // chunk. Discarded lanes count as in range so that a block whose kept
  // lanes never leave the input takes the unmasked loop.
  std::vector<std::int32_t> masks(static_cast<std::size_t>(blocks * taps * kConvLanes));
  std::vector<char> masked(static_cast<std::size_t>(blocks), 0);
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    for (std::int64_t t = 0; t < taps; ++t) {
      const std::int64_t ky = t / geo.kw;
      const std::int64_t kx = t - ky * geo.kw;
      std::int32_t* lanes = masks.data() + (blk * taps + t) * kConvLanes;
      for (std::int64_t l = 0; l < kConvLanes; ++l) {
        const std::int64_t p = blk * kConvLanes + l;
        const std::int64_t oy = p / pw;
        const std::int64_t ox = p - oy * pw;
        const std::int64_t iy = oy + ky - pad;
        const std::int64_t ix = ox + kx - pad;
        const bool kept = p < span && ox < geo.ow;
        const bool in = iy >= 0 && iy < geo.h && ix >= 0 && ix < geo.w;
        lanes[l] = !kept || in ? -1 : 0;
        if (lanes[l] == 0) masked[static_cast<std::size_t>(blk)] = 1;
      }
    }
  }

  // One padded image at a time; the zero border is written once. The tail
  // slack keeps the last block's discarded lanes inside the buffer.
  std::vector<float> xpad(
      static_cast<std::size_t>(geo.ic * grid + blocks * kConvLanes - span), 0.0f);
  std::vector<float> ybuf(static_cast<std::size_t>(blocks * kConvLanes));
  const std::int64_t icg = geo.ic / geo.groups;
  const std::int64_t oc_per_group = geo.oc / geo.groups;
  std::int64_t b = plane_lo / geo.oc;
  std::int64_t o = plane_lo - b * geo.oc;
  std::int64_t padded_b = -1;
  for (std::int64_t plane = plane_lo; plane < plane_hi; ++plane) {
    if (b != padded_b) {
      for (std::int64_t c = 0; c < geo.ic; ++c) {
        const float* src = x + ((b * geo.ic + c) * geo.h) * geo.w;
        float* dst = xpad.data() + c * grid + pad * pw + pad;
        for (std::int64_t iy = 0; iy < geo.h; ++iy) {
          std::copy_n(src + iy * geo.w, geo.w, dst + iy * pw);
        }
      }
      padded_b = b;
    }
    const float* xg = xpad.data() + (o / oc_per_group) * icg * grid;
    const float* wo = w + o * icg * taps;
    const float bias_v = bias ? bias[o] : 0.0f;
    for (std::int64_t blk = 0; blk < blocks; ++blk) {
      const float* xb = xg + blk * kConvLanes;
      const std::int32_t* mb = masks.data() + blk * taps * kConvLanes;
      float* out = ybuf.data() + blk * kConvLanes;
      if (masked[static_cast<std::size_t>(blk)]) {
        conv_block_avx2<true>(xb, grid, pw, wo, icg, geo.kh, geo.kw, mb, bias_v, out);
      } else {
        conv_block_avx2<false>(xb, grid, pw, wo, icg, geo.kh, geo.kw, mb, bias_v, out);
      }
    }
    float* yp = y + (b * geo.oc + o) * geo.oh * geo.ow;
    for (std::int64_t oy = 0; oy < geo.oh; ++oy) {
      std::copy_n(ybuf.data() + oy * pw, geo.ow, yp + oy * geo.ow);
    }
    if (++o == geo.oc) {
      o = 0;
      ++b;
    }
  }
}

constexpr PackedKernelTable kAvx2Table{decode_mul_avx2, gemm_avx2, conv2d_avx2};

}  // namespace

namespace detail {

const PackedKernelTable& packed_kernels_native_impl() { return kAvx2Table; }

}  // namespace detail
}  // namespace fp8q

#endif  // defined(__x86_64__)
