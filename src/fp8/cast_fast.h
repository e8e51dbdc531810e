// Branch-free FP8 fake-quantization via float32 bit manipulation.
//
// Semantics: identical to the reference fp8_quantize(x, spec) of
// fp8/cast.h with the default options (round-to-nearest-even,
// saturate-on-overflow) -- verified exhaustively against it in the test
// suite. This is the hot path of the emulation framework: every
// activation and weight element of every quantized operator passes
// through it.
//
// The fake-quant rule has exactly two implementations (docs/PERFORMANCE.md):
//   * fp8_quantize (fp8/cast.h) -- the scalar reference and test oracle;
//   * fp8_quantize_batch        -- a branch-free loop over a contiguous
//                                  chunk, written so the compiler
//                                  auto-vectorizes it (constant shifts,
//                                  compare-selects, no per-lane control
//                                  flow). Bit-identical to the reference,
//                                  including NaN payloads.
// fp8_quantize_scaled is the one bulk entry point: it parallelizes the
// kernel over chunks and feeds the event counters and histograms.
//
// NaN rule, shared with fp8_quantize: a NaN input comes back with its sign
// and payload and the quiet bit (0x00400000) set, so a signalling NaN is
// quietened (7f800001 -> 7fc00001) on every path. The batch kernel gets
// this from its final multiply by 1/scale, which quietens any NaN.
//
// The packed GEMM kernels (nn/packed_gemm.h, docs/KERNELS.md) apply the
// same design to the DECODE direction: fp8_decode_bits in fp8/packed.h is
// the uint32-lane counterpart of fp8_quantize_batch's encode, with the
// same reference-vs-batched pairing and the same exhaustive bit-equality
// test policy.
#pragma once

#include <cstdint>
#include <span>

#include "fp8/format.h"

namespace fp8q {

/// Precomputed per-format constants for the batch kernel.
struct FastCastSpec {
  explicit FastCastSpec(const FormatSpec& spec);

  int man_bits;
  int min_unbiased_exp;           ///< grid exponent floor (1 - bias)
  std::uint32_t max_bits;         ///< bit pattern of the largest finite value
  std::uint32_t half_min_sub;     ///< bit pattern of min_subnormal / 2
  float min_subnormal;
  std::uint32_t min_biased_exp;   ///< min_unbiased_exp + 127 (float32 bias)
  float max_value;                ///< largest finite representable magnitude
  ObsFormat obs_fmt;              ///< counter bucket for event accounting
};

/// Per-chunk quantization-event tally produced by fp8_quantize_batch, in
/// the obs/counters.h event semantics: `quantized` counts every element,
/// `saturated` counts finite overflow and +/-Inf (not NaN), `flushed`
/// counts nonzero inputs at or below half the smallest subnormal -- all
/// classified on the SCALED value, before dividing the scale back out.
struct CastTally {
  std::uint64_t quantized = 0;
  std::uint64_t saturated = 0;
  std::uint64_t flushed = 0;
};

/// Batched chunk kernel: out[i] = fp8_quantize(in[i] * scale) / scale
/// for i in [0, min(in.size, out.size)), single-threaded and branch-free.
/// `out` may alias `in` exactly (same base pointer) or not overlap at all.
/// The caller must pre-sanitize `scale` (positive, finite). When `tally`
/// is non-null the chunk's events are accumulated into it via a separate
/// classification pass over `in` BEFORE quantizing, so outputs are
/// bit-identical whether or not events are tallied.
void fp8_quantize_batch(std::span<const float> in, std::span<float> out,
                        const FastCastSpec& spec, float scale,
                        CastTally* tally = nullptr);

/// Scaled fake-quant used by the quantization schemes, the bulk entry
/// point: out[i] = fp8_quantize(in[i] * scale) / scale. `scale` maps the
/// calibrated tensor range onto the format's full range (s = float_max /
/// max_T, paper section 3.1). `out` may alias `in`. A non-finite or
/// non-positive scale is treated as 1. Parallelizes over
/// ~kParallelGrainBytes chunks and folds one event tally per chunk into
/// the event counters when counting is enabled. Custom formats pass
/// FastCastSpec(make_format(...)).
void fp8_quantize_scaled(std::span<const float> in, std::span<float> out,
                         const FastCastSpec& spec, float scale);

/// Cached FastCastSpec for one of the three paper formats.
[[nodiscard]] const FastCastSpec& fast_cast_spec(Fp8Kind kind);

}  // namespace fp8q
