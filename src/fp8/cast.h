// FP8 casting reference: bit-exact encode/decode between float32 and 8-bit
// codes, plus the scalar fused quantize-dequantize ("fake quant"). This
// mirrors the role of the FP8 Emulation Toolkit referenced by the paper:
// all arithmetic stays in FP32, values are snapped onto the FP8 grid at
// operator boundaries.
//
// fp8_quantize here is one of the two implementations of the fake-quant
// rule (round to nearest even, then saturate). It is the test oracle, and
// the only path with the other rounding modes and overflow policies. The
// other implementation is the branch-free kernel in fp8/cast_fast.h, whose
// fp8_quantize_scaled is the bulk entry point every tensor cast runs
// through.
#pragma once

#include <cstdint>
#include <vector>

#include "fp8/format.h"

namespace fp8q {

/// Rounding mode applied when a float32 value falls between two FP8 grid
/// points. The paper (and all FP8 inference hardware) uses round-to-nearest-
/// even; stochastic rounding is provided for completeness/ablation.
enum class RoundingMode : std::uint8_t { kNearestEven, kStochastic, kTowardZero };

/// What to do with magnitudes beyond the largest finite value.
enum class OverflowPolicy : std::uint8_t {
  kSaturate,     ///< clamp to +/-max (inference default)
  kInfinityNan,  ///< IEEE behaviour: overflow to Inf (E5M2) or NaN (extended)
};

/// Options bundle for the casting routines.
struct CastOptions {
  RoundingMode rounding = RoundingMode::kNearestEven;
  OverflowPolicy overflow = OverflowPolicy::kSaturate;
  /// State for stochastic rounding; ignored for deterministic modes.
  std::uint64_t* rng_state = nullptr;
};

/// Encodes a float32 value into the 8-bit code of `spec`.
[[nodiscard]] std::uint8_t fp8_encode(float x, const FormatSpec& spec,
                                      const CastOptions& opts = {});

/// Decodes an 8-bit code of `spec` into the exact float32 value it denotes.
/// NaN codes produce quiet NaN; Inf codes (IEEE family) produce +/-Inf.
[[nodiscard]] float fp8_decode(std::uint8_t code, const FormatSpec& spec);

/// Fused quantize-dequantize: the float32 value nearest-representable in
/// `spec`. Equal to fp8_decode(fp8_encode(x)) for every non-NaN input
/// (tested exhaustively) but avoids the intermediate code. A NaN input
/// comes back with its sign and payload and the quiet bit set.
[[nodiscard]] float fp8_quantize(float x, const FormatSpec& spec,
                                 const CastOptions& opts = {});

/// Convenience overloads on the paper's three formats.
[[nodiscard]] inline float fp8_quantize(float x, Fp8Kind kind,
                                        const CastOptions& opts = {}) {
  return fp8_quantize(x, format_spec(kind), opts);
}
[[nodiscard]] inline std::uint8_t fp8_encode(float x, Fp8Kind kind,
                                             const CastOptions& opts = {}) {
  return fp8_encode(x, format_spec(kind), opts);
}
[[nodiscard]] inline float fp8_decode(std::uint8_t code, Fp8Kind kind) {
  return fp8_decode(code, format_spec(kind));
}

/// Every finite value representable by `spec`, ascending, deduplicated
/// (+0 and -0 collapse to one entry). Useful for grid/density analyses
/// (paper Figure 1 center panel).
[[nodiscard]] std::vector<float> representable_values(const FormatSpec& spec);

/// Canonical NaN code for `spec` (sign bit clear).
[[nodiscard]] std::uint8_t fp8_nan_code(const FormatSpec& spec);

/// True if `code` denotes NaN under `spec`.
[[nodiscard]] bool fp8_is_nan(std::uint8_t code, const FormatSpec& spec);

/// True if `code` denotes +/-Infinity under `spec` (always false for the
/// extended-encoding formats).
[[nodiscard]] bool fp8_is_inf(std::uint8_t code, const FormatSpec& spec);

}  // namespace fp8q
