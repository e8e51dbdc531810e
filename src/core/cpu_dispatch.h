// Runtime CPU dispatch for the packed FP8 kernels (docs/KERNELS.md).
//
// The packed GEMM/conv kernels (nn/packed_gemm.h) come in two tiers that
// produce bit-identical results and differ only in speed:
//
//   kScalar   portable reference: table-lookup decode, plain loops. The
//             bit-exactness anchor the native tier is tested against, and
//             the fallback on targets without a native path.
//   kNative   explicit SIMD (AVX2 on x86-64, NEON on aarch64) with the
//             same per-element operation order as the scalar tier.
//
// Tier resolution order: set_isa_tier() override > the FP8Q_ISA
// environment variable ("scalar" | "native"; "avx2"/"neon" are accepted
// aliases for "native") > the best tier the CPU supports. A request for
// kNative on a machine without a native path clamps to kScalar, so
// isa_tier() always names a tier that can actually run.
//
// The probe is a one-time cpuid check (__builtin_cpu_supports on x86-64;
// NEON is baseline on aarch64), cached after first use. Dispatch happens
// per kernel call by indexing a per-kernel function table with the tier
// (packed_kernels in nn/packed_gemm.h), so tests can flip tiers between
// calls with set_isa_tier().
#pragma once

namespace fp8q {

/// Kernel implementation tiers, ordered from reference to fastest.
enum class IsaTier { kScalar = 0, kNative = 1 };

/// Stable lowercase tier names used in reports and bench JSON
/// ("scalar", "native").
[[nodiscard]] const char* to_string(IsaTier tier);

/// The tier packed kernels dispatch on (see resolution order above).
/// Always satisfiable: never returns kNative unless isa_native_available().
[[nodiscard]] IsaTier isa_tier();

/// Programmatic override of the FP8Q_ISA / probe default (tests, benches).
/// A kNative request without native support clamps to kScalar.
void set_isa_tier(IsaTier tier);

/// Clears the override and restores the FP8Q_ISA / probe default.
void reset_isa_tier();

/// True when an explicit SIMD path exists for this CPU (AVX2 or NEON).
[[nodiscard]] bool isa_native_available();

/// Name of the native path: "avx2", "neon", or "none". Independent of the
/// selected tier -- reports record both.
[[nodiscard]] const char* isa_native_name();

/// "scalar" / "native:avx2" / "native:neon" -- the fully resolved
/// dispatch label written into run reports and bench rows.
[[nodiscard]] const char* isa_label();

}  // namespace fp8q
