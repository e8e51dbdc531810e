#include "core/cpu_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

namespace fp8q {

namespace {

bool probe_native() {
#if defined(__aarch64__)
  // Advanced SIMD (NEON) is architecturally mandatory on AArch64.
  return true;
#elif defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool native_available_cached() {
  static const bool value = probe_native();
  return value;
}

/// The best tier this CPU runs: kNative, or kScalar without a native path.
IsaTier best_tier() {
  return native_available_cached() ? IsaTier::kNative : IsaTier::kScalar;
}

/// FP8Q_ISA parse; "scalar" pins the reference tier, anything else
/// ("native", "avx2", "neon", unset or unknown) takes the best tier.
IsaTier env_default_tier() {
  const char* v = std::getenv("FP8Q_ISA");
  if (v != nullptr && std::strcmp(v, "scalar") == 0) return IsaTier::kScalar;
  return best_tier();
}

IsaTier env_tier_cached() {
  static const IsaTier value = env_default_tier();
  return value;
}

/// -1 = use the FP8Q_ISA / probe default; otherwise an IsaTier value.
std::atomic<int> g_tier_override{-1};

}  // namespace

const char* to_string(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar: return "scalar";
    case IsaTier::kNative: return "native";
  }
  return "?";
}

IsaTier isa_tier() {
  const int override_v = g_tier_override.load(std::memory_order_relaxed);
  if (override_v >= 0) return static_cast<IsaTier>(override_v);
  return env_tier_cached();
}

void set_isa_tier(IsaTier tier) {
  if (tier == IsaTier::kNative) tier = best_tier();
  g_tier_override.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void reset_isa_tier() { g_tier_override.store(-1, std::memory_order_relaxed); }

bool isa_native_available() { return native_available_cached(); }

const char* isa_native_name() {
#if defined(__aarch64__)
  return "neon";
#elif defined(__x86_64__) || defined(__i386__)
  return native_available_cached() ? "avx2" : "none";
#else
  return "none";
#endif
}

const char* isa_label() {
  const IsaTier tier = isa_tier();
  if (tier == IsaTier::kScalar) return to_string(tier);
  static const std::string native =
      std::string(to_string(IsaTier::kNative)) + ":" + isa_native_name();
  return native.c_str();
}

}  // namespace fp8q
