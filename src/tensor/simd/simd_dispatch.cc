#include "tensor/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/logging.h"

namespace widen::tensor::simd {
namespace {

std::atomic<const Kernels*> g_active{nullptr};
std::mutex g_init_mu;

#if defined(__x86_64__) || defined(_M_X64)
bool CpuHasAvx2Fma() {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  // The AVX2 table assumes both features (FMA for the reduction kernels).
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}
#endif

// Records the installed ISA where bench/profiler consumers can see it.
void PublishIsa(Isa isa) {
  obs::SetProfileAnnotation("simd_isa", IsaName(isa));
  WIDEN_METRIC_GAUGE(isa_gauge, "widen_simd_isa",
                     "Active SIMD kernel table (0=scalar, 1=avx2, 2=neon)");
  isa_gauge->Set(static_cast<double>(isa));
}

const Kernels& TableFor(Isa isa) {
  switch (isa) {
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::kAvx2:
      return Avx2Kernels();
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return NeonKernels();
#endif
    default:
      return ScalarKernels();
  }
}

Isa BestSupported() {
#if defined(__x86_64__) || defined(_M_X64)
  if (CpuHasAvx2Fma()) return Isa::kAvx2;
#endif
#if defined(__aarch64__)
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

// WIDEN_SIMD: auto (default) | off | scalar | avx2 | neon.
Isa ResolveFromEnv() {
  const char* env = std::getenv("WIDEN_SIMD");
  const std::string v = env == nullptr ? "auto" : env;
  if (v == "auto" || v.empty()) return BestSupported();
  if (v == "off" || v == "scalar") return Isa::kScalar;
  Isa want = Isa::kScalar;
  if (v == "avx2") {
    want = Isa::kAvx2;
  } else if (v == "neon") {
    want = Isa::kNeon;
  } else {
    WIDEN_LOG(Warning) << "unknown WIDEN_SIMD='" << v
                       << "' (expected auto|off|scalar|avx2|neon); using "
                       << IsaName(BestSupported());
    return BestSupported();
  }
  if (!IsaSupported(want)) {
    WIDEN_LOG(Warning) << "WIDEN_SIMD=" << v
                       << " not supported on this CPU/build; falling back "
                          "to scalar kernels";
    return Isa::kScalar;
  }
  return want;
}

const Kernels* InitActive() {
  std::lock_guard<std::mutex> lock(g_init_mu);
  const Kernels* k = g_active.load(std::memory_order_relaxed);
  if (k != nullptr) return k;
  const Isa isa = ResolveFromEnv();
  k = &TableFor(isa);
  PublishIsa(isa);
  WIDEN_LOG(Info) << "SIMD kernel table: " << IsaName(isa);
  g_active.store(k, std::memory_order_release);
  return k;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return CpuHasAvx2Fma();
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) k = InitActive();
  return *k;
}

Isa ActiveIsa() { return Active().isa; }

Isa ForceIsa(Isa isa) {
  if (!IsaSupported(isa)) {
    WIDEN_LOG(Warning) << "ForceIsa(" << IsaName(isa)
                       << "): unsupported; installing scalar kernels";
    isa = Isa::kScalar;
  }
  const Isa previous = ActiveIsa();  // resolves the table if still unset
  std::lock_guard<std::mutex> lock(g_init_mu);
  g_active.store(&TableFor(isa), std::memory_order_release);
  PublishIsa(isa);
  return previous;
}

}  // namespace widen::tensor::simd
