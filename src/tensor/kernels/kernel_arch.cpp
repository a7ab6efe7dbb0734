#include "tensor/kernels/kernel_arch.hpp"

#include <atomic>
#include <cstdlib>

#include "tensor/kernels/kernel_impl.hpp"

namespace fedguard::tensor::kernels {

namespace {

// Dispatch state is deliberately lock-free (layer 4 of the static-analysis
// gate audits every lock): one relaxed atomic for the runtime override plus
// function-local statics (thread-safe one-time init per [stmt.dcl]) for the
// env/cpuid probes — a kernel launch never takes a mutex to pick its tier.

// Explicit override from the descriptor / set_kernel_arch(). Auto == unset.
std::atomic<KernelArch> g_override{KernelArch::Auto};

KernelArch env_arch() {
  // Read once: the environment is process-wide startup configuration, not a
  // runtime knob (same contract as FEDGUARD_THREADS). Unparseable values
  // fall back to Auto rather than aborting.
  static const KernelArch value = [] {
    KernelArch parsed = KernelArch::Auto;
    if (const char* text = std::getenv("FEDGUARD_KERNEL_ARCH")) {
      parse_kernel_arch(text, parsed);
    }
    return parsed;
  }();
  return value;
}

bool cpu_supports(KernelArch arch) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  switch (arch) {
    case KernelArch::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case KernelArch::Avx512:
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
    default:
      return true;
  }
#else
  return arch == KernelArch::Serial || arch == KernelArch::Auto;
#endif
}

constexpr KernelTable kSerialTable{
    KernelArch::Serial,              nullptr,
    4,                               16,
    nullptr,                         1,
    &serial::squared_distance_tiles, &serial::squared_distance_wide,
    &serial::sgd_step,               &serial::adam_step,
};

#if FEDGUARD_HAVE_AVX2
constexpr KernelTable kAvx2Table{
    KernelArch::Avx2,              &avx2::gemm_micro_6x16,
    6,                             16,
    &avx2::gemm_tb,                avx2::kGemmTbMr,
    &avx2::squared_distance_tiles, &avx2::squared_distance_wide,
    &avx2::sgd_step,               &avx2::adam_step,
};
#endif

#if FEDGUARD_HAVE_AVX512
constexpr KernelTable kAvx512Table{
    KernelArch::Avx512,              &avx512::gemm_micro_8x32,
    8,                               32,
    &avx512::gemm_tb,                avx512::kGemmTbMr,
    &avx512::squared_distance_tiles, &avx512::squared_distance_wide,
    &avx512::sgd_step,               &avx512::adam_step,
};
#endif

KernelArch best_available() {
  static const KernelArch value = [] {
    if (kernel_arch_available(KernelArch::Avx512)) return KernelArch::Avx512;
    if (kernel_arch_available(KernelArch::Avx2)) return KernelArch::Avx2;
    return KernelArch::Serial;
  }();
  return value;
}

/// Degrade an unavailable request down the chain instead of failing:
/// avx512 -> avx2 -> serial.
KernelArch resolve(KernelArch requested) {
  switch (requested) {
    case KernelArch::Auto:
      return best_available();
    case KernelArch::Avx512:
      if (kernel_arch_available(KernelArch::Avx512)) return KernelArch::Avx512;
      [[fallthrough]];
    case KernelArch::Avx2:
      if (kernel_arch_available(KernelArch::Avx2)) return KernelArch::Avx2;
      [[fallthrough]];
    default:
      return KernelArch::Serial;
  }
}

}  // namespace

bool parse_kernel_arch(std::string_view text, KernelArch& out) noexcept {
  if (text == "auto") out = KernelArch::Auto;
  else if (text == "serial") out = KernelArch::Serial;
  else if (text == "avx2") out = KernelArch::Avx2;
  else if (text == "avx512") out = KernelArch::Avx512;
  else return false;
  return true;
}

std::string_view to_string(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::Auto: return "auto";
    case KernelArch::Serial: return "serial";
    case KernelArch::Avx2: return "avx2";
    case KernelArch::Avx512: return "avx512";
  }
  return "unknown";
}

bool kernel_arch_available(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::Auto:
    case KernelArch::Serial:
      return true;
    case KernelArch::Avx2:
#if FEDGUARD_HAVE_AVX2
      return cpu_supports(KernelArch::Avx2);
#else
      return false;
#endif
    case KernelArch::Avx512:
#if FEDGUARD_HAVE_AVX512
      return cpu_supports(KernelArch::Avx512);
#else
      return false;
#endif
  }
  return false;
}

void set_kernel_arch(KernelArch arch) noexcept {
  g_override.store(arch, std::memory_order_relaxed);
}

KernelArch requested_kernel_arch() noexcept {
  const KernelArch forced = g_override.load(std::memory_order_relaxed);
  if (forced != KernelArch::Auto) return forced;
  return env_arch();
}

KernelArch active_kernel_arch() noexcept {
  return resolve(requested_kernel_arch());
}

const KernelTable& kernel_table() noexcept {
  switch (active_kernel_arch()) {
#if FEDGUARD_HAVE_AVX2
    case KernelArch::Avx2:
      return kAvx2Table;
#endif
#if FEDGUARD_HAVE_AVX512
    case KernelArch::Avx512:
      return kAvx512Table;
#endif
    default:
      return kSerialTable;
  }
}

}  // namespace fedguard::tensor::kernels
