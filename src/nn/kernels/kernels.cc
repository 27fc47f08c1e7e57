#include "nn/kernels/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define CAUSALTAD_KERNELS_X86 1
#else
#define CAUSALTAD_KERNELS_X86 0
#endif

namespace causaltad {
namespace nn {
namespace kernels {

// Each backend TU (kernel_impl.inc under its per-file flags) exports its
// table through one of these. The AVX TUs exist only on x86 builds — CMake
// compiles them only for x86 processors, matching this guard.
namespace baseline {
const Kernels& Table();
}
#if CAUSALTAD_KERNELS_X86
namespace avx2 {
const Kernels& Table();
}
namespace avx512 {
const Kernels& Table();
}
#endif

namespace {

bool HostSupports(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return true;
    case Isa::kAvx2:
#if CAUSALTAD_KERNELS_X86
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if CAUSALTAD_KERNELS_X86
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

const Kernels& TableFor(Isa isa) {
  CAUSALTAD_CHECK(HostSupports(isa))
      << "ISA " << IsaName(isa) << " not supported on this host";
  switch (isa) {
    case Isa::kBaseline:
      return baseline::Table();
#if CAUSALTAD_KERNELS_X86
    case Isa::kAvx2:
      return avx2::Table();
    case Isa::kAvx512:
      return avx512::Table();
#endif
    default:
      return baseline::Table();
  }
}

// Best ISA the host executes, downgraded by the CAUSALTAD_ISA override when
// set. An override naming an unsupported ISA falls back to the best
// supported one (with a warning) so a pinned CI job degrades instead of
// crashing; an unrecognized value is a hard error.
Isa DetectIsa() {
  Isa best = Isa::kBaseline;
  if (HostSupports(Isa::kAvx2)) best = Isa::kAvx2;
  if (HostSupports(Isa::kAvx512)) best = Isa::kAvx512;
  const char* env = std::getenv("CAUSALTAD_ISA");
  if (env == nullptr || env[0] == '\0') return best;
  Isa wanted = best;
  if (std::strcmp(env, "baseline") == 0) {
    wanted = Isa::kBaseline;
  } else if (std::strcmp(env, "avx2") == 0) {
    wanted = Isa::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    wanted = Isa::kAvx512;
  } else {
    CAUSALTAD_CHECK(false) << "CAUSALTAD_ISA must be baseline|avx2|avx512, "
                           << "got '" << env << "'";
  }
  if (!HostSupports(wanted)) {
    std::fprintf(stderr,
                 "causaltad: CAUSALTAD_ISA=%s unsupported on this host, "
                 "using %s\n",
                 env, IsaName(best));
    return best;
  }
  return wanted;
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "?";
}

bool Supported(Isa isa) { return HostSupports(isa); }

const Kernels& Get(Isa isa) { return TableFor(isa); }

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    const Kernels* detected = &TableFor(DetectIsa());
    // First caller wins; a concurrent first call detects the same table.
    g_active.store(detected, std::memory_order_release);
    k = detected;
  }
  return *k;
}

Isa ActiveIsa() { return Active().isa; }

void SetIsa(Isa isa) {
  g_active.store(&TableFor(isa), std::memory_order_release);
}

}  // namespace kernels
}  // namespace nn
}  // namespace causaltad
