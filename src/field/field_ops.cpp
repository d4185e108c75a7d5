#include "field/field_ops.hpp"

#include <cstdlib>
#include <stdexcept>

#include "field/montgomery_avx512.hpp"
#include "field/montgomery_simd.hpp"
#include "poly/ntt.hpp"

namespace camelot {

namespace {

// Both checks are evaluated once. This translation unit is compiled
// *without* -mavx2 (only field/montgomery_simd.cpp gets the flag), so
// the detection code itself runs on any x86-64.
bool detect_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool detect_avx512() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

// "Set" means non-empty and not exactly "0" — the shared parse for
// every CAMELOT_FORCE_* override.
bool env_flag_set(const char* name) noexcept {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool detect_runtime_enabled() noexcept {
  if (!detect_avx2()) return false;
  return !env_flag_set("CAMELOT_FORCE_SCALAR");
}

bool detect_512_runtime_enabled() noexcept {
  if (!detect_avx512()) return false;
  return !env_flag_set("CAMELOT_FORCE_SCALAR") &&
         !env_flag_set("CAMELOT_FORCE_AVX2");
}

// The downgrade ladder, applied once at handle construction so every
// consumer can branch on backend() alone; `*kernels` receives the
// table the resolved backend runs on (nullptr for the scalar ones).
// A lane rung is kept only when this process can run it and it has a
// table for q: AVX-512 has narrow and wide tables, AVX2 only a narrow
// one (for q >= 2^31 the 4-lane REDC ties scalar mulx), and neither
// has one for q == 2 (identity-domain mode).
FieldBackend resolve(FieldBackend requested, u64 modulus,
                     const MontKernels** kernels) noexcept {
  *kernels = nullptr;
  if (requested == FieldBackend::kMontgomeryAvx512) {
    if (simd512_runtime_enabled() &&
        (*kernels = avx512_kernels(modulus)) != nullptr) {
      return requested;
    }
    requested = FieldBackend::kMontgomeryAvx2;
  }
  if (requested == FieldBackend::kMontgomeryAvx2) {
    if (simd_runtime_enabled() &&
        (*kernels = avx2_kernels(modulus)) != nullptr) {
      return requested;
    }
    return FieldBackend::kMontgomery;
  }
  return requested;
}

}  // namespace

bool cpu_supports_avx2() noexcept {
  static const bool has = detect_avx2();
  return has;
}

bool cpu_supports_avx512() noexcept {
  static const bool has = detect_avx512();
  return has;
}

bool simd_runtime_enabled() noexcept {
  static const bool enabled = detect_runtime_enabled();
  return enabled;
}

bool simd512_runtime_enabled() noexcept {
  static const bool enabled = detect_512_runtime_enabled();
  return enabled;
}

FieldBackend best_backend() noexcept {
  if (simd512_runtime_enabled()) return FieldBackend::kMontgomeryAvx512;
  return simd_runtime_enabled() ? FieldBackend::kMontgomeryAvx2
                                : FieldBackend::kMontgomery;
}

FieldOps::FieldOps(const PrimeField& f, FieldBackend backend)
    : FieldOps(MontgomeryField(f), backend) {}

FieldOps::FieldOps(const MontgomeryField& mont, FieldBackend backend,
                   std::shared_ptr<const NttTables> ntt)
    : mont_(mont), ntt_(std::move(ntt)) {
  const MontKernels* kernels = nullptr;
  backend_ = resolve(backend, mont_.modulus(), &kernels);
  mont_ = mont_.with_kernels(kernels);
  if (ntt_ != nullptr && ntt_->modulus() != mont_.modulus()) {
    throw std::invalid_argument("FieldOps: twiddle table modulus mismatch");
  }
}

}  // namespace camelot
