// Type-erased field backend handle — the single seam through which
// the framework selects its arithmetic backend.
//
// Every polynomial kernel is a template over two fields: PrimeField
// (canonical words, division reduction; the reference) and
// MontgomeryField (the fast one). FieldOps erases that seam at the API
// layer. A handle carries the Montgomery context for a prime (plus
// optional NTT twiddle tables, see FieldCache) and a FieldBackend tag
// saying which of the two the decode/verify stages should run. The
// lane backends are not separate types: resolving one picks the
// context's kernel table once (field/montgomery.hpp), and every
// consumer of mont() runs on it without knowing which it is.
//
// The handle is a value type (a context, a shared_ptr and a tag):
// copy it freely. Hot kernels still copy the underlying
// MontgomeryField by value into registers exactly as before.
#pragma once

#include <memory>

#include "field/montgomery.hpp"

namespace camelot {

class NttTables;

enum class FieldBackend {
  // Montgomery-domain pipeline (two 64x64 multiplies + shift per mul),
  // scalar batch loops.
  kMontgomery,
  // Canonical representatives, hardware-division reduction. Kept for
  // A/B measurement and as the reference in differential tests.
  kPrimeDivision,
  // Montgomery-domain pipeline with the batch kernels on the AVX2
  // table (4 u64 lanes, field/montgomery_simd.hpp). Same values as
  // kMontgomery, bit for bit; only the instruction mix differs. A
  // request *resolves* at runtime and silently degrades to kMontgomery
  // without AVX2, with CAMELOT_FORCE_SCALAR set, or where the table
  // has no kernels (q >= 2^31, where 4 lanes tie scalar mulx, and
  // q == 2), so it is always safe to ask for.
  kMontgomeryAvx2,
  // Montgomery-domain pipeline on an AVX-512 table (8 u64 lanes,
  // field/montgomery_avx512.hpp): REDC-32 chain for narrow primes,
  // vpmullq REDC for wide ones, where 8 lanes beat scalar mulx.
  // Resolution degrades a request to kMontgomeryAvx2 (and onward to
  // kMontgomery) when the CPU lacks AVX-512F/DQ, when
  // CAMELOT_FORCE_SCALAR or CAMELOT_FORCE_AVX2 is set, or for q == 2.
  kMontgomeryAvx512,
};

// True iff this process can run the AVX2 kernels: the CPU reports
// AVX2 *and* the CAMELOT_FORCE_SCALAR environment override is not set
// (checked once; set it to any non-empty value other than "0" to pin
// every resolved handle to the scalar pipeline for testing).
bool simd_runtime_enabled() noexcept;

// True iff this process can run the AVX-512 kernels: the CPU reports
// AVX-512F and AVX-512DQ, and neither CAMELOT_FORCE_SCALAR nor
// CAMELOT_FORCE_AVX2 is set (CAMELOT_FORCE_AVX2 pins resolution to
// the 4-lane kernels for A/B measurement on AVX-512 hosts; same
// "non-empty and not exactly 0" parse as CAMELOT_FORCE_SCALAR).
bool simd512_runtime_enabled() noexcept;

// Raw CPUID bits, ignoring the environment overrides.
bool cpu_supports_avx2() noexcept;
bool cpu_supports_avx512() noexcept;  // AVX-512F + AVX-512DQ

// The fastest backend this process can run: kMontgomeryAvx512 when
// simd512_runtime_enabled(), then kMontgomeryAvx2 when
// simd_runtime_enabled(), kMontgomery otherwise.
FieldBackend best_backend() noexcept;

class FieldOps {
 public:
  // Implicit on purpose: legacy call sites pass a bare PrimeField
  // where a backend handle is expected and get a fresh (default
  // Montgomery) context. Hot paths should come through a FieldCache
  // so the context and twiddle tables are shared instead.
  FieldOps(const PrimeField& f,  // NOLINT(google-explicit-constructor)
           FieldBackend backend = FieldBackend::kMontgomery);

  // Resolves `backend` for mont's prime and keeps a copy of mont on
  // the matching kernel table.
  FieldOps(const MontgomeryField& mont, FieldBackend backend,
           std::shared_ptr<const NttTables> ntt = nullptr);

  u64 modulus() const noexcept { return mont_.modulus(); }
  // The *resolved* backend: a lane request comes back downgraded
  // (kMontgomeryAvx512 -> kMontgomeryAvx2 -> kMontgomery) when the
  // process cannot run — or would not profit from — the wider lanes.
  FieldBackend backend() const noexcept { return backend_; }
  // True iff mont() runs its batch kernels on a lane table.
  bool simd() const noexcept { return mont_.kernels() != nullptr; }

  // The canonical-representative view (always available).
  const PrimeField& prime() const noexcept { return mont_.base(); }
  // The Montgomery-domain view on the resolved kernel table (always
  // available; count/ evaluators and the default decode pipeline run
  // on it).
  const MontgomeryField& mont() const noexcept { return mont_; }

  // Shared twiddle tables for this prime, or nullptr when the handle
  // was built outside a FieldCache.
  const std::shared_ptr<const NttTables>& ntt_tables() const noexcept {
    return ntt_;
  }

  // Same prime and backend (twiddle tables are an optimization detail
  // and do not participate in identity).
  friend bool operator==(const FieldOps& a, const FieldOps& b) noexcept {
    return a.modulus() == b.modulus() && a.backend_ == b.backend_;
  }

 private:
  MontgomeryField mont_;
  std::shared_ptr<const NttTables> ntt_;
  FieldBackend backend_;
};

}  // namespace camelot
