// AVX-512 kernel tables (FieldBackend::kMontgomeryAvx512).
//
// Eight u64 lanes per iteration, with true 64-bit mullo products from
// vpmullq (AVX-512DQ). Two tables, one per prime width, both returning
// the scalar loops' words bit for bit:
//  * Narrow (q < 2^31): two chained REDC-32 steps, 5 vpmuludq per 8
//    lanes — the widened twin of the AVX2 table.
//  * Wide (q < 2^62): generic REDC with vpmullq low products — 10
//    multiply-class instructions per 8 lanes, which (unlike a 4-lane
//    AVX2 REDC) beats scalar mulx. This is why FieldOps keeps
//    kMontgomeryAvx512 for wide primes.
// The Shoup butterfly (ntt_stage_shoup) takes canonical twiddles with
// precomputed quotients (field/shoup.hpp): one mulhi + two mullo per
// lane, 6 multiply-class instructions per 8 wide lanes against 10 for
// the REDC butterfly, and the same words by the Shoup identity.
//
// The kernels live in field/montgomery_avx512.cpp (compiled with
// -mavx512f -mavx512dq; nothing else in the build is). Built without
// those extensions the lookup returns nullptr and resolution falls
// back a rung. Callers must check the CPU first (FieldOps does).
#pragma once

#include "field/montgomery.hpp"

namespace camelot {

// The AVX-512 table for q's width: non-null for every q > 2 in a
// build with AVX-512 kernels.
const MontKernels* avx512_kernels(u64 q) noexcept;

// Selects the AVX-512 table for a context: field() is m on that table
// when the CPU and the build have it, and m unchanged otherwise.
class MontgomeryAvx512Field {
 public:
  explicit MontgomeryAvx512Field(const MontgomeryField& m);

  const MontgomeryField& field() const noexcept { return m_; }
  // Always false: the 52-bit IFMA REDC chain lost to the REDC-32
  // chain on the hosts that offered it and was removed. Kept so host
  // fingerprints that report it keep building.
  bool ifma() const noexcept { return false; }

 private:
  MontgomeryField m_;
};

}  // namespace camelot
