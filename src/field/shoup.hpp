// Shoup multiplication by a precomputed-quotient constant.
//
// For a fixed multiplicand w < q with precomputed quotient
// w' = floor(w * 2^64 / q), the product a*w mod q of any a < 2^64 is
//
//   hi = floor(a * w' / 2^64)          (one mulhi)
//   r  = a*w - hi*q        (mod 2^64)  (two mullo)
//   r -= q if r >= q                   (the standard [0, 2q) bound)
//
// — three multiply instructions and no REDC, valid for every modulus
// width the framework admits (q < 2^62). The key identity for the
// NTT tables: for a Montgomery-domain value a_m and a *canonical*
// twiddle w, shoup_mul(a_m, w, w') is exactly the canonical
// representative of a_m * w mod q — the same word the Montgomery
// butterfly's redc(a_m * wR) produces — so a Shoup-tabled transform
// is bit-identical to the untabled REDC one by construction.
//
// Quotients are amortized constants: twiddle tables build them once
// per prime (poly/ntt.cpp), the wide-modulus matmul builds them once
// per right-hand operand (linalg/matmul.cpp).
#pragma once

#include "field/field.hpp"

namespace camelot {

// floor(w * 2^64 / q) for w < q. Build-time only (u128 division).
inline u64 shoup_quotient(u64 w, u64 q) noexcept {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

// a * w mod q, canonical, for a < 2^64, w < q < 2^63, wq the
// precomputed shoup_quotient(w, q).
inline u64 shoup_mul(u64 a, u64 w, u64 wq, u64 q) noexcept {
  const u64 hi = static_cast<u64>((static_cast<u128>(a) * wq) >> 64);
  const u64 r = a * w - hi * q;  // true value < 2q: mod-2^64 is exact
  return r - (q & -static_cast<u64>(r >= q));
}

}  // namespace camelot
