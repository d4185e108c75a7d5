// Univariate polynomials over Z_q (paper §2.2, "fast arithmetic
// toolbox" of von zur Gathen & Gerhard).
//
// A Poly is a coefficient vector c[0..] with c[i] the coefficient of
// x^i; the zero polynomial is the empty vector. All operations take
// the field explicitly.
//
// Every kernel is a template over the field, instantiated for exactly
// two: PrimeField (canonical representatives, the reference) and
// MontgomeryField (Montgomery-domain values, the fast one). On
// MontgomeryField the mul-heavy inner loops below go through its batch
// kernels, which run on whatever lane table the context carries with
// bit-identical results. A Poly does not know which domain its
// coefficients live in — the caller pairs coefficients with the field
// that produced them, exactly as it already pairs them with a modulus.
// The explicit instantiations live in poly.cpp.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/arena.hpp"
#include "field/field.hpp"
#include "field/montgomery.hpp"
#include "poly/ntt.hpp"

namespace camelot {

struct Poly {
  std::vector<u64> c;

  Poly() = default;
  explicit Poly(std::vector<u64> coeffs) : c(std::move(coeffs)) {}

  bool is_zero() const noexcept { return c.empty(); }
  // Degree of the zero polynomial is reported as -1.
  int degree() const noexcept { return static_cast<int>(c.size()) - 1; }
  u64 coeff(std::size_t i) const noexcept { return i < c.size() ? c[i] : 0; }

  // Drops trailing zero coefficients (canonical form).
  void trim() {
    while (!c.empty() && c.back() == 0) c.pop_back();
  }

  static Poly zero() { return Poly{}; }

  // Constant polynomial with in-domain value v (reduce() canonicalizes
  // for PrimeField and is a no-op on Montgomery-domain values).
  template <class Field>
  static Poly constant(u64 v, const Field& f) {
    Poly p;
    v = f.reduce(v);
    if (v != 0) p.c.push_back(v);
    return p;
  }

  // x - a for in-domain a.
  template <class Field>
  static Poly linear_root(u64 a, const Field& f) {
    Poly p;
    p.c = {f.neg(f.reduce(a)), f.one()};
    return p;
  }
};

template <class Field>
Poly poly_add(const Poly& a, const Poly& b, const Field& fref) {
  const Field f = fref;  // registers, not reloads, across the stores
  Poly r;
  r.c.resize(std::max(a.c.size(), b.c.size()), 0);
  for (std::size_t i = 0; i < r.c.size(); ++i) {
    r.c[i] = f.add(a.coeff(i), b.coeff(i));
  }
  r.trim();
  return r;
}

template <class Field>
Poly poly_sub(const Poly& a, const Poly& b, const Field& fref) {
  const Field f = fref;
  Poly r;
  r.c.resize(std::max(a.c.size(), b.c.size()), 0);
  for (std::size_t i = 0; i < r.c.size(); ++i) {
    r.c[i] = f.sub(a.coeff(i), b.coeff(i));
  }
  r.trim();
  return r;
}

template <class Field>
Poly poly_scale(const Poly& a, u64 s, const Field& fref) {
  const Field f = fref;
  Poly r = a;
  s = f.reduce(s);
  if constexpr (FieldHasBatchKernels<Field>) {
    f.scale_vec(r.c.data(), s, r.c.data(), r.c.size());
  } else {
    for (u64& v : r.c) v = f.mul(v, s);
  }
  r.trim();
  return r;
}

namespace poly_detail {

// Below this size schoolbook beats Karatsuba; below ~512 coefficients
// Karatsuba beats NTT setup cost.
constexpr std::size_t kKaratsubaThreshold = 32;
constexpr std::size_t kNttThreshold = 512;

// Quadratic product on raw coefficient spans into the caller's vector
// type: a.size()+b.size()-1 entries, empty if either input is.
template <class Field, class Vec>
Vec schoolbook(std::span<const u64> a, std::span<const u64> b,
               const Field& fref) {
  if (a.empty() || b.empty()) return {};
  const Field f = fref;  // registers, not reloads, across the stores
  Vec r(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    if constexpr (FieldHasBatchKernels<Field>) {
      f.addmul_inplace(r.data() + i, a[i], b.data(), b.size());
    } else {
      for (std::size_t j = 0; j < b.size(); ++j) {
        r[i + j] = f.add(r[i + j], f.mul(a[i], b[j]));
      }
    }
  }
  return r;
}

// Karatsuba recursion on raw coefficient spans; every temporary
// (split sums, the three sub-products, the recombination buffer) is
// arena scratch when the calling thread has one bound.
template <class Field>
ScratchVec kara_rec(std::span<const u64> a, std::span<const u64> b,
                    const Field& fref) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return schoolbook<Field, ScratchVec>(a, b, fref);
  }
  const Field f = fref;
  const std::size_t h = std::max(a.size(), b.size()) / 2;
  auto lo = [&](std::span<const u64> v) {
    return v.subspan(0, std::min(h, v.size()));
  };
  auto hi = [&](std::span<const u64> v) {
    return v.size() > h ? v.subspan(h) : std::span<const u64>{};
  };
  ScratchVec z0 = kara_rec(lo(a), lo(b), f);
  ScratchVec z2 = kara_rec(hi(a), hi(b), f);
  // (a_lo + a_hi)(b_lo + b_hi)
  ScratchVec as(std::max(lo(a).size(), hi(a).size()), 0);
  ScratchVec bs(std::max(lo(b).size(), hi(b).size()), 0);
  for (std::size_t i = 0; i < lo(a).size(); ++i) as[i] = lo(a)[i];
  for (std::size_t i = 0; i < hi(a).size(); ++i) as[i] = f.add(as[i], hi(a)[i]);
  for (std::size_t i = 0; i < lo(b).size(); ++i) bs[i] = lo(b)[i];
  for (std::size_t i = 0; i < hi(b).size(); ++i) bs[i] = f.add(bs[i], hi(b)[i]);
  ScratchVec z1 = kara_rec(as, bs, f);

  ScratchVec r(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < z0.size(); ++i) r[i] = f.add(r[i], z0[i]);
  for (std::size_t i = 0; i < z2.size(); ++i) {
    r[i + 2 * h] = f.add(r[i + 2 * h], z2[i]);
  }
  for (std::size_t i = 0; i < z1.size(); ++i) {
    u64 mid = z1[i];
    if (i < z0.size()) mid = f.sub(mid, z0[i]);
    if (i < z2.size()) mid = f.sub(mid, z2[i]);
    r[i + h] = f.add(r[i + h], mid);
  }
  return r;
}

// Karatsuba product into the caller's vector type (schoolbook below
// kKaratsubaThreshold); result has n+m-1 entries. Vec = ScratchVec
// moves the recursion's buffer out directly; the std::vector default
// copies once at the top.
template <class Field, class Vec = std::vector<u64>>
Vec kara(std::span<const u64> a, std::span<const u64> b, const Field& f) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return schoolbook<Field, Vec>(a, b, f);
  }
  ScratchVec r = kara_rec(a, b, f);
  if constexpr (std::is_same_v<Vec, ScratchVec>) {
    return r;
  } else {
    return Vec(r.begin(), r.end());
  }
}

// The product dispatcher — the one place the NTT/Karatsuba choice is
// made. Products of at least kNttThreshold words go through the NTT
// when the field hosts the transform (the tabled Shoup butterfly when
// `tables` covers it, the REDC twiddle chain otherwise; the PrimeField
// reference is always untabled), everything else through Karatsuba
// with its schoolbook base case. Field arithmetic is exact, so every
// path returns the same words. Result has a.size()+b.size()-1 entries
// (empty if either input is empty).
template <class Field, class Vec = std::vector<u64>>
Vec mul(std::span<const u64> a, std::span<const u64> b, const Field& f,
        const NttTables* tables = nullptr) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out = a.size() + b.size() - 1;
  if (out < kNttThreshold || !ntt_supports_size(f, out)) {
    return kara<Field, Vec>(a, b, f);
  }
  if constexpr (std::is_same_v<Field, PrimeField>) {
    std::vector<u64> r = ntt_convolve(a, b, f);
    if constexpr (std::is_same_v<Vec, std::vector<u64>>) {
      return r;
    } else {
      return Vec(r.begin(), r.end());
    }
  } else if constexpr (std::is_same_v<Vec, ScratchVec>) {
    return ntt_convolve_scratch(a, b, f, tables);
  } else {
    return ntt_convolve(a, b, f, tables);
  }
}

}  // namespace poly_detail

// Quadratic-time product (kept public for differential testing).
template <class Field>
Poly poly_mul_schoolbook(const Poly& a, const Poly& b, const Field& f) {
  Poly r{poly_detail::schoolbook<Field, std::vector<u64>>(a.c, b.c, f)};
  r.trim();
  return r;
}

// Karatsuba product (public for differential testing).
template <class Field>
Poly poly_mul_karatsuba(const Poly& a, const Poly& b, const Field& f) {
  Poly r{poly_detail::kara(a.c, b.c, f)};
  r.trim();
  return r;
}

// Product through poly_detail::mul. `tables` (Montgomery field only;
// null for none) must share f's modulus and is used when it covers the
// transform.
template <class Field>
Poly poly_mul(const Poly& a, const Poly& b, const Field& f,
              const NttTables* tables = nullptr) {
  Poly r{poly_detail::mul(a.c, b.c, f, tables)};
  r.trim();
  return r;
}

// Euclidean division: a = q*b + r with deg r < deg b. Requires b != 0.
// Classical quadratic elimination — the right tool below the fast-
// division crossover; for large operands use poly_divrem_auto
// (poly/fast_div.hpp), which dispatches here or to the Newton-inverse
// reverse-trick division by size.
template <class Field>
void poly_divrem(const Poly& a, const Poly& b, const Field& fref, Poly* q,
                 Poly* r) {
  if (b.is_zero()) throw std::invalid_argument("poly_divrem: divide by zero");
  const Field f = fref;
  Poly rem = a;
  rem.trim();
  Poly quot;
  const int db = b.degree();
  if (rem.degree() >= db) {
    quot.c.assign(static_cast<std::size_t>(rem.degree() - db) + 1, 0);
    const u64 lead_inv = f.inv(b.c.back());
    for (int i = rem.degree(); i >= db; --i) {
      const u64 top = rem.coeff(static_cast<std::size_t>(i));
      if (top == 0) continue;
      const u64 factor = f.mul(top, lead_inv);
      quot.c[static_cast<std::size_t>(i - db)] = factor;
      if constexpr (FieldHasBatchKernels<Field>) {
        f.submul_inplace(rem.c.data() + (i - db), factor, b.c.data(),
                         static_cast<std::size_t>(db) + 1);
      } else {
        for (int j = 0; j <= db; ++j) {
          auto idx = static_cast<std::size_t>(i - db + j);
          rem.c[idx] = f.sub(rem.c[idx],
                             f.mul(factor, b.c[static_cast<std::size_t>(j)]));
        }
      }
    }
  }
  rem.trim();
  quot.trim();
  if (q != nullptr) *q = std::move(quot);
  if (r != nullptr) *r = std::move(rem);
}

template <class Field>
Poly poly_rem(const Poly& a, const Poly& b, const Field& f) {
  Poly r;
  poly_divrem(a, b, f, nullptr, &r);
  return r;
}

// Monic greatest common divisor.
template <class Field>
Poly poly_gcd(Poly a, Poly b, const Field& f) {
  a.trim();
  b.trim();
  while (!b.is_zero()) {
    Poly r = poly_rem(a, b, f);
    a = std::move(b);
    b = std::move(r);
  }
  if (!a.is_zero()) a = poly_scale(a, f.inv(a.c.back()), f);  // monic
  return a;
}

// Partial extended Euclidean algorithm, the key step of the Gao
// decoder (§2.3): runs the remainder sequence on (a, b) and stops as
// soon as the remainder g has degree < stop_degree, returning g and
// the cofactors u, v with u*a + v*b = g.
template <class Field>
void poly_xgcd_partial(const Poly& a, const Poly& b, int stop_degree,
                       const Field& f, Poly* g, Poly* u, Poly* v) {
  // Invariants: u_i*a + v_i*b = r_i for the remainder sequence r_i.
  Poly r0 = a, r1 = b;
  r0.trim();
  r1.trim();
  Poly u0 = Poly::constant(f.one(), f), u1 = Poly::zero();
  Poly v0 = Poly::zero(), v1 = Poly::constant(f.one(), f);
  while (!r1.is_zero() && r0.degree() >= stop_degree) {
    Poly qt, rem;
    poly_divrem(r0, r1, f, &qt, &rem);
    Poly u2 = poly_sub(u0, poly_mul(qt, u1, f), f);
    Poly v2 = poly_sub(v0, poly_mul(qt, v1, f), f);
    r0 = std::move(r1);
    r1 = std::move(rem);
    u0 = std::move(u1);
    u1 = std::move(u2);
    v0 = std::move(v1);
    v1 = std::move(v2);
  }
  if (g != nullptr) *g = r0;
  if (u != nullptr) *u = u0;
  if (v != nullptr) *v = v0;
}

// Horner evaluation at an in-domain point.
template <class Field>
u64 poly_eval(const Poly& p, u64 x0, const Field& f) {
  u64 acc = 0;
  x0 = f.reduce(x0);
  for (std::size_t i = p.c.size(); i-- > 0;) {
    acc = f.add(f.mul(acc, x0), p.c[i]);
  }
  return acc;
}

// Evaluation at many points by repeated Horner (O(n*d); the fast
// product-tree version lives in multipoint.hpp).
template <class Field>
std::vector<u64> poly_eval_many(const Poly& p, std::span<const u64> xs,
                                const Field& f) {
  std::vector<u64> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = poly_eval(p, xs[i], f);
  return out;
}

// Formal derivative.
template <class Field>
Poly poly_derivative(const Poly& p, const Field& f) {
  Poly r;
  if (p.c.size() <= 1) return r;
  r.c.resize(p.c.size() - 1);
  for (std::size_t i = 1; i < p.c.size(); ++i) {
    r.c[i - 1] = f.mul(p.c[i], f.from_u64(i));
  }
  r.trim();
  return r;
}

bool poly_equal(const Poly& a, const Poly& b);

// Both fields are instantiated once in poly.cpp.
#define CAMELOT_POLY_EXTERN(Field)                                          \
  extern template Poly poly_add<Field>(const Poly&, const Poly&,            \
                                       const Field&);                       \
  extern template Poly poly_sub<Field>(const Poly&, const Poly&,            \
                                       const Field&);                       \
  extern template Poly poly_scale<Field>(const Poly&, u64, const Field&);   \
  extern template Poly poly_mul_schoolbook<Field>(const Poly&, const Poly&, \
                                                  const Field&);            \
  extern template Poly poly_mul_karatsuba<Field>(const Poly&, const Poly&,  \
                                                 const Field&);             \
  extern template Poly poly_mul<Field>(const Poly&, const Poly&,            \
                                       const Field&, const NttTables*);     \
  extern template void poly_divrem<Field>(const Poly&, const Poly&,         \
                                          const Field&, Poly*, Poly*);      \
  extern template Poly poly_rem<Field>(const Poly&, const Poly&,            \
                                       const Field&);                       \
  extern template Poly poly_gcd<Field>(Poly, Poly, const Field&);           \
  extern template void poly_xgcd_partial<Field>(const Poly&, const Poly&,   \
                                                int, const Field&, Poly*,   \
                                                Poly*, Poly*);              \
  extern template u64 poly_eval<Field>(const Poly&, u64, const Field&);     \
  extern template std::vector<u64> poly_eval_many<Field>(                   \
      const Poly&, std::span<const u64>, const Field&);                     \
  extern template Poly poly_derivative<Field>(const Poly&, const Field&);

CAMELOT_POLY_EXTERN(PrimeField)
CAMELOT_POLY_EXTERN(MontgomeryField)
#undef CAMELOT_POLY_EXTERN

}  // namespace camelot
