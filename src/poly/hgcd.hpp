// Half-GCD acceleration for the partial extended Euclidean algorithm
// (paper §2.3 decode; von zur Gathen & Gerhard ch. 11).
//
// The Gao remainder sequence under a dense error pattern is Theta(e)
// quotient steps of mostly degree-1 quotients, so the classical (and
// fast-division) drivers pay O(e^2) even though each step is cheap.
// The half-GCD observation: the first half of the quotient sequence
// of (a, b) depends only on the top half of their coefficients, so a
// recursive reduction on truncated operands can find many quotients
// at once and apply them in one 2x2 polynomial matrix-vector product
// through the NTT — O(M(n) log e) for the whole cascade.
//
// Certification replaces per-step boundary fixups: a candidate
// quotient matrix M from a truncated sub-problem is applied to the
// *full* operands and kept only if the reduced pair still descends
// (deg d < deg c). Euclidean division is unique, so that single
// aggregate check proves every candidate quotient is a genuine
// quotient of the full pair (downward induction on the sequence:
// deg r_{i-1} = deg q_i + deg r_i forces each division to be *the*
// division); on failure the engine discards M and re-runs that span
// classically. Either way every emitted quotient is a true EEA
// quotient of the original operands, so remainders *and cofactors*
// are bit-identical to poly_xgcd_partial — same normalization, same
// exit state — on every backend.
//
// Crossover: below a tuned reduction budget (deg a - stop_degree) the
// classical loop's small constant wins; the recursion base-cases to
// it. Default from the BENCH_field.json gao_hgcd sweep, overridable
// with CAMELOT_HGCD_CROSSOVER (read once) or set_hgcd_crossover —
// CAMELOT_HGCD_CROSSOVER=1 forces the recursive path everywhere (the
// CI sanitizer leg), a huge value forces the classical loop.
#pragma once

#include <cstddef>
#include <utility>

#include "poly/fast_div.hpp"
#include "poly/poly.hpp"

namespace camelot {

// Reduction budget (deg a - stop_degree) at and above which
// poly_xgcd_partial_hgcd leaves the classical loop for the recursive
// half-GCD cascade.
std::size_t hgcd_crossover() noexcept;

// Overrides the crossover for this process (0 restores the default /
// environment value). Codes built afterwards capture the new value;
// intended for tests and bench A/B sweeps.
void set_hgcd_crossover(std::size_t budget) noexcept;

// Observability counters for one partial-xgcd run (exported through
// GaoResult / ProofService::Stats so crossover tuning is visible in
// bench output).
struct XgcdStats {
  // Genuine Euclidean quotient steps performed (classical base-case
  // steps, middle steps, and fallback re-runs all count; the
  // certified matrix steps count once per quotient they encode).
  std::size_t quotient_steps = 0;
  // hgcd_reduce invocations (0 on a pure classical run).
  std::size_t hgcd_calls = 0;
};

namespace hgcd_detail {

// 2x2 matrix over Z_q[x], acting on column pairs. The identity is
// the default state; is_identity() tags it structurally (zero
// entries with one() diagonal would also work, but the flag keeps
// the no-op apply free).
struct PolyMat22 {
  Poly m00, m01, m10, m11;
  bool identity = true;
};

template <class Field>
PolyMat22 mat_identity(const Field& f) {
  PolyMat22 m;
  m.m00 = Poly::constant(f.one(), f);
  m.m11 = Poly::constant(f.one(), f);
  return m;
}

// (c, d) = M * (a, b). Matrix products go through poly_mul with the
// caller's tables: half-GCD entries are exactly the cofactor-sized
// operands the fast division already transforms.
template <class Field>
std::pair<Poly, Poly> mat_apply(const PolyMat22& m, const Poly& a,
                                const Poly& b, const Field& f,
                                const NttTables* tables) {
  if (m.identity) return {a, b};
  Poly c = poly_add(poly_mul(m.m00, a, f, tables),
                    poly_mul(m.m01, b, f, tables), f);
  Poly d = poly_add(poly_mul(m.m10, a, f, tables),
                    poly_mul(m.m11, b, f, tables), f);
  return {std::move(c), std::move(d)};
}

// M <- E(q) * M with E(q) = [[0, 1], [1, -q]]: the matrix form of one
// Euclidean step (c, d) -> (d, c - q*d).
template <class Field>
void mat_step(PolyMat22& m, const Poly& q, const Field& f,
              const NttTables* tables) {
  if (m.identity) m = mat_identity(f);
  Poly n10 = poly_sub(m.m00, poly_mul(q, m.m10, f, tables), f);
  Poly n11 = poly_sub(m.m01, poly_mul(q, m.m11, f, tables), f);
  m.m00 = std::move(m.m10);
  m.m01 = std::move(m.m11);
  m.m10 = std::move(n10);
  m.m11 = std::move(n11);
  m.identity = false;
}

// M <- A * B.
template <class Field>
PolyMat22 mat_mul(const PolyMat22& a, const PolyMat22& b, const Field& f,
                  const NttTables* tables) {
  if (a.identity) return b;
  if (b.identity) return a;
  PolyMat22 r;
  r.identity = false;
  r.m00 = poly_add(poly_mul(a.m00, b.m00, f, tables),
                   poly_mul(a.m01, b.m10, f, tables), f);
  r.m01 = poly_add(poly_mul(a.m00, b.m01, f, tables),
                   poly_mul(a.m01, b.m11, f, tables), f);
  r.m10 = poly_add(poly_mul(a.m10, b.m00, f, tables),
                   poly_mul(a.m11, b.m10, f, tables), f);
  r.m11 = poly_add(poly_mul(a.m10, b.m01, f, tables),
                   poly_mul(a.m11, b.m11, f, tables), f);
  return r;
}

// x div x^s (drop the s low-order coefficients).
inline Poly shift_down(const Poly& p, int s) {
  Poly r;
  if (static_cast<std::size_t>(s) < p.c.size()) {
    r.c.assign(p.c.begin() + s, p.c.end());
  }
  return r;
}

// Reduction state: M is a product of genuine quotient-step matrices
// of the call's (a, b), and (c, d) = M * (a, b) are the matching
// consecutive remainders.
struct Reduced {
  PolyMat22 m;
  Poly c, d;
};

// Classical base case / fallback: run the remainder sequence on
// (a, b) until deg d < t, accumulating the step matrix. The matrix
// row update is the same u2 = u0 - q*u1 recurrence the classical
// xgcd performs, so the base case costs what the classical loop
// costs.
template <class Field>
Reduced eea_steps(const Poly& a, const Poly& b, int t, const Field& f,
                  const NttTables* tables, XgcdStats& stats) {
  Reduced r;
  r.c = a;
  r.d = b;
  while (!r.d.is_zero() && r.d.degree() >= t) {
    Poly q, rem;
    poly_divrem_auto(r.c, r.d, f, &q, &rem, tables);
    ++stats.quotient_steps;
    mat_step(r.m, q, f, tables);
    r.c = std::move(r.d);
    r.d = std::move(rem);
  }
  return r;
}

// Recursive half-GCD reduction. Preconditions: a, b trimmed,
// deg a > deg b, deg a >= t >= 0. Postconditions: the Reduced
// contract above plus the full straddle deg c >= t and (d == 0 or
// deg d < t). The budget k = deg a - t halves into a truncated
// sub-reduction (certified against the full operands), one middle
// quotient step, and a recursion on the remaining budget.
template <class Field>
Reduced hgcd_reduce(const Poly& a, const Poly& b, int t, const Field& f,
                    const NttTables* tables, XgcdStats& stats,
                    std::size_t crossover) {
  ++stats.hgcd_calls;
  if (b.is_zero() || b.degree() < t) {
    Reduced r;
    r.c = a;
    r.d = b;
    return r;
  }
  const int n = a.degree();
  const int k = n - t;
  if (k <= 1 || static_cast<std::size_t>(k) < crossover) {
    return eea_steps(a, b, t, f, tables, stats);
  }

  // First half: find the quotients consuming the top ~k/2 degrees
  // from the truncated pair, then certify them against the full one.
  const int k1 = k / 2;
  const int t1 = n - 2 * k1;  // >= t >= 0
  Reduced first;
  if (t1 > 0) {
    const std::size_t steps_before = stats.quotient_steps;
    const Reduced sub = hgcd_reduce(shift_down(a, t1), shift_down(b, t1), k1,
                                    f, tables, stats, crossover);
    first.m = sub.m;
    auto [c0, d0] = mat_apply(sub.m, a, b, f, tables);
    c0.trim();
    d0.trim();
    // Certification: the lifted pair must still descend and respect
    // the budget; truncation noise near the boundary shows up here
    // and sends that span back to the classical loop (the discarded
    // candidate steps come off the counter — they were never steps
    // of the full pair).
    if (!sub.m.identity &&
        (c0.is_zero() || c0.degree() < t ||
         (!d0.is_zero() && d0.degree() >= c0.degree()))) {
      stats.quotient_steps = steps_before;
      return eea_steps(a, b, t, f, tables, stats);
    }
    first.c = std::move(c0);
    first.d = std::move(d0);
  } else {
    first = hgcd_reduce(a, b, k1, f, tables, stats, crossover);
  }
  if (first.d.is_zero() || first.d.degree() < t) return first;

  // Middle step: one genuine division re-anchors the sequence at the
  // truncation boundary.
  Poly q, rem;
  poly_divrem_auto(first.c, first.d, f, &q, &rem, tables);
  ++stats.quotient_steps;
  mat_step(first.m, q, f, tables);
  Poly c1 = std::move(first.d);
  Poly d1 = std::move(rem);
  if (d1.is_zero() || d1.degree() < t) {
    Reduced r;
    r.m = std::move(first.m);
    r.c = std::move(c1);
    r.d = std::move(d1);
    return r;
  }

  // Second half: finish the remaining budget (strictly smaller, so
  // the recursion terminates) and stitch the matrices.
  Reduced second = hgcd_reduce(c1, d1, t, f, tables, stats, crossover);
  Reduced r;
  r.m = mat_mul(second.m, first.m, f, tables);
  r.c = std::move(second.c);
  r.d = std::move(second.d);
  return r;
}

}  // namespace hgcd_detail

// Half-GCD partial extended Euclidean algorithm: semantics, exit
// state, and every output word identical to poly_xgcd_partial (a
// crossover of SIZE_MAX runs the classical loop over
// poly_divrem_auto). `crossover` 0 means hgcd_crossover();
// ReedSolomonCode passes the value it was cache-keyed under. `stats`,
// when non-null, receives the quotient-step / recursion counters.
template <class Field>
void poly_xgcd_partial_hgcd(const Poly& a, const Poly& b, int stop_degree,
                            const Field& f, Poly* g, Poly* u, Poly* v,
                            const NttTables* tables = nullptr,
                            XgcdStats* stats = nullptr,
                            std::size_t crossover = 0) {
  if (crossover == 0) crossover = hgcd_crossover();
  XgcdStats local;
  XgcdStats& st = stats != nullptr ? *stats : local;

  Poly r0 = a, r1 = b;
  r0.trim();
  r1.trim();
  Poly u0 = Poly::constant(f.one(), f), u1 = Poly::zero();
  Poly v0 = Poly::zero(), v1 = Poly::constant(f.one(), f);
  // Classical prelude until deg r0 > deg r1 (at most two steps; the
  // Gao shape never needs any). The recursion's descent lemma needs
  // the strict inequality.
  while (!r1.is_zero() && r0.degree() >= stop_degree &&
         r0.degree() <= r1.degree()) {
    Poly qt, rem;
    poly_divrem_auto(r0, r1, f, &qt, &rem, tables);
    ++st.quotient_steps;
    Poly u2 = poly_sub(u0, poly_mul(qt, u1, f, tables), f);
    Poly v2 = poly_sub(v0, poly_mul(qt, v1, f, tables), f);
    r0 = std::move(r1);
    r1 = std::move(rem);
    u0 = std::move(u1);
    u1 = std::move(u2);
    v0 = std::move(v1);
    v1 = std::move(v2);
  }
  if (r1.is_zero() || r0.degree() < stop_degree) {
    if (g != nullptr) *g = std::move(r0);
    if (u != nullptr) *u = std::move(u0);
    if (v != nullptr) *v = std::move(v0);
    return;
  }

  const int t = stop_degree > 0 ? stop_degree : 0;
  hgcd_detail::Reduced red =
      hgcd_detail::hgcd_reduce(r0, r1, t, f, tables, st, crossover);
  // Compose the reduction matrix with the prelude cofactors: row 0 is
  // (u, v) of c, row 1 of d. The classical loop exits on the first
  // remainder below the stop degree — d when it exists, else the
  // last nonzero remainder c.
  const auto row = [&](const Poly& mu, const Poly& mv, Poly* out_u,
                       Poly* out_v) {
    if (out_u != nullptr) {
      *out_u = poly_add(poly_mul(mu, u0, f, tables),
                        poly_mul(mv, u1, f, tables), f);
    }
    if (out_v != nullptr) {
      *out_v = poly_add(poly_mul(mu, v0, f, tables),
                        poly_mul(mv, v1, f, tables), f);
    }
  };
  if (red.m.identity) {
    // deg r1 < t already: the classical loop would run exactly one
    // more step (its condition only looks at r0) and exit with r1
    // and r1's current cofactors.
    ++st.quotient_steps;
    if (g != nullptr) *g = std::move(r1);
    if (u != nullptr) *u = std::move(u1);
    if (v != nullptr) *v = std::move(v1);
    return;
  }
  if (red.d.is_zero()) {
    if (g != nullptr) *g = std::move(red.c);
    row(red.m.m00, red.m.m01, u, v);
  } else {
    if (g != nullptr) *g = std::move(red.d);
    row(red.m.m10, red.m.m11, u, v);
  }
}

// Both fields are instantiated once in hgcd.cpp.
#define CAMELOT_HGCD_EXTERN(Field)                                        \
  extern template void poly_xgcd_partial_hgcd<Field>(                     \
      const Poly&, const Poly&, int, const Field&, Poly*, Poly*, Poly*,   \
      const NttTables*, XgcdStats*, std::size_t);

CAMELOT_HGCD_EXTERN(PrimeField)
CAMELOT_HGCD_EXTERN(MontgomeryField)
#undef CAMELOT_HGCD_EXTERN

}  // namespace camelot
