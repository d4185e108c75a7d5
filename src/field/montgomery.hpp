// Montgomery-form arithmetic backend for PrimeField (the "FieldOps"
// facade). The division-based PrimeField::mul reduces every 128-bit
// product with a hardware division (~tens of cycles); Montgomery
// multiplication replaces it with two 64x64 multiplies and a shift.
//
// Values live in the *Montgomery domain*: x is represented by
// xR mod q with R = 2^64. Hot loops convert once at the boundary
// (to_mont / from_mont over whole vectors), then run every add, sub
// and mul on domain values. MontgomeryField deliberately mirrors the
// PrimeField method surface (add/sub/neg/mul/sqr/pow/inv/batch_inv/
// one/zero/from_u64/reduce) so the templated polynomial kernels in
// poly/ can be instantiated for either field.
//
// On top of that surface sit the batch kernels (mul_vec, addmul_inplace,
// ntt_stage, ...) the mul-heavy inner loops call. Each context carries
// one pointer to a MontKernels table: null runs the inline scalar
// loops, a lane table (field/montgomery_simd.hpp for AVX2,
// field/montgomery_avx512.hpp for AVX-512) runs the same loop on u64
// lanes. Lanes change only which instructions run, never the values:
// every table returns the scalar loop's words bit for bit. FieldOps
// picks the table once per prime when it resolves its backend.
//
// Requires gcd(R, q) = 1, i.e. odd q. The only even prime is 2, for
// which the class degrades to a trivial identity-domain mode so that
// every prime PrimeField accepts keeps working (always scalar).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "field/field.hpp"
#include "field/shoup.hpp"

namespace camelot {

class MontgomeryField;

// One lane set's batch kernels for one prime width. Every entry takes
// Montgomery-domain values, handles any n with a scalar tail,
// tolerates out == a, and returns the words of the scalar loop in
// MontgomeryField. The NTT stages need a whole vector per half-block
// (len / 2 >= lanes); the MontgomeryField forwarders guarantee that.
struct MontKernels {
  const char* name;   // "avx2-narrow", "avx512-narrow", "avx512-wide"
  std::size_t lanes;  // u64 lanes per vector
  void (*mul_vec)(const MontgomeryField& m, const u64* a, const u64* b,
                  u64* out, std::size_t n) noexcept;
  void (*scale_vec)(const MontgomeryField& m, const u64* a, u64 s, u64* out,
                    std::size_t n) noexcept;
  void (*addmul_inplace)(const MontgomeryField& m, u64* r, u64 s,
                         const u64* b, std::size_t n) noexcept;
  void (*submul_inplace)(const MontgomeryField& m, u64* r, u64 s,
                         const u64* b, std::size_t n) noexcept;
  void (*add_inplace)(const MontgomeryField& m, u64* r, const u64* b,
                      std::size_t n) noexcept;
  void (*sub_from_scalar)(const MontgomeryField& m, u64 x, const u64* a,
                          u64* out, std::size_t n) noexcept;
  u64 (*dot)(const MontgomeryField& m, const u64* a, const u64* b,
             std::size_t n) noexcept;
  void (*ntt_stage)(const MontgomeryField& m, u64* a, std::size_t n,
                    std::size_t len, const u64* tw) noexcept;
  void (*ntt_stage_shoup)(const MontgomeryField& m, u64* a, std::size_t n,
                          std::size_t len, const u64* op,
                          const u64* qt) noexcept;
};

class MontgomeryField {
 public:
  // Builds the Montgomery context for f's modulus (q < 2^62, prime),
  // with no kernel table (scalar batch loops).
  explicit MontgomeryField(const PrimeField& f);

  const PrimeField& base() const noexcept { return base_; }
  u64 modulus() const noexcept { return q_; }
  int two_adicity() const noexcept { return base_.two_adicity(); }

  // ---- Kernel table -----------------------------------------------------
  // The same context running its batch kernels on `kernels` (nullptr:
  // scalar). A table must be one of the lookups for this modulus
  // (avx2_kernels / avx512_kernels); q == 2 always stays scalar.
  MontgomeryField with_kernels(const MontKernels* kernels) const noexcept {
    MontgomeryField out = *this;
    out.kern_ = trivial_ ? nullptr : kernels;
    return out;
  }
  const MontKernels* kernels() const noexcept { return kern_; }

  // Batches shorter than this run the scalar loop even with a table:
  // below one AVX-512 vector the indirect call and the lane setup cost
  // more than the lanes save.
  static constexpr std::size_t kMinBatch = 8;

  // ---- Domain conversion ------------------------------------------------
  // aR mod q for canonical a in [0, q).
  u64 to_mont(u64 a) const noexcept {
    return trivial_ ? a : mul_impl(a, r2_);
  }
  // Inverse map: (aR)R^{-1} = a, canonical in [0, q).
  u64 from_mont(u64 a) const noexcept {
    return trivial_ ? a : redc(static_cast<u128>(a));
  }
  // Whole-vector conversions (the once-per-pipeline boundary cost).
  // to_mont_vec canonicalizes arbitrary u64 inputs first.
  std::vector<u64> to_mont_vec(std::span<const u64> xs) const;
  std::vector<u64> from_mont_vec(std::span<const u64> xs) const;
  void to_mont_inplace(std::span<u64> xs) const noexcept;
  void from_mont_inplace(std::span<u64> xs) const noexcept;

  // ---- Arithmetic on Montgomery-domain values ---------------------------
  u64 zero() const noexcept { return 0; }
  u64 one() const noexcept { return r1_; }  // R mod q

  // Embeds a plain integer (not yet in any domain) into the field.
  u64 from_u64(u64 v) const noexcept { return to_mont(v % q_); }

  // Canonical-range clamp. Domain values are already in [0, q); this
  // exists for interface parity with PrimeField (where templated code
  // calls f.reduce on values it knows to be in-domain, it is a no-op).
  u64 reduce(u64 v) const noexcept { return v % q_; }

  // add/sub/neg are written with mask arithmetic instead of ternaries:
  // the conditions are data-dependent coin flips in the hot kernels,
  // and a compiler that turns them into branches (gcc does, at some
  // optimization levels) eats a misprediction per element.
  u64 add(u64 a, u64 b) const noexcept {
    const u64 s = a + b;  // no overflow: a, b < 2^62
    return s - (q_ & -static_cast<u64>(s >= q_));
  }
  u64 sub(u64 a, u64 b) const noexcept {
    const u64 d = a - b;
    return d + (q_ & -static_cast<u64>(a < b));
  }
  u64 neg(u64 a) const noexcept {
    return (q_ - a) & -static_cast<u64>(a != 0);
  }

  // (aR)(bR)R^{-1} = (ab)R: multiplication stays in the domain.
  u64 mul(u64 a, u64 b) const noexcept {
    return trivial_ ? (a & b) : mul_impl(a, b);
  }
  u64 sqr(u64 a) const noexcept { return mul(a, a); }

  // a^e for Montgomery-domain a; result is Montgomery-domain a^e.
  u64 pow(u64 a, u64 e) const noexcept;

  // Montgomery-domain inverse: maps aR to a^{-1}R. Throws on zero.
  u64 inv(u64 a) const;
  u64 div(u64 a, u64 b) const { return mul(a, inv(b)); }

  // Batch inversion (Montgomery's trick) of Montgomery-domain values.
  std::vector<u64> batch_inv(const std::vector<u64>& xs) const;

  // Primitive 2^k-th root of unity, in the Montgomery domain.
  u64 root_of_unity(int k) const { return to_mont(base_.root_of_unity(k)); }

  friend bool operator==(const MontgomeryField& a,
                         const MontgomeryField& b) noexcept {
    return a.q_ == b.q_;
  }

  // ---- Batch kernels ----------------------------------------------------
  // One indirect call into the kernel table when there is one and the
  // batch is long enough, the scalar loop otherwise. The table gets a
  // copy of the context, never *this: once a caller's local context
  // escapes into an indirect call, the compiler must reload its
  // constants after every store in the caller's other loops. Callers
  // that hold a shared context by reference copy it to a local first,
  // so the scalar loops keep the constants in registers.

  // out[i] = a[i] * b[i]
  void mul_vec(const u64* a, const u64* b, u64* out,
               std::size_t n) const noexcept {
    if (batched(n)) return kern_->mul_vec(copy(), a, b, out, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = mul(a[i], b[i]);
  }
  // out[i] = a[i] * s
  void scale_vec(const u64* a, u64 s, u64* out, std::size_t n) const noexcept {
    if (batched(n)) return kern_->scale_vec(copy(), a, s, out, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = mul(a[i], s);
  }
  // r[i] = r[i] + s * b[i]   (schoolbook/Karatsuba row push)
  void addmul_inplace(u64* r, u64 s, const u64* b,
                      std::size_t n) const noexcept {
    if (batched(n)) return kern_->addmul_inplace(copy(), r, s, b, n);
    for (std::size_t i = 0; i < n; ++i) r[i] = add(r[i], mul(s, b[i]));
  }
  // r[i] = r[i] - s * b[i]   (polynomial remainder row elimination)
  void submul_inplace(u64* r, u64 s, const u64* b,
                      std::size_t n) const noexcept {
    if (batched(n)) return kern_->submul_inplace(copy(), r, s, b, n);
    for (std::size_t i = 0; i < n; ++i) r[i] = sub(r[i], mul(s, b[i]));
  }
  // r[i] = r[i] + b[i]       (unit-weight Yates push)
  void add_inplace(u64* r, const u64* b, std::size_t n) const noexcept {
    if (batched(n)) return kern_->add_inplace(copy(), r, b, n);
    for (std::size_t i = 0; i < n; ++i) r[i] = add(r[i], b[i]);
  }
  // out[i] = x - a[i]        (Lagrange node differences)
  void sub_from_scalar(u64 x, const u64* a, u64* out,
                       std::size_t n) const noexcept {
    if (batched(n)) return kern_->sub_from_scalar(copy(), x, a, out, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = sub(x, a[i]);
  }
  // sum_i a[i] * b[i] (mod-q addition is exact, so lane re-association
  // still returns the same u64 as the sequential fold)
  u64 dot(const u64* a, const u64* b, std::size_t n) const noexcept {
    if (batched(n)) return kern_->dot(copy(), a, b, n);
    u64 acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc = add(acc, mul(a[i], b[i]));
    return acc;
  }
  // One radix-2 NTT stage over bit-reversed data: for every block of
  // `len` elements of a[0..n), butterflies a[j], a[j+len/2] with the
  // contiguous stage twiddles tw[0..len/2) (Montgomery domain, REDC).
  void ntt_stage(u64* a, std::size_t n, std::size_t len,
                 const u64* tw) const noexcept {
    const std::size_t half = len / 2;
    if (kern_ != nullptr && half >= kern_->lanes) {
      return kern_->ntt_stage(copy(), a, n, len, tw);
    }
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const u64 u = a[i + j];
        const u64 v = mul(a[i + j + half], tw[j]);
        a[i + j] = add(u, v);
        a[i + j + half] = sub(u, v);
      }
    }
  }
  // Same stage through the Shoup tables: op[j] is the canonical
  // twiddle, qt[j] its precomputed quotient (field/shoup.hpp). Same
  // output words as ntt_stage with the matching Montgomery twiddles.
  void ntt_stage_shoup(u64* a, std::size_t n, std::size_t len, const u64* op,
                       const u64* qt) const noexcept {
    const std::size_t half = len / 2;
    if (kern_ != nullptr && half >= kern_->lanes) {
      return kern_->ntt_stage_shoup(copy(), a, n, len, op, qt);
    }
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const u64 u = a[i + j];
        const u64 v = shoup_mul(a[i + j + half], op[j], qt[j], q_);
        a[i + j] = add(u, v);
        a[i + j + half] = sub(u, v);
      }
    }
  }

  // ---- Raw REDC constants (consumed by the lane kernels) ----------------
  // True for q == 2, where no Montgomery representation exists and the
  // class runs in identity-domain mode (never with a kernel table).
  bool trivial() const noexcept { return trivial_; }
  u64 neg_q_inv() const noexcept { return neg_q_inv_; }  // -q^{-1} mod 2^64

 private:
  bool batched(std::size_t n) const noexcept {
    return kern_ != nullptr && n >= kMinBatch;
  }
  // The context handed to a kernel table (see the batch kernels).
  MontgomeryField copy() const noexcept { return *this; }
  // REDC: t * R^{-1} mod q for t < qR.
  u64 redc(u128 t) const noexcept {
    const u64 m = static_cast<u64>(t) * neg_q_inv_;
    const u64 r =
        static_cast<u64>((t + static_cast<u128>(m) * q_) >> 64);
    return r - (q_ & -static_cast<u64>(r >= q_));
  }
  u64 mul_impl(u64 a, u64 b) const noexcept {
    return redc(static_cast<u128>(a) * b);
  }

  PrimeField base_;
  u64 q_;
  u64 neg_q_inv_;  // -q^{-1} mod 2^64
  u64 r1_;         // R mod q
  u64 r2_;         // R^2 mod q
  bool trivial_;   // q == 2: Montgomery undefined, identity domain
  // Batch kernel table; nullptr runs the scalar loops.
  const MontKernels* kern_ = nullptr;
};

// True for the field types whose batch kernels the templated
// polynomial and Yates code routes its inner loops through; the
// PrimeField reference keeps its plain loops.
template <class Field>
concept FieldHasBatchKernels =
    requires(const Field& f, u64* r, const u64* a, u64 s, std::size_t n) {
      f.mul_vec(a, a, r, n);
      f.scale_vec(a, s, r, n);
      f.addmul_inplace(r, s, a, n);
      f.submul_inplace(r, s, a, n);
      f.add_inplace(r, a, n);
    };

}  // namespace camelot
