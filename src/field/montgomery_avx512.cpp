// AVX-512 implementations of the narrow and wide kernel tables.
//
// This translation unit is compiled with -mavx512f -mavx512dq (see
// CMakeLists.txt) and nothing else in the build is, so every 512-bit
// instruction in the binary is confined here. The tables are reached
// only after FieldOps has confirmed the CPU can run them.
//
// Vector arithmetic notes (8 lanes of u64):
//  * AVX-512DQ brings a true 64x64 low multiplier (vpmullq), so wide
//    REDC costs 10 multiply-class instructions per 8 lanes — low
//    products via vpmullq, high halves assembled from 4 vpmuludq
//    partials. That, plus the doubled width, is what makes this
//    backend profitable for wide primes where AVX2 has no table.
//  * Narrow moduli (q < 2^31) reuse the chained REDC-32 sequence of
//    the AVX2 table (5 vpmuludq per 8 lanes).
//  * The Shoup butterfly needs only 6 multiply-class instructions per
//    8 wide lanes (4-partial mulhi + two vpmullq) and 4 vpmuludq per
//    8 narrow lanes.
//  * Unsigned compares are native (vpcmpuq -> mask), so the [0, 2q)
//    fold and the subtract wrap use mask-sub/mask-add directly
//    instead of the AVX2 signed-compare workaround.
#include "field/montgomery_avx512.hpp"

#include "field/field_ops.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

#if defined(__GNUC__) && !defined(__clang__)
// GCC defines the unmasked AVX-512 intrinsics in terms of
// _mm512_undefined_epi32 (a self-initialized local), which
// -Wmaybe-uninitialized flags at -O2. False positive; the value is
// fully overwritten by the masked builtin.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace camelot {

MontgomeryAvx512Field::MontgomeryAvx512Field(const MontgomeryField& m)
    : m_(m) {
  const MontKernels* k = avx512_kernels(m.modulus());
  if (k != nullptr && cpu_supports_avx512()) m_ = m.with_kernels(k);
}

#if defined(__AVX512F__) && defined(__AVX512DQ__)

namespace {

struct MontCtx {
  __m512i q;
  __m512i ninv;  // -q^{-1} mod 2^64 (low 32 bits: -q^{-1} mod 2^32)

  explicit MontCtx(const MontgomeryField& m)
      : q(_mm512_set1_epi64(static_cast<long long>(m.modulus()))),
        ninv(_mm512_set1_epi64(static_cast<long long>(m.neg_q_inv()))) {}
};

inline __m512i load8(const u64* p) noexcept {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

inline void store8(u64* p, __m512i v) noexcept {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}

// High 64 bits of the per-lane 64x64 products, from 4 vpmuludq
// partials (vpmullq covers the low halves, so unlike AVX2 there is
// no need to materialize the full 128-bit value).
inline __m512i mul_hi64(__m512i a, __m512i b) noexcept {
  const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i p00 = _mm512_mul_epu32(a, b);
  const __m512i p01 = _mm512_mul_epu32(a, b_hi);
  const __m512i p10 = _mm512_mul_epu32(a_hi, b);
  const __m512i p11 = _mm512_mul_epu32(a_hi, b_hi);
  // mid <= 3*(2^32-1): no overflow before the >>32.
  const __m512i mid =
      _mm512_add_epi64(_mm512_add_epi64(_mm512_srli_epi64(p00, 32),
                                        _mm512_and_si512(p01, lo32)),
                       _mm512_and_si512(p10, lo32));
  return _mm512_add_epi64(
      _mm512_add_epi64(p11, _mm512_srli_epi64(p01, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(p10, 32), _mm512_srli_epi64(mid, 32)));
}

// [0, 2q) -> [0, q).
inline __m512i reduce_2q(__m512i r, __m512i q) noexcept {
  return _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, q), r, q);
}

// One REDC-32 step of the narrow path: t -> (t + (t * -q^{-1} mod
// 2^32) * q) >> 32, an exact division because the low word cancels.
inline __m512i redc32_step(__m512i t, const MontCtx& c) noexcept {
  const __m512i m = _mm512_mul_epu32(t, c.ninv);  // low 32 bits are m_i
  const __m512i mq = _mm512_mul_epu32(m, c.q);
  return _mm512_srli_epi64(_mm512_add_epi64(t, mq), 32);
}

// Montgomery product of domain values: a * b * R^{-1} mod q. The
// narrow and wide paths compute the same function; kNarrow only
// selects the cheaper instruction sequence valid for q < 2^31.
template <bool kNarrow>
inline __m512i mont_mul(__m512i a, __m512i b, const MontCtx& c) noexcept {
  if constexpr (kNarrow) {
    const __m512i t = _mm512_mul_epu32(a, b);  // a, b < q < 2^31
    const __m512i r = redc32_step(redc32_step(t, c), c);
    return reduce_2q(r, c.q);
  } else {
    // t = a*b; m = t_lo * (-q^{-1}) mod 2^64; result is t_hi +
    // (m*q)_hi + carry, where carry = (m != 0) because the low
    // halves cancel to exactly 2^64 whenever t_lo is non-zero.
    const __m512i t_lo = _mm512_mullo_epi64(a, b);
    const __m512i t_hi = mul_hi64(a, b);
    const __m512i m = _mm512_mullo_epi64(t_lo, c.ninv);
    const __m512i mq_hi = mul_hi64(m, c.q);
    const __m512i carry = _mm512_maskz_set1_epi64(
        _mm512_cmpneq_epi64_mask(m, _mm512_setzero_si512()), 1);
    const __m512i r = _mm512_add_epi64(_mm512_add_epi64(t_hi, mq_hi), carry);
    return reduce_2q(r, c.q);
  }
}

// Shoup product a * w mod q for canonical twiddle w with quotient
// wq = floor(w * 2^64 / q) (field/shoup.hpp). Narrow: a < q < 2^31
// fits one 32-bit word, so the mulhi needs two vpmuludq partials and
// hi*q / a*w are single exact vpmuludq — 4 multiplies per 8 lanes.
// Wide: 4-partial mulhi plus two vpmullq — 6 multiplies per 8 lanes
// against 10 for wide REDC.
template <bool kNarrow>
inline __m512i shoup_mul8(__m512i a, __m512i w, __m512i wq,
                          __m512i q) noexcept {
  if constexpr (kNarrow) {
    const __m512i p0 = _mm512_mul_epu32(a, wq);
    const __m512i p1 = _mm512_mul_epu32(a, _mm512_srli_epi64(wq, 32));
    // p1 + (p0 >> 32) < 2^64: p1 <= (2^31-1)(2^32-1), p0 >> 32 < 2^31.
    const __m512i hi =
        _mm512_srli_epi64(_mm512_add_epi64(p1, _mm512_srli_epi64(p0, 32)), 32);
    const __m512i r =
        _mm512_sub_epi64(_mm512_mul_epu32(a, w), _mm512_mul_epu32(hi, q));
    return reduce_2q(r, q);
  } else {
    const __m512i hi = mul_hi64(a, wq);
    const __m512i r = _mm512_sub_epi64(_mm512_mullo_epi64(a, w),
                                       _mm512_mullo_epi64(hi, q));
    return reduce_2q(r, q);
  }
}

inline __m512i mod_add(__m512i a, __m512i b, __m512i q) noexcept {
  return reduce_2q(_mm512_add_epi64(a, b), q);
}

inline __m512i mod_sub(__m512i a, __m512i b, __m512i q) noexcept {
  const __m512i d = _mm512_sub_epi64(a, b);
  // a < b: the subtraction wrapped, add q back.
  return _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(a, b), d, q);
}

template <bool kNarrow>
void mul_vec_impl(const MontgomeryField& m, const u64* a, const u64* b,
                  u64* out, std::size_t n) noexcept {
  const MontCtx c(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(out + i, mont_mul<kNarrow>(load8(a + i), load8(b + i), c));
  }
  for (; i < n; ++i) out[i] = m.mul(a[i], b[i]);
}

template <bool kNarrow>
void scale_vec_impl(const MontgomeryField& m, const u64* a, u64 s, u64* out,
                    std::size_t n) noexcept {
  const MontCtx c(m);
  const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(out + i, mont_mul<kNarrow>(load8(a + i), vs, c));
  }
  for (; i < n; ++i) out[i] = m.mul(a[i], s);
}

template <bool kNarrow>
void addmul_impl(const MontgomeryField& m, u64* r, u64 s, const u64* b,
                 std::size_t n) noexcept {
  const MontCtx c(m);
  const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i p = mont_mul<kNarrow>(vs, load8(b + i), c);
    store8(r + i, mod_add(load8(r + i), p, c.q));
  }
  for (; i < n; ++i) r[i] = m.add(r[i], m.mul(s, b[i]));
}

template <bool kNarrow>
void submul_impl(const MontgomeryField& m, u64* r, u64 s, const u64* b,
                 std::size_t n) noexcept {
  const MontCtx c(m);
  const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i p = mont_mul<kNarrow>(vs, load8(b + i), c);
    store8(r + i, mod_sub(load8(r + i), p, c.q));
  }
  for (; i < n; ++i) r[i] = m.sub(r[i], m.mul(s, b[i]));
}

template <bool kNarrow>
u64 dot_impl(const MontgomeryField& m, const u64* a, const u64* b,
             std::size_t n) noexcept {
  const MontCtx c(m);
  __m512i vacc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vacc = mod_add(vacc, mont_mul<kNarrow>(load8(a + i), load8(b + i), c),
                   c.q);
  }
  alignas(64) u64 lanes[8];
  _mm512_store_si512(reinterpret_cast<void*>(lanes), vacc);
  u64 acc = m.add(m.add(m.add(lanes[0], lanes[1]), m.add(lanes[2], lanes[3])),
                  m.add(m.add(lanes[4], lanes[5]), m.add(lanes[6], lanes[7])));
  for (; i < n; ++i) acc = m.add(acc, m.mul(a[i], b[i]));
  return acc;
}

template <bool kNarrow>
void ntt_stage_impl(const MontgomeryField& m, u64* a, std::size_t n,
                    std::size_t len, const u64* tw) noexcept {
  const MontCtx c(m);
  const std::size_t half = len / 2;
  // half >= 8 and a power of two, so the j-loop needs no tail.
  for (std::size_t i = 0; i < n; i += len) {
    u64* lo = a + i;
    u64* hi = a + i + half;
    for (std::size_t j = 0; j < half; j += 8) {
      const __m512i u = load8(lo + j);
      const __m512i v = mont_mul<kNarrow>(load8(hi + j), load8(tw + j), c);
      store8(lo + j, mod_add(u, v, c.q));
      store8(hi + j, mod_sub(u, v, c.q));
    }
  }
}

template <bool kNarrow>
void ntt_stage_shoup_impl(const MontgomeryField& m, u64* a, std::size_t n,
                          std::size_t len, const u64* op,
                          const u64* qt) noexcept {
  const __m512i q = _mm512_set1_epi64(static_cast<long long>(m.modulus()));
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    u64* lo = a + i;
    u64* hi = a + i + half;
    for (std::size_t j = 0; j < half; j += 8) {
      const __m512i u = load8(lo + j);
      const __m512i v =
          shoup_mul8<kNarrow>(load8(hi + j), load8(op + j), load8(qt + j), q);
      store8(lo + j, mod_add(u, v, q));
      store8(hi + j, mod_sub(u, v, q));
    }
  }
}

void add_inplace(const MontgomeryField& m, u64* r, const u64* b,
                 std::size_t n) noexcept {
  const __m512i q = _mm512_set1_epi64(static_cast<long long>(m.modulus()));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(r + i, mod_add(load8(r + i), load8(b + i), q));
  }
  for (; i < n; ++i) r[i] = m.add(r[i], b[i]);
}

void sub_from_scalar(const MontgomeryField& m, u64 x, const u64* a, u64* out,
                     std::size_t n) noexcept {
  const __m512i q = _mm512_set1_epi64(static_cast<long long>(m.modulus()));
  const __m512i vx = _mm512_set1_epi64(static_cast<long long>(x));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store8(out + i, mod_sub(vx, load8(a + i), q));
  for (; i < n; ++i) out[i] = m.sub(x, a[i]);
}

template <bool kNarrow>
constexpr MontKernels kTable = {
    .name = kNarrow ? "avx512-narrow" : "avx512-wide",
    .lanes = 8,
    .mul_vec = &mul_vec_impl<kNarrow>,
    .scale_vec = &scale_vec_impl<kNarrow>,
    .addmul_inplace = &addmul_impl<kNarrow>,
    .submul_inplace = &submul_impl<kNarrow>,
    .add_inplace = &add_inplace,
    .sub_from_scalar = &sub_from_scalar,
    .dot = &dot_impl<kNarrow>,
    .ntt_stage = &ntt_stage_impl<kNarrow>,
    .ntt_stage_shoup = &ntt_stage_shoup_impl<kNarrow>,
};

}  // namespace

const MontKernels* avx512_kernels(u64 q) noexcept {
  if (q == 2) return nullptr;
  return (q >> 31) == 0 ? &kTable<true> : &kTable<false>;
}

#else  // !(defined(__AVX512F__) && defined(__AVX512DQ__))

const MontKernels* avx512_kernels(u64) noexcept { return nullptr; }

#endif  // defined(__AVX512F__) && defined(__AVX512DQ__)

}  // namespace camelot
