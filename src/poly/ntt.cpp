#include "poly/ntt.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "field/shoup.hpp"

namespace camelot {

bool ntt_shoup_enabled() noexcept { return true; }

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

int log2_exact(std::size_t n) {
  int k = 0;
  while ((std::size_t{1} << k) < n) ++k;
  return k;
}

// Validation + bit-reversal permutation. Throws before permuting, so
// a failed call leaves the input untouched. Templated on the vector
// type so the same code runs on callers' std::vector buffers and on
// arena-backed ScratchVec work buffers.
template <class Vec>
void check_size_and_bit_reverse(Vec& a, int max_log2) {
  const std::size_t n = a.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("ntt_inplace: size must be a power of two");
  }
  if (log2_exact(n) > max_log2) {
    throw std::invalid_argument("ntt_inplace: field two-adicity too small");
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

// Radix-2 kernel in the Montgomery domain. Butterfly stages and the
// final 1/n scaling go through the context's batch kernels, so they
// run on its lane table when it has one. Tables that cover n supply
// the Shoup butterfly's canonical twiddles and quotients; otherwise
// each stage powers its root on the fly and takes the REDC butterfly.
// Both compute the identical multiplication sequence mod q — and
// hence every output word.
template <class Vec>
void ntt_kernel(Vec& a, bool inverse, const MontgomeryField& fref,
                const NttTables* tables) {
  // By-value copy keeps the Montgomery constants in registers across
  // the butterfly stores (a reference could alias the written data).
  const MontgomeryField f = fref;
  if (tables != nullptr && tables->modulus() != f.modulus()) {
    throw std::invalid_argument("ntt_inplace: twiddle table modulus mismatch");
  }
  check_size_and_bit_reverse(a, f.two_adicity());
  const std::size_t n = a.size();
  const int lg = log2_exact(n);
  const bool tabled = tables != nullptr && n <= tables->capacity();
  ScratchVec chain;  // untabled stage twiddles
  for (int k = 1; k <= lg; ++k) {
    const std::size_t len = std::size_t{1} << k;
    if (tabled) {
      f.ntt_stage_shoup(a.data(), n, len, tables->op(k, inverse).data(),
                        tables->qt(k, inverse).data());
      continue;
    }
    const std::size_t half = len / 2;
    u64 wlen = f.root_of_unity(k);
    if (inverse) wlen = f.inv(wlen);
    chain.resize(half);
    chain[0] = f.one();
    for (std::size_t j = 1; j < half; ++j) {
      chain[j] = f.mul(chain[j - 1], wlen);
    }
    f.ntt_stage(a.data(), n, len, chain.data());
  }
  if (inverse) {
    const u64 n_inv = tabled ? tables->n_inv(lg) : f.inv(f.from_u64(n));
    f.scale_vec(a.data(), n_inv, a.data(), n);
  }
}

// Both convolution kernels run their transform buffers as arena
// scratch; the linear one copies into the caller's vector type only
// when it differs — the std::vector overloads pay one result copy,
// the ScratchVec pipeline none.
template <class Vec>
Vec convolve_kernel(std::span<const u64> a, std::span<const u64> b,
                    const MontgomeryField& f, const NttTables* tables) {
  const std::size_t out = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out);
  ScratchVec fa(a.begin(), a.end()), fb(b.begin(), b.end());
  fa.resize(n, 0);
  fb.resize(n, 0);
  ntt_kernel(fa, false, f, tables);
  ntt_kernel(fb, false, f, tables);
  f.mul_vec(fa.data(), fb.data(), fa.data(), n);
  ntt_kernel(fa, true, f, tables);
  fa.resize(out);
  if constexpr (std::is_same_v<Vec, ScratchVec>) {
    return fa;
  } else {
    return Vec(fa.begin(), fa.end());
  }
}

// Folds `src` into `n` slots mod x^n - 1: slot i accumulates every
// coefficient whose index is congruent to i. For power-of-two n the
// wrap positions are exactly the aliases the middle product discards,
// so the caller's target slice reads back exact products.
ScratchVec fold_mod_xn(std::span<const u64> src, std::size_t n,
                       const MontgomeryField& f) {
  ScratchVec out(n, 0);
  const std::size_t head = std::min(src.size(), n);
  std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(head),
            out.begin());
  for (std::size_t i = n; i < src.size(); ++i) {
    out[i & (n - 1)] = f.add(out[i & (n - 1)], src[i]);
  }
  return out;
}

ScratchVec cyclic_kernel(std::span<const u64> a, std::span<const u64> b,
                         std::size_t n, const MontgomeryField& f,
                         const NttTables* tables) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument(
        "ntt_convolve_cyclic_scratch: size must be a power of two");
  }
  ScratchVec fa = fold_mod_xn(a, n, f);
  ScratchVec fb = fold_mod_xn(b, n, f);
  ntt_kernel(fa, false, f, tables);
  ntt_kernel(fb, false, f, tables);
  f.mul_vec(fa.data(), fb.data(), fa.data(), n);
  ntt_kernel(fa, true, f, tables);
  return fa;
}

}  // namespace

NttTables::NttTables(const MontgomeryField& m, std::size_t max_size)
    : q_(m.modulus()) {
  const std::size_t limit =
      m.two_adicity() >= 62 ? (std::size_t{1} << 62)
                            : (std::size_t{1} << m.two_adicity());
  capacity_ = std::min(next_pow2(std::max<std::size_t>(max_size, 1)), limit);
  const int lg = log2_exact(capacity_);
  n_inv_.resize(static_cast<std::size_t>(lg) + 1);
  for (int k = 0; k <= lg; ++k) {
    n_inv_[static_cast<std::size_t>(k)] =
        m.inv(m.from_u64(u64{1} << k));
  }
  if (capacity_ < 2) return;
  fwd_op_.resize(capacity_ - 1);
  inv_op_.resize(capacity_ - 1);
  // Top stage (order capacity()): the power chain of w / w^{-1}, formed
  // in the Montgomery domain and then mapped to canonical words.
  {
    const u64 w = m.root_of_unity(lg);
    const u64 w_inv = m.inv(w);
    const std::size_t half = capacity_ / 2;
    const std::span<u64> top_f(fwd_op_.data() + (half - 1), half);
    const std::span<u64> top_i(inv_op_.data() + (half - 1), half);
    top_f[0] = top_i[0] = m.one();
    for (std::size_t j = 1; j < half; ++j) {
      top_f[j] = m.mul(top_f[j - 1], w);
      top_i[j] = m.mul(top_i[j - 1], w_inv);
    }
    m.from_mont_inplace(top_f);
    m.from_mont_inplace(top_i);
  }
  // Stage k twiddles are every other entry of stage k+1
  // (w_k = w_{k+1}^2), so the lower stages are strided copies.
  for (int k = lg - 1; k >= 1; --k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    for (std::size_t j = 0; j < half; ++j) {
      fwd_op_[half - 1 + j] = fwd_op_[2 * half - 1 + 2 * j];
      inv_op_[half - 1 + j] = inv_op_[2 * half - 1 + 2 * j];
    }
  }
  fwd_qt_.resize(capacity_ - 1);
  inv_qt_.resize(capacity_ - 1);
  for (std::size_t i = 0; i + 1 < capacity_; ++i) {
    fwd_qt_[i] = shoup_quotient(fwd_op_[i], q_);
    inv_qt_[i] = shoup_quotient(inv_op_[i], q_);
  }
}

bool ntt_supports_size(const PrimeField& f, std::size_t result_size) {
  const std::size_t n = next_pow2(result_size);
  return log2_exact(n) <= f.two_adicity() && n < f.modulus();
}

bool ntt_supports_size(const MontgomeryField& f, std::size_t result_size) {
  return ntt_supports_size(f.base(), result_size);
}

void ntt_inplace(std::vector<u64>& a, bool inverse, const PrimeField& f) {
  // Validate before converting so a failed call leaves `a` untouched.
  const std::size_t n = a.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("ntt_inplace: size must be a power of two");
  }
  if (log2_exact(n) > f.two_adicity()) {
    throw std::invalid_argument("ntt_inplace: field two-adicity too small");
  }
  const MontgomeryField m(f);
  m.to_mont_inplace(a);
  ntt_kernel(a, inverse, m, nullptr);
  m.from_mont_inplace(a);
}

void ntt_inplace(std::vector<u64>& a, bool inverse, const MontgomeryField& f,
                 const NttTables* tables) {
  ntt_kernel(a, inverse, f, tables);
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const PrimeField& f) {
  if (a.empty() || b.empty()) return {};
  const MontgomeryField m(f);
  std::vector<u64> fa = m.to_mont_vec(a), fb = m.to_mont_vec(b);
  std::vector<u64> r = convolve_kernel<std::vector<u64>>(fa, fb, m, nullptr);
  m.from_mont_inplace(r);
  return r;
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryField& f,
                              const NttTables* tables) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel<std::vector<u64>>(a, b, f, tables);
}

ScratchVec ntt_convolve_scratch(std::span<const u64> a, std::span<const u64> b,
                                const MontgomeryField& f,
                                const NttTables* tables) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel<ScratchVec>(a, b, f, tables);
}

ScratchVec ntt_convolve_cyclic_scratch(std::span<const u64> a,
                                       std::span<const u64> b, std::size_t n,
                                       const PrimeField& f) {
  const MontgomeryField m(f);
  ScratchVec fa(a.size()), fb(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = m.to_mont(a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = m.to_mont(b[i]);
  ScratchVec r = cyclic_kernel(fa, fb, n, m, nullptr);
  for (u64& v : r) v = m.from_mont(v);
  return r;
}

ScratchVec ntt_convolve_cyclic_scratch(std::span<const u64> a,
                                       std::span<const u64> b, std::size_t n,
                                       const MontgomeryField& f,
                                       const NttTables* tables) {
  return cyclic_kernel(a, b, n, f, tables);
}

}  // namespace camelot
