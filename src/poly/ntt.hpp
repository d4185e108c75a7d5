// Number-theoretic transform over NTT-friendly prime fields.
//
// The framework always selects proof moduli of the form q = c*2^a + 1
// (see core/prime_plan.hpp) so that the O(d log d) polynomial
// multiplication promised in paper §2.2 is available for encoding,
// decoding and interpolation.
//
// The butterfly kernel runs entirely in the Montgomery domain. The
// PrimeField overloads convert once at the boundary (two passes over
// the data); the MontgomeryField overloads take and return domain
// values directly so a longer pipeline pays no conversion at all, and
// run their stages on the context's kernel table (bit-identical).
//
// Twiddles come one of two ways, with identical output words: from
// precomputed NttTables (the Shoup butterfly: canonical twiddle plus
// quotient, no REDC) when the caller passes tables that cover the
// transform, or from a per-stage REDC power chain otherwise. Tables
// are a hint — a table that is too small simply means the chain runs.
#pragma once

#include <span>
#include <vector>

#include "core/arena.hpp"
#include "field/field.hpp"
#include "field/montgomery.hpp"

namespace camelot {

// True iff the field supports transforms long enough to multiply
// polynomials with `result_size` output coefficients.
bool ntt_supports_size(const PrimeField& f, std::size_t result_size);
bool ntt_supports_size(const MontgomeryField& f, std::size_t result_size);

// Always true: every tabled transform takes the Shoup butterfly. Kept
// only because the perfbench host report prints it.
bool ntt_shoup_enabled() noexcept;

// Precomputed twiddle tables for the Shoup butterfly. Per stage k the
// *canonical* root powers w_k^j and their Shoup quotients
// floor(w*2^64/q) (field/shoup.hpp); the product of a Montgomery-domain
// value with them lands on the same word as the REDC product with the
// Montgomery-domain twiddle. A FieldCache shares one instance per
// prime across all sessions.
class NttTables {
 public:
  // Builds tables for transforms up to next_pow2(max_size), clamped
  // to the field's two-adicity limit 2^a (so q == 2 gets capacity 1
  // and no stages).
  NttTables(const MontgomeryField& m, std::size_t max_size);

  u64 modulus() const noexcept { return q_; }
  // Largest tabled transform length (a power of two, >= 1).
  std::size_t capacity() const noexcept { return capacity_; }

  // Stage k (1 <= k <= log2(capacity())): entry j of op() is w_k^j
  // for the primitive root w_k of order 2^k (w_k^{-1} when inverse),
  // canonical; qt() holds the matching quotients. 2^(k-1) entries.
  std::span<const u64> op(int k, bool inverse) const noexcept {
    return stage(inverse ? inv_op_ : fwd_op_, k);
  }
  std::span<const u64> qt(int k, bool inverse) const noexcept {
    return stage(inverse ? inv_qt_ : fwd_qt_, k);
  }
  // 1/2^k in the Montgomery domain, k <= log2(capacity()).
  u64 n_inv(int k) const noexcept { return n_inv_[static_cast<size_t>(k)]; }

 private:
  static std::span<const u64> stage(const std::vector<u64>& t,
                                    int k) noexcept {
    const std::size_t half = std::size_t{1} << (k - 1);
    return {t.data() + (half - 1), half};
  }

  u64 q_ = 0;
  std::size_t capacity_ = 1;
  // Per-stage tables, concatenated: stage k occupies
  // [2^(k-1) - 1, 2^k - 1). Total size capacity() - 1.
  std::vector<u64> fwd_op_, fwd_qt_, inv_op_, inv_qt_;
  std::vector<u64> n_inv_;
};

// In-place radix-2 NTT of a power-of-two-sized vector of canonical
// representatives. If inverse, applies the inverse transform
// including the 1/n factor.
void ntt_inplace(std::vector<u64>& a, bool inverse, const PrimeField& f);

// Same transform on a vector that is already in the Montgomery
// domain; the result stays in the Montgomery domain. `tables` (may be
// null) must share f's modulus; they are used when they cover a.size().
void ntt_inplace(std::vector<u64>& a, bool inverse, const MontgomeryField& f,
                 const NttTables* tables = nullptr);

// Cyclic-free convolution (polynomial product) of two coefficient
// vectors. Returns a.size()+b.size()-1 coefficients. The PrimeField
// overload takes and returns canonical representatives; the
// MontgomeryField overload works domain-to-domain.
std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const PrimeField& f);
std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryField& f,
                              const NttTables* tables = nullptr);

// The same linear convolution with its result in the bound arena
// (plain heap when none is bound), for stage-local pipelines such as
// the interpolation ascent.
ScratchVec ntt_convolve_scratch(std::span<const u64> a, std::span<const u64> b,
                                const MontgomeryField& f,
                                const NttTables* tables = nullptr);

// Cyclic convolution mod x^n - 1 for power-of-two n (the transposed
// middle-product primitive): both operands are folded into n words
// (coefficient i adds into slot i mod n) before a *single* size-n
// transform pair, so a middle product pays transforms of the slice
// size instead of the full product size. Requires n power of two and
// within the field's two-adicity; operands may be longer than n. The
// result lives in the bound arena and never escapes the calling
// stage.
ScratchVec ntt_convolve_cyclic_scratch(std::span<const u64> a,
                                       std::span<const u64> b, std::size_t n,
                                       const PrimeField& f);
ScratchVec ntt_convolve_cyclic_scratch(std::span<const u64> a,
                                       std::span<const u64> b, std::size_t n,
                                       const MontgomeryField& f,
                                       const NttTables* tables = nullptr);

}  // namespace camelot
