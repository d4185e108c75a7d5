#include "poly/ntt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>

#include "field/field_ops.hpp"
#include "field/montgomery_avx512.hpp"
#include "field/montgomery_simd.hpp"
#include "field/primes.hpp"
#include "poly/poly.hpp"

namespace camelot {
namespace {

TEST(Ntt, SupportsSize) {
  PrimeField f(7681);  // 7681 - 1 = 2^9 * 15 -> two-adicity 9
  EXPECT_EQ(f.two_adicity(), 9);
  EXPECT_TRUE(ntt_supports_size(f, 512));
  EXPECT_FALSE(ntt_supports_size(f, 513));
  PrimeField tiny(17);  // two-adicity 4
  EXPECT_TRUE(ntt_supports_size(tiny, 8));
  EXPECT_FALSE(ntt_supports_size(tiny, 32));
}

TEST(Ntt, ForwardInverseRoundTrip) {
  PrimeField f(7681);
  std::mt19937_64 rng(1);
  for (std::size_t n : {1u, 2u, 8u, 64u, 512u}) {
    std::vector<u64> a(n);
    for (u64& v : a) v = rng() % f.modulus();
    std::vector<u64> b = a;
    ntt_inplace(b, false, f);
    ntt_inplace(b, true, f);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Ntt, RejectsNonPowerOfTwo) {
  PrimeField f(7681);
  std::vector<u64> a(3, 1);
  EXPECT_THROW(ntt_inplace(a, false, f), std::invalid_argument);
}

TEST(Ntt, RejectsTooLong) {
  PrimeField f(17);
  std::vector<u64> a(32, 1);
  EXPECT_THROW(ntt_inplace(a, false, f), std::invalid_argument);
}

TEST(Ntt, TransformOfDeltaIsAllOnes) {
  PrimeField f(7681);
  std::vector<u64> a(8, 0);
  a[0] = 1;
  ntt_inplace(a, false, f);
  for (u64 v : a) EXPECT_EQ(v, 1u);
}

TEST(Ntt, ConvolveMatchesSchoolbook) {
  PrimeField f(find_ntt_prime(1 << 12, 12));
  std::mt19937_64 rng(2);
  for (auto [na, nb] : {std::pair<int, int>{1, 1},
                        {3, 5},
                        {17, 64},
                        {100, 100},
                        {255, 257}}) {
    std::vector<u64> a(na), b(nb);
    for (u64& v : a) v = rng() % f.modulus();
    for (u64& v : b) v = rng() % f.modulus();
    auto fast = ntt_convolve(a, b, f);
    std::vector<u64> slow(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = 0; j < b.size(); ++j) {
        slow[i + j] = f.add(slow[i + j], f.mul(a[i], b[j]));
      }
    }
    EXPECT_EQ(fast, slow) << na << "x" << nb;
  }
}

TEST(Ntt, ConvolveEmpty) {
  PrimeField f(7681);
  EXPECT_TRUE(ntt_convolve({}, {}, f).empty());
  std::vector<u64> a = {1, 2};
  EXPECT_TRUE(ntt_convolve(a, {}, f).empty());
}

TEST(NttTablesTest, TabledKernelMatchesPlainKernel) {
  PrimeField f(7681);
  MontgomeryField m(f);
  NttTables tables(m, 512);
  EXPECT_EQ(tables.capacity(), 512u);
  std::mt19937_64 rng(7);
  for (std::size_t n : {1u, 2u, 16u, 128u, 512u}) {
    std::vector<u64> a(n);
    for (u64& v : a) v = m.to_mont(rng() % f.modulus());
    for (bool inverse : {false, true}) {
      std::vector<u64> plain = a, tabled = a;
      ntt_inplace(plain, inverse, m);
      ntt_inplace(tabled, inverse, m, &tables);
      EXPECT_EQ(plain, tabled) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(NttTablesTest, TabledConvolveMatchesPlain) {
  PrimeField f(7681);
  MontgomeryField m(f);
  NttTables tables(m, 512);
  std::mt19937_64 rng(8);
  std::vector<u64> a(100), b(57);
  for (u64& v : a) v = m.to_mont(rng() % f.modulus());
  for (u64& v : b) v = m.to_mont(rng() % f.modulus());
  EXPECT_EQ(ntt_convolve(a, b, m), ntt_convolve(a, b, m, &tables));
}

TEST(NttTablesTest, CapacityClampedByTwoAdicity) {
  PrimeField tiny(17);  // two-adicity 4
  MontgomeryField m(tiny);
  NttTables tables(m, 4096);
  EXPECT_EQ(tables.capacity(), 16u);
  std::vector<u64> a(32, 1);
  // Past the table the untabled kernel runs, and 32 exceeds 2^a.
  EXPECT_THROW(ntt_inplace(a, false, m, &tables), std::invalid_argument);
}

TEST(NttTablesTest, RejectsModulusMismatch) {
  PrimeField f(7681), g(12289);
  MontgomeryField mf(f), mg(g);
  NttTables tables(mf, 64);
  std::vector<u64> a(16, 1);
  EXPECT_THROW(ntt_inplace(a, false, mg, &tables), std::invalid_argument);
}

TEST(NttTablesTest, TrivialFieldHasNoStages) {
  // q == 2 has two-adicity 0: capacity 1, so no twiddle stages and
  // nothing for the butterfly to read; the size-1 transform is the
  // identity either way.
  MontgomeryField m2{PrimeField(2)};
  NttTables trivial(m2, 16);
  EXPECT_EQ(trivial.capacity(), 1u);
  std::vector<u64> a = {1};
  ntt_inplace(a, false, m2, &trivial);
  EXPECT_EQ(a, std::vector<u64>{1});
}

// Canonical PrimeField transform of Montgomery-domain input, mapped
// back into the domain: the reference words both Montgomery paths
// must reproduce.
std::vector<u64> reference_ntt(const std::vector<u64>& a_mont, bool inverse,
                               const MontgomeryField& m) {
  std::vector<u64> plain = m.from_mont_vec(a_mont);
  ntt_inplace(plain, inverse, m.base());
  return m.to_mont_vec(plain);
}

TEST(NttShoup, TabledMatchesUntabledAcrossPrimeWidths) {
  // The tabled Shoup butterfly, the untabled REDC twiddle chain and
  // the PrimeField reference must agree word for word — on a narrow
  // prime (q < 2^31, the lane-dispatch regime) and on wide ones
  // (q >= 2^32, where the quotient product replaces the second
  // widening multiply). Both transform directions and convolution,
  // across tail-heavy sizes; 1024 is past the table's capacity and
  // must fall back to the chain with the same words.
  std::mt19937_64 rng(0x540F);
  for (u64 q : {u64{7681}, find_ntt_prime(1u << 29, 16),
                find_ntt_prime(u64{1} << 40, 20),
                find_ntt_prime(u64{1} << 61, 8)}) {
    PrimeField f(q);
    MontgomeryField m(f);
    NttTables tables(m, 512);
    ASSERT_EQ(tables.capacity(), 512u) << "q=" << q;
    for (std::size_t n : {1u, 2u, 16u, 128u, 512u, 1024u}) {
      if (static_cast<int>(std::countr_zero(n)) > f.two_adicity()) continue;
      std::vector<u64> a(n);
      for (u64& v : a) v = m.to_mont(rng() % q);
      for (bool inverse : {false, true}) {
        std::vector<u64> tabled = a, untabled = a;
        ntt_inplace(tabled, inverse, m, &tables);
        ntt_inplace(untabled, inverse, m);
        const std::string where = "q=" + std::to_string(q) +
                                  " n=" + std::to_string(n) +
                                  " inverse=" + std::to_string(inverse);
        EXPECT_EQ(tabled, untabled) << where;
        EXPECT_EQ(tabled, reference_ntt(a, inverse, m)) << where;
      }
    }
    std::vector<u64> a(100), b(57);
    for (u64& v : a) v = m.to_mont(rng() % q);
    for (u64& v : b) v = m.to_mont(rng() % q);
    const std::vector<u64> conv = ntt_convolve(a, b, m, &tables);
    EXPECT_EQ(conv, ntt_convolve(a, b, m)) << "q=" << q;
    EXPECT_EQ(m.from_mont_vec(conv),
              ntt_convolve(m.from_mont_vec(a), m.from_mont_vec(b), f))
        << "q=" << q;
  }
}

TEST(PolyMulDispatch, MatchesSchoolbookOnEveryKernelTable) {
  // poly_mul is the one product dispatcher: Karatsuba/schoolbook below
  // kNttThreshold output words, the NTT at and above it — tabled while
  // the table covers the transform, the REDC chain past it. Every
  // branch must return the schoolbook words, with or without tables,
  // on the scalar context and on every kernel table this CPU can run.
  std::mt19937_64 rng(0x9D15);
  const std::size_t t = poly_detail::kNttThreshold;
  for (u64 q : {find_ntt_prime(1u << 12, 14),
                find_ntt_prime(u64{1} << 40, 20)}) {
    const MontgomeryField m{PrimeField(q)};
    // Covers the t and t + 1 transforms, not the largest product's.
    const NttTables tables(m, 2 * t);
    std::vector<MontgomeryField> contexts = {m};
    if (cpu_supports_avx2() && avx2_kernels(q) != nullptr) {
      contexts.push_back(m.with_kernels(avx2_kernels(q)));
    }
    if (cpu_supports_avx512() && avx512_kernels(q) != nullptr) {
      contexts.push_back(m.with_kernels(avx512_kernels(q)));
    }
    for (std::size_t out : {t - 1, t, t + 1, 2 * t + 3}) {
      Poly a, b;
      for (std::size_t i = 0; i < out / 2; ++i) {
        a.c.push_back(m.to_mont(rng() % q));
      }
      for (std::size_t i = 0; i + a.c.size() <= out; ++i) {
        b.c.push_back(m.to_mont(rng() % q));
      }
      a.c.back() = b.c.back() = m.one();  // exact output length
      ASSERT_EQ(a.c.size() + b.c.size() - 1, out);
      const Poly want = poly_mul_schoolbook(a, b, m);
      for (const MontgomeryField& fs : contexts) {
        const std::string where =
            std::string(fs.kernels() == nullptr ? "scalar"
                                                : fs.kernels()->name) +
            " q=" + std::to_string(q) + " out=" + std::to_string(out);
        EXPECT_TRUE(poly_equal(poly_mul(a, b, fs), want)) << where;
        EXPECT_TRUE(poly_equal(poly_mul(a, b, fs, &tables), want)) << where;
      }
    }
  }
}

TEST(Ntt, LinearityProperty) {
  PrimeField f(7681);
  std::mt19937_64 rng(3);
  std::vector<u64> a(16), b(16);
  for (u64& v : a) v = rng() % f.modulus();
  for (u64& v : b) v = rng() % f.modulus();
  std::vector<u64> sum(16);
  for (int i = 0; i < 16; ++i) sum[i] = f.add(a[i], b[i]);
  auto ta = a, tb = b, ts = sum;
  ntt_inplace(ta, false, f);
  ntt_inplace(tb, false, f);
  ntt_inplace(ts, false, f);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ts[i], f.add(ta[i], tb[i]));
  }
}

}  // namespace
}  // namespace camelot
