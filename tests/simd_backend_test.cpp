// Property tests for the Montgomery kernel tables: every table this
// CPU can run must agree bit-for-bit with the scalar loops of a
// context without a table, on randomized inputs, across narrow and
// wide primes, q == 2, batch lengths on both sides of the
// MontgomeryField::kMinBatch forwarding guard and of the lane widths,
// and in-place calls. The kernel tests pick tables by CPUID alone, so
// they keep running under CAMELOT_FORCE_SCALAR / CAMELOT_FORCE_AVX2;
// the dispatch and pipeline tests go through FieldOps resolution and
// pin down its fallback behavior.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "field/field_cache.hpp"
#include "field/field_ops.hpp"
#include "field/montgomery_avx512.hpp"
#include "field/montgomery_simd.hpp"
#include "field/primes.hpp"
#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"
#include "poly/ntt.hpp"
#include "poly/poly.hpp"
#include "rs/gao.hpp"
#include "rs/reed_solomon.hpp"
#include "yates/yates.hpp"

namespace camelot {
namespace {

// Primes of assorted sizes: 2 (identity domain, never on a table), 3
// and 5 (tiny-modulus corners), narrow primes for the REDC-32 tables
// and wide ones for the AVX-512 wide table.
std::vector<u64> test_primes() {
  return {2, 3, 5, 97, find_ntt_prime(1u << 12, 8),
          find_ntt_prime(u64{1} << 30, 16), find_ntt_prime(u64{1} << 40, 20),
          find_ntt_prime(u64{1} << 61, 8)};
}

// Every kernel table this CPU can run for m's prime, each as a context
// over m's constants.
std::vector<MontgomeryField> lane_contexts(const MontgomeryField& m) {
  std::vector<MontgomeryField> out;
  const u64 q = m.modulus();
  if (cpu_supports_avx2() && avx2_kernels(q) != nullptr) {
    out.push_back(m.with_kernels(avx2_kernels(q)));
  }
  if (cpu_supports_avx512() && avx512_kernels(q) != nullptr) {
    out.push_back(m.with_kernels(avx512_kernels(q)));
  }
  return out;
}

std::string table_name(const MontgomeryField& f) {
  return f.kernels() == nullptr ? "scalar" : f.kernels()->name;
}

// Lane backends to request through FieldOps; each test skips those
// that resolve to scalar on this process.
constexpr FieldBackend kLaneBackends[] = {FieldBackend::kMontgomeryAvx2,
                                          FieldBackend::kMontgomeryAvx512};

std::vector<u64> random_domain_values(const MontgomeryField& m,
                                      std::size_t n, std::mt19937_64& rng) {
  std::vector<u64> out(n);
  for (u64& v : out) v = m.to_mont(rng() % m.modulus());
  return out;
}

TEST(SimdDispatch, ResolutionFollowsRuntimeSupport) {
  const PrimeField f(find_ntt_prime(1u << 12, 8));
  const FieldOps ops(f, FieldBackend::kMontgomeryAvx2);
  if (simd_runtime_enabled()) {
    EXPECT_EQ(ops.backend(), FieldBackend::kMontgomeryAvx2);
    EXPECT_TRUE(ops.simd());
    EXPECT_EQ(ops.mont().kernels(), avx2_kernels(f.modulus()));
  } else {
    EXPECT_EQ(ops.backend(), FieldBackend::kMontgomery);
    EXPECT_FALSE(ops.simd());
  }
  // An AVX-512 request steps down the ladder one rung at a time.
  const FieldOps ops512(f, FieldBackend::kMontgomeryAvx512);
  if (simd512_runtime_enabled()) {
    EXPECT_EQ(ops512.backend(), FieldBackend::kMontgomeryAvx512);
    EXPECT_TRUE(ops512.simd());
    EXPECT_EQ(table_name(ops512.mont()), "avx512-narrow");
  } else if (simd_runtime_enabled()) {
    EXPECT_EQ(ops512.backend(), FieldBackend::kMontgomeryAvx2);
    EXPECT_EQ(table_name(ops512.mont()), "avx2-narrow");
  } else {
    EXPECT_EQ(ops512.backend(), FieldBackend::kMontgomery);
  }
  // best_backend() names the top of the ladder the host can run.
  if (simd512_runtime_enabled()) {
    EXPECT_EQ(best_backend(), FieldBackend::kMontgomeryAvx512);
  } else if (simd_runtime_enabled()) {
    EXPECT_EQ(best_backend(), FieldBackend::kMontgomeryAvx2);
  } else {
    EXPECT_EQ(best_backend(), FieldBackend::kMontgomery);
  }
  // Explicit scalar requests are never upgraded.
  for (FieldBackend b :
       {FieldBackend::kMontgomery, FieldBackend::kPrimeDivision}) {
    const FieldOps scalar(f, b);
    EXPECT_EQ(scalar.backend(), b);
    EXPECT_EQ(scalar.mont().kernels(), nullptr);
  }
}

TEST(SimdDispatch, WidePrimeResolvesScalar) {
  // q >= 2^31: 4xu64 AVX2 lanes cannot beat scalar mulx, so there is
  // no wide AVX2 table. AVX-512 has a wide (vpmullq REDC-64) table, so
  // a 512 request keeps its lanes.
  const PrimeField f(find_ntt_prime(u64{1} << 40, 20));
  EXPECT_EQ(avx2_kernels(f.modulus()), nullptr);
  const FieldOps ops(f, FieldBackend::kMontgomeryAvx2);
  EXPECT_EQ(ops.backend(), FieldBackend::kMontgomery);
  EXPECT_EQ(ops.mont().kernels(), nullptr);
  if (simd512_runtime_enabled()) {
    const FieldOps ops512(f, FieldBackend::kMontgomeryAvx512);
    EXPECT_EQ(ops512.backend(), FieldBackend::kMontgomeryAvx512);
    EXPECT_EQ(table_name(ops512.mont()), "avx512-wide");
  }
}

TEST(SimdDispatch, TrivialModulusAlwaysResolvesScalar) {
  // q == 2 has no Montgomery representation; no table implements the
  // identity-domain mode, so none exists and none can be attached.
  EXPECT_EQ(avx2_kernels(2), nullptr);
  EXPECT_EQ(avx512_kernels(2), nullptr);
  for (FieldBackend b : kLaneBackends) {
    const FieldOps ops(PrimeField(2), b);
    EXPECT_EQ(ops.backend(), FieldBackend::kMontgomery);
    EXPECT_EQ(ops.mont().kernels(), nullptr);
  }
  const MontgomeryField m{PrimeField(2)};
  EXPECT_EQ(m.with_kernels(avx512_kernels(3)).kernels(), nullptr);
}

TEST(SimdDispatch, Avx512SelectorPicksTheWidthTable) {
  for (u64 q : {find_ntt_prime(1u << 12, 8), find_ntt_prime(u64{1} << 40, 20),
                u64{2}}) {
    const MontgomeryField m{PrimeField(q)};
    const MontgomeryAvx512Field sel(m);
    EXPECT_FALSE(sel.ifma());
    EXPECT_EQ(sel.field().modulus(), q);
    if (cpu_supports_avx512()) {
      EXPECT_EQ(sel.field().kernels(), avx512_kernels(q)) << "q=" << q;
    } else {
      EXPECT_EQ(sel.field().kernels(), nullptr);
    }
  }
}

TEST(SimdBackend, ElementwiseKernelsMatchScalar) {
  std::mt19937_64 rng(0xA2C2);
  for (u64 q : test_primes()) {
    const MontgomeryField m{PrimeField(q)};
    // The scalar context checks the inline loops against the per-
    // element definitions; the tables check their lanes and tails.
    std::vector<MontgomeryField> contexts = lane_contexts(m);
    contexts.insert(contexts.begin(), m);
    for (const MontgomeryField& fs : contexts) {
      // Across the n < kMinBatch guard, the 4- and 8-lane widths and
      // their tails.
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{8}, std::size_t{9}, std::size_t{63},
                            std::size_t{64}, std::size_t{1000}}) {
        const std::string where =
            table_name(fs) + " q=" + std::to_string(q) + " n=" +
            std::to_string(n);
        const std::vector<u64> a = random_domain_values(m, n, rng);
        const std::vector<u64> b = random_domain_values(m, n, rng);
        const u64 s = m.to_mont(rng() % q);

        std::vector<u64> got(n), want(n);
        fs.mul_vec(a.data(), b.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) want[i] = m.mul(a[i], b[i]);
        EXPECT_EQ(got, want) << "mul_vec " << where;
        got = a;  // in place: out == a
        fs.mul_vec(got.data(), b.data(), got.data(), n);
        EXPECT_EQ(got, want) << "mul_vec in place " << where;

        fs.scale_vec(a.data(), s, got.data(), n);
        for (std::size_t i = 0; i < n; ++i) want[i] = m.mul(a[i], s);
        EXPECT_EQ(got, want) << "scale_vec " << where;
        got = a;
        fs.scale_vec(got.data(), s, got.data(), n);
        EXPECT_EQ(got, want) << "scale_vec in place " << where;

        got = a;
        want = a;
        fs.addmul_inplace(got.data(), s, b.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = m.add(want[i], m.mul(s, b[i]));
        }
        EXPECT_EQ(got, want) << "addmul " << where;

        got = a;
        want = a;
        fs.submul_inplace(got.data(), s, b.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = m.sub(want[i], m.mul(s, b[i]));
        }
        EXPECT_EQ(got, want) << "submul " << where;

        got = a;
        want = a;
        fs.add_inplace(got.data(), b.data(), n);
        for (std::size_t i = 0; i < n; ++i) want[i] = m.add(want[i], b[i]);
        EXPECT_EQ(got, want) << "add_inplace " << where;

        fs.sub_from_scalar(s, a.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) want[i] = m.sub(s, a[i]);
        EXPECT_EQ(got, want) << "sub_from_scalar " << where;
        got = a;
        fs.sub_from_scalar(s, got.data(), got.data(), n);
        EXPECT_EQ(got, want) << "sub_from_scalar in place " << where;

        u64 acc = 0;
        for (std::size_t i = 0; i < n; ++i) {
          acc = m.add(acc, m.mul(a[i], b[i]));
        }
        EXPECT_EQ(fs.dot(a.data(), b.data(), n), acc) << "dot " << where;
      }
    }
  }
}

TEST(SimdBackend, NttMatchesScalarTabledAndUntabled) {
  std::mt19937_64 rng(0xB3D1);
  for (u64 q :
       {find_ntt_prime(1u << 12, 14), find_ntt_prime(u64{1} << 40, 20)}) {
    const MontgomeryField m{PrimeField(q)};
    const NttTables tables(m, 1u << 12);
    for (const MontgomeryField& fs : lane_contexts(m)) {
      const std::string name = table_name(fs);
      // Stages below, at and above both lane widths.
      for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{16}, std::size_t{64},
                            std::size_t{4096}}) {
        for (bool inverse : {false, true}) {
          const std::vector<u64> base = random_domain_values(m, n, rng);
          std::vector<u64> scalar = base, simd = base;
          ntt_inplace(scalar, inverse, m);
          ntt_inplace(simd, inverse, fs);
          EXPECT_EQ(simd, scalar) << name << " untabled q=" << q
                                  << " n=" << n << " inv=" << inverse;
          // Tabled: the Shoup butterfly (default on) and REDC stages.
          scalar = base;
          simd = base;
          ntt_inplace(scalar, inverse, m, tables);
          ntt_inplace(simd, inverse, fs, tables);
          EXPECT_EQ(simd, scalar) << name << " tabled q=" << q
                                  << " n=" << n << " inv=" << inverse;
        }
      }
      // Convolutions of tail-heavy (non-power-of-two) lengths.
      for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{1, 1},
                            {5, 3},
                            {513, 511},
                            {1000, 37}}) {
        const std::vector<u64> a = random_domain_values(m, na, rng);
        const std::vector<u64> b = random_domain_values(m, nb, rng);
        EXPECT_EQ(ntt_convolve(a, b, fs), ntt_convolve(a, b, m)) << name;
        EXPECT_EQ(ntt_convolve(a, b, fs, tables),
                  ntt_convolve(a, b, m, tables))
            << name;
      }
    }
  }
}

TEST(SimdBackend, PolyKernelsMatchScalar) {
  std::mt19937_64 rng(0xC4E3);
  for (u64 q : test_primes()) {
    const MontgomeryField m{PrimeField(q)};
    for (const MontgomeryField& fs : lane_contexts(m)) {
      for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{1, 1},
                            {7, 5},
                            {40, 33},
                            {200, 100}}) {
        const Poly a{random_domain_values(m, na, rng)};
        Poly b{random_domain_values(m, nb, rng)};
        b.c.back() = m.one();  // divisor needs an invertible leading coeff
        const std::string where = table_name(fs) + " q=" + std::to_string(q);
        EXPECT_TRUE(poly_equal(poly_mul_schoolbook(a, b, fs),
                               poly_mul_schoolbook(a, b, m)))
            << where;
        EXPECT_TRUE(poly_equal(poly_mul_karatsuba(a, b, fs),
                               poly_mul_karatsuba(a, b, m)))
            << where;
        EXPECT_TRUE(poly_equal(poly_mul(a, b, fs), poly_mul(a, b, m)))
            << where;
        Poly qs, rs, qv, rv;
        poly_divrem(a, b, m, &qs, &rs);
        poly_divrem(a, b, fs, &qv, &rv);
        EXPECT_TRUE(poly_equal(qv, qs)) << where;
        EXPECT_TRUE(poly_equal(rv, rs)) << where;
      }
    }
  }
}

TEST(SimdBackend, MultipointTreeMatchesScalarBackend) {
  std::mt19937_64 rng(0xD5F4);
  FieldCache cache;
  const u64 q = find_ntt_prime(1u << 14, 14);
  const PrimeField f(q);
  bool ran_lanes = false;
  for (FieldBackend backend : kLaneBackends) {
    for (std::size_t n : {std::size_t{5}, std::size_t{13}, std::size_t{64},
                          std::size_t{1000}}) {
      const FieldOps scalar_ops =
          cache.ops(q, 2 * n, FieldBackend::kMontgomery);
      const FieldOps simd_ops = cache.ops(q, 2 * n, backend);
      if (!simd_ops.simd()) continue;
      ran_lanes = true;
      std::vector<u64> pts(n);
      for (std::size_t i = 0; i < n; ++i) pts[i] = i + 1;
      const SubproductTree ts(pts, scalar_ops);
      const SubproductTree tv(pts, simd_ops);
      // Identical node polynomials (Montgomery domain, bit-for-bit).
      EXPECT_TRUE(poly_equal(tv.root_mont(), ts.root_mont()));

      Poly p;
      p.c.resize(n);
      for (u64& v : p.c) v = rng() % q;
      EXPECT_EQ(tv.evaluate(p, f), ts.evaluate(p, f))
          << table_name(simd_ops.mont()) << " evaluate n=" << n;

      std::vector<u64> ys(n);
      for (u64& v : ys) v = rng() % q;
      EXPECT_TRUE(poly_equal(tv.interpolate(ys, f), ts.interpolate(ys, f)))
          << table_name(simd_ops.mont()) << " interpolate n=" << n;
    }
  }
  if (!ran_lanes) GTEST_SKIP() << "no lane kernel table resolved";
}

TEST(SimdBackend, GaoDecodeMatchesScalarBackend) {
  std::mt19937_64 rng(0xE605);
  FieldCache cache;
  bool ran_lanes = false;
  for (FieldBackend backend : kLaneBackends) {
    for (u64 q :
         {find_ntt_prime(1u << 12, 12), find_ntt_prime(1u << 30, 16)}) {
      for (auto [d, e] : {std::pair<std::size_t, std::size_t>{10, 31},
                          {100, 201}}) {
        const FieldOps scalar_ops =
            cache.ops(q, 2 * e, FieldBackend::kMontgomery);
        const FieldOps simd_ops = cache.ops(q, 2 * e, backend);
        if (!simd_ops.simd()) continue;
        ran_lanes = true;
        const ReedSolomonCode cs(scalar_ops, d, e);
        const ReedSolomonCode cv(simd_ops, d, e);
        Poly msg;
        msg.c.resize(d + 1);
        for (u64& v : msg.c) v = rng() % q;
        std::vector<u64> word = cs.encode(msg);
        EXPECT_EQ(cv.encode(msg), word);
        // Corrupt up to the unique decoding radius.
        const std::size_t radius = cs.decoding_radius();
        for (std::size_t errs : {std::size_t{0}, radius / 2, radius}) {
          std::vector<u64> received = word;
          for (std::size_t t = 0; t < errs; ++t) {
            received[(t * 7919) % e] = rng() % q;
          }
          const GaoResult rs = gao_decode(cs, received);
          const GaoResult rv = gao_decode(cv, received);
          EXPECT_EQ(rv.status, rs.status);
          EXPECT_TRUE(poly_equal(rv.message, rs.message));
          EXPECT_EQ(rv.error_locations, rs.error_locations);
          EXPECT_EQ(rv.corrected, rs.corrected);
        }
      }
    }
  }
  if (!ran_lanes) GTEST_SKIP() << "no lane kernel table resolved";
}

TEST(SimdBackend, YatesAndLagrangeMatchScalarBackend) {
  std::mt19937_64 rng(0xF716);
  const u64 q = find_ntt_prime(1u << 12, 8);
  const PrimeField f(q);
  const MontgomeryField m(f);
  // 3x2 base, k = 5: suffix pushes of every length from 16 down to 1.
  // 4x7 base, k = 4: the clique evaluator's shape, suffixes 343..1.
  struct Shape {
    std::size_t t_dim, s_dim;
    unsigned k;
  };
  for (const Shape& sh : {Shape{3, 2, 5}, Shape{4, 7, 4}}) {
    std::vector<u64> base = random_domain_values(m, sh.t_dim * sh.s_dim, rng);
    base[1] = m.one();  // exercise the unit-weight (add_inplace) path
    base[3] = 0;        // and the skip path
    const std::vector<u64> x =
        random_domain_values(m, ipow(sh.s_dim, sh.k), rng);
    const std::vector<u64> want =
        yates_apply(m, base, sh.t_dim, sh.s_dim, x, sh.k);
    for (const MontgomeryField& fs : lane_contexts(m)) {
      EXPECT_EQ(yates_apply(fs, base, sh.t_dim, sh.s_dim, x, sh.k), want)
          << table_name(fs) << " t=" << sh.t_dim << " s=" << sh.s_dim;
    }
  }

  const FieldOps scalar_ops(f, FieldBackend::kMontgomery);
  for (FieldBackend backend : kLaneBackends) {
    const FieldOps simd_ops(f, backend);
    if (!simd_ops.simd()) continue;
    for (std::size_t count :
         {std::size_t{1}, std::size_t{6}, std::size_t{49}}) {
      const ConsecutiveLagrange ls(1, count, scalar_ops);
      const ConsecutiveLagrange lv(1, count, simd_ops);
      std::vector<u64> values(count);
      for (u64& v : values) v = rng() % q;
      // Random points, plus hits on the first/last node.
      for (u64 x0 : {rng() % q, u64{1}, count}) {
        EXPECT_EQ(lv.basis_mont(x0), ls.basis_mont(x0)) << "count=" << count;
        EXPECT_EQ(lv.basis(x0), ls.basis(x0));
        EXPECT_EQ(lv.eval(values, x0), ls.eval(values, x0));
      }
    }
  }
}

TEST(Avx512Backend, FourWayBackendBitIdentity) {
  // The full ladder — division, scalar Montgomery, AVX2, AVX-512 —
  // must produce identical encode/decode words through the RS
  // pipeline; rungs the host cannot run resolve downward and the
  // equality stays meaningful (it degenerates gracefully rather than
  // skipping outright).
  std::mt19937_64 rng(0x512C);
  FieldCache cache;
  const u64 q = find_ntt_prime(1u << 12, 12);
  const std::size_t d = 40, e = 101;
  const FieldBackend backends[] = {
      FieldBackend::kPrimeDivision, FieldBackend::kMontgomery,
      FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512};
  Poly msg;
  msg.c.resize(d + 1);
  for (u64& v : msg.c) v = rng() % q;
  std::vector<u64> ref_word;
  for (const FieldBackend b : backends) {
    const FieldOps ops = cache.ops(q, 2 * e, b);
    const ReedSolomonCode code(ops, d, e);
    std::vector<u64> word = code.encode(msg);
    if (ref_word.empty()) {
      ref_word = word;
    } else {
      EXPECT_EQ(word, ref_word) << "backend=" << static_cast<int>(b);
    }
    for (std::size_t t = 0; t < code.decoding_radius(); ++t) {
      word[(t * 7919) % e] = rng() % q;
    }
    const GaoResult r = gao_decode(code, word);
    EXPECT_EQ(r.status, DecodeStatus::kOk)
        << "backend=" << static_cast<int>(b);
    EXPECT_TRUE(poly_equal(r.message, msg))
        << "backend=" << static_cast<int>(b);
  }
}

TEST(Avx512Backend, PipelineSeamsMatchAvx2AndScalar) {
  if (!simd512_runtime_enabled()) {
    GTEST_SKIP() << "AVX-512 unavailable or forced off";
  }
  std::mt19937_64 rng(0x512D);
  FieldCache cache;
  const u64 q = find_ntt_prime(1u << 14, 14);
  const PrimeField f(q);
  const MontgomeryField m(f);
  const MontgomeryField fs = MontgomeryAvx512Field(m).field();
  ASSERT_EQ(table_name(fs), "avx512-narrow");
  // Poly kernels on the AVX-512 table.
  for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{7, 5},
                        {40, 33},
                        {200, 100}}) {
    const Poly a{random_domain_values(m, na, rng)};
    Poly b{random_domain_values(m, nb, rng)};
    b.c.back() = m.one();
    EXPECT_TRUE(poly_equal(poly_mul(a, b, fs), poly_mul(a, b, m)));
    Poly qs, rs, qv, rv;
    poly_divrem(a, b, m, &qs, &rs);
    poly_divrem(a, b, fs, &qv, &rv);
    EXPECT_TRUE(poly_equal(qv, qs));
    EXPECT_TRUE(poly_equal(rv, rs));
  }
  // Multipoint tree built from kMontgomeryAvx512 ops.
  const std::size_t n = 1000;
  const FieldOps scalar_ops = cache.ops(q, 2 * n, FieldBackend::kMontgomery);
  const FieldOps simd_ops =
      cache.ops(q, 2 * n, FieldBackend::kMontgomeryAvx512);
  std::vector<u64> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = i + 1;
  const SubproductTree ts(pts, scalar_ops);
  const SubproductTree tv(pts, simd_ops);
  EXPECT_TRUE(poly_equal(tv.root_mont(), ts.root_mont()));
  Poly p;
  p.c.resize(n);
  for (u64& v : p.c) v = rng() % q;
  EXPECT_EQ(tv.evaluate(p, f), ts.evaluate(p, f));
  std::vector<u64> ys(n);
  for (u64& v : ys) v = rng() % q;
  EXPECT_TRUE(poly_equal(tv.interpolate(ys, f), ts.interpolate(ys, f)));
  // Yates and Lagrange through the same seams the evaluators use.
  std::vector<u64> base = random_domain_values(m, 6, rng);
  base[1] = m.one();
  base[3] = 0;
  std::vector<u64> x = random_domain_values(m, std::size_t{1} << 5, rng);
  EXPECT_EQ(yates_apply(fs, base, 3, 2, x, 5),
            yates_apply(m, base, 3, 2, x, 5));
  const ConsecutiveLagrange ls(1, 49, scalar_ops);
  const ConsecutiveLagrange lv(1, 49, simd_ops);
  std::vector<u64> values(49);
  for (u64& v : values) v = rng() % q;
  for (u64 x0 : {rng() % q, u64{1}, u64{49}}) {
    EXPECT_EQ(lv.basis_mont(x0), ls.basis_mont(x0));
    EXPECT_EQ(lv.eval(values, x0), ls.eval(values, x0));
  }
}

}  // namespace
}  // namespace camelot
