// Field-backend perf trajectory: division-based baseline vs the
// Montgomery pipeline, emitted as BENCH_field.json so later PRs can
// track ns/op for scalar mul, the NTT and multipoint evaluation.
//
// The "before" paths reimplement the seed's division-based kernels
// locally (hardware-division reduction of every 128-bit product);
// the "after" paths call the library, which now runs the Montgomery
// backend end-to-end.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "field/field_cache.hpp"
#include "field/field_ops.hpp"
#include "field/montgomery.hpp"
#include "field/primes.hpp"
#include "linalg/matmul.hpp"
#include "poly/fast_div.hpp"
#include "poly/hgcd.hpp"
#include "poly/multipoint.hpp"
#include "poly/ntt.hpp"
#include "poly/poly.hpp"
#include "rs/gao.hpp"
#include "rs/reed_solomon.hpp"

namespace camelot {
namespace {

volatile u64 g_sink;  // defeats dead-code elimination

// ---- division-based reference kernels (the seed's hot paths) -------------

u64 ref_mul(u64 a, u64 b, u64 q) {
  return static_cast<u64>(static_cast<u128>(a) * b % q);
}

int log2_exact(std::size_t n) {
  int k = 0;
  while ((std::size_t{1} << k) < n) ++k;
  return k;
}

// The seed's radix-2 NTT: every butterfly product reduced by division.
void ref_ntt_inplace(std::vector<u64>& a, bool inverse, const PrimeField& f) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  const u64 q = f.modulus();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    u64 wlen = f.root_of_unity(log2_exact(len));
    if (inverse) wlen = f.inv(wlen);
    for (std::size_t i = 0; i < n; i += len) {
      u64 w = 1;
      for (std::size_t j = 0; j < len / 2; ++j) {
        const u64 u = a[i + j];
        const u64 v = ref_mul(a[i + j + len / 2], w, q);
        a[i + j] = f.add(u, v);
        a[i + j + len / 2] = f.sub(u, v);
        w = ref_mul(w, wlen, q);
      }
    }
  }
  if (inverse) {
    const u64 n_inv = f.inv(f.reduce(n));
    for (u64& v : a) v = ref_mul(v, n_inv, q);
  }
}

// The seed's subproduct-tree multipoint evaluation, instantiated with
// the division-based backend (poly_rem<PrimeField> reduces every
// product by hardware division).
struct RefTree {
  std::vector<std::vector<Poly>> levels;

  RefTree(std::span<const u64> points, const PrimeField& f) {
    std::vector<Poly> level;
    level.reserve(points.size());
    for (u64 x : points) level.push_back(Poly::linear_root(x, f));
    levels.push_back(std::move(level));
    while (levels.back().size() > 1) {
      const auto& prev = levels.back();
      std::vector<Poly> next;
      next.reserve((prev.size() + 1) / 2);
      for (std::size_t i = 0; i < prev.size(); i += 2) {
        if (i + 1 < prev.size()) {
          next.push_back(poly_mul_karatsuba(prev[i], prev[i + 1], f));
        } else {
          next.push_back(prev[i]);
        }
      }
      levels.push_back(std::move(next));
    }
  }

  void eval_rec(const Poly& p, std::size_t level, std::size_t idx,
                std::size_t lo, std::size_t hi, const PrimeField& f,
                std::vector<u64>& out) const {
    if (level == 0) {
      out[lo] = p.coeff(0);
      return;
    }
    const std::size_t span = std::size_t{1} << (level - 1);
    const std::size_t mid = std::min(hi, lo + span);
    const auto& child = levels[level - 1];
    const std::size_t left = 2 * idx, right = 2 * idx + 1;
    if (right >= child.size()) {
      eval_rec(p, level - 1, left, lo, hi, f, out);
      return;
    }
    Poly pl = p.degree() >= child[left].degree() ? poly_rem(p, child[left], f)
                                                 : p;
    Poly pr = p.degree() >= child[right].degree()
                  ? poly_rem(p, child[right], f)
                  : p;
    eval_rec(pl, level - 1, left, lo, mid, f, out);
    eval_rec(pr, level - 1, right, mid, hi, f, out);
  }

  std::vector<u64> evaluate(const Poly& p, std::size_t n,
                            const PrimeField& f) const {
    std::vector<u64> out(n, 0);
    Poly reduced = p;
    if (reduced.degree() >= levels.back()[0].degree()) {
      reduced = poly_rem(reduced, levels.back()[0], f);
    }
    eval_rec(reduced, levels.size() - 1, 0, 0, n, f, out);
    return out;
  }
};

// ---- timing ---------------------------------------------------------------

// Reduced by --quick (the CI smoke run) to keep the job fast.
double g_min_seconds = 0.25;

template <typename Fn>
double ns_per_op(Fn&& fn, double min_seconds = g_min_seconds) {
  // fn() performs one "op" and returns the number of inner units it
  // covered (1 for a whole transform, n for an array of muls).
  // Reports the *fastest* observed sample: the minimum is a stable
  // estimator of the true cost under scheduler/warm-up noise, which
  // keeps the --quick CI runs comparable to the committed baseline
  // (bench/check_bench.py gates on these numbers).
  fn();  // warm-up (page faults, caches) — not measured
  double best = std::numeric_limits<double>::infinity();
  double elapsed_total = 0.0;
  do {
    benchutil::Timer t;
    const double units = fn();
    const double elapsed = t.seconds();
    best = std::min(best, elapsed * 1e9 / units);
    elapsed_total += elapsed;
  } while (elapsed_total < min_seconds);
  return best;
}

struct Entry {
  std::string name;  // owned: the sweep entries build names at runtime
  const char* before_key;  // nullptr: a single gated time, no A/B
  const char* after_key;
  double before_ns;
  double after_ns;
};

// Name of the kernel table FieldOps resolves for q at the best
// backend this process runs ("scalar" when there is none).
const char* resolved_kernels(u64 q) {
  const MontKernels* k =
      FieldOps(PrimeField(q), best_backend()).mont().kernels();
  return k != nullptr ? k->name : "scalar";
}

}  // namespace
}  // namespace camelot

int main(int argc, char** argv) {
  using namespace camelot;
  std::string out_path = "BENCH_field.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      g_min_seconds = 0.1;  // CI smoke mode
    } else {
      out_path = arg;
    }
  }

  const u64 q = find_ntt_prime(u64{1} << 40, 20);  // large, NTT-friendly
  PrimeField f(q);
  MontgomeryField m(f);
  std::mt19937_64 rng(0xB16B00B5);

  std::vector<Entry> entries;

  // --- scalar mul ---------------------------------------------------------
  {
    constexpr std::size_t kN = 1 << 14;
    std::vector<u64> a(kN), b(kN);
    for (auto& v : a) v = rng() % q;
    for (auto& v : b) v = rng() % q;
    const std::vector<u64> am = m.to_mont_vec(a), bm = m.to_mont_vec(b);
    const double before = ns_per_op([&] {
      u64 acc = 0;
      for (std::size_t i = 0; i < kN; ++i) acc ^= ref_mul(a[i], b[i], q);
      g_sink = acc;
      return static_cast<double>(kN);
    });
    const double after = ns_per_op([&] {
      u64 acc = 0;
      for (std::size_t i = 0; i < kN; ++i) acc ^= m.mul(am[i], bm[i]);
      g_sink = acc;
      return static_cast<double>(kN);
    });
    entries.push_back(
        {"mul", "division_ns_per_op", "montgomery_ns_per_op", before, after});
  }

  // --- NTT (forward transform, length 2^14) -------------------------------
  {
    constexpr std::size_t kN = 1 << 14;
    std::vector<u64> base(kN);
    for (auto& v : base) v = rng() % q;
    const double before = ns_per_op([&] {
      std::vector<u64> a = base;
      ref_ntt_inplace(a, false, f);
      g_sink = a[0];
      return 1.0;
    });
    const double after = ns_per_op([&] {
      std::vector<u64> a = base;
      ntt_inplace(a, false, f);
      g_sink = a[0];
      return 1.0;
    });
    entries.push_back(
        {"ntt", "division_ns_per_op", "montgomery_ns_per_op", before, after});
  }

  // --- multipoint evaluation (2048 points, degree 2047) -------------------
  {
    constexpr std::size_t kN = 2048;
    std::vector<u64> pts(kN);
    std::iota(pts.begin(), pts.end(), u64{1});
    Poly p;
    p.c.resize(kN);
    for (auto& v : p.c) v = rng() % q;
    const RefTree ref_tree(pts, f);
    const SubproductTree tree(pts, f);
    const double before = ns_per_op([&] {
      g_sink = ref_tree.evaluate(p, kN, f)[0];
      return 1.0;
    });
    const double after = ns_per_op([&] {
      g_sink = tree.evaluate(p, f)[0];
      return 1.0;
    });
    entries.push_back({"multipoint_eval", "division_ns_per_op",
                       "montgomery_ns_per_op", before, after});
  }

  // --- NTT twiddle cache (FieldCache root-power tables, length 2^14) ------
  // "before" is the Montgomery kernel that re-powers the stage roots on
  // every call; "after" loads them from the FieldCache tables a session
  // shares across all of its transforms over the same prime.
  {
    constexpr std::size_t kN = 1 << 14;
    FieldCache cache;
    const auto tables = cache.ntt_tables(q, kN);
    std::vector<u64> base(kN);
    for (auto& v : base) v = rng() % q;
    const std::vector<u64> base_mont = m.to_mont_vec(base);
    const double before = ns_per_op([&] {
      std::vector<u64> a = base_mont;
      ntt_inplace(a, false, m);
      g_sink = a[0];
      return 1.0;
    });
    const double after = ns_per_op([&] {
      std::vector<u64> a = base_mont;
      ntt_inplace(a, false, m, tables.get());
      g_sink = a[0];
      return 1.0;
    });
    entries.push_back({"ntt_twiddle_cache", "uncached_ns_per_op",
                       "cached_ns_per_op", before, after});
  }

  // --- subproduct-tree build through cached twiddles (2048 points) --------
  // The per-prime construction cost a ProofSession pays for each
  // Reed--Solomon code: plain FieldOps (no tables) vs FieldCache ops.
  {
    constexpr std::size_t kN = 2048;
    FieldCache cache;
    const FieldOps plain(f);
    const FieldOps cached = cache.ops(q, 2 * kN);
    std::vector<u64> pts(kN);
    std::iota(pts.begin(), pts.end(), u64{1});
    const double before = ns_per_op([&] {
      SubproductTree t(pts, plain);
      g_sink = t.root().c[0];
      return 1.0;
    });
    const double after = ns_per_op([&] {
      SubproductTree t(pts, cached);
      g_sink = t.root().c[0];
      return 1.0;
    });
    entries.push_back({"subproduct_tree_build", "uncached_ns_per_op",
                       "cached_ns_per_op", before, after});
  }

  // --- Newton-inverse fast division vs schoolbook elimination -------------
  // One divrem at dividend degree 2d-1 / divisor degree d — the shape
  // of a top-level tree descent step and of a large Gao EEA quotient.
  // Both sides run the Montgomery backend with cached twiddles; only
  // the division algorithm differs (bit-identical results).
  {
    FieldCache cache;
    for (std::size_t d : {1024u, 4096u}) {
      const FieldOps ops = cache.ops(q, 4 * d, FieldBackend::kMontgomery);
      const MontgomeryField& mm = ops.mont();
      const auto random_coeffs = [&](std::size_t len) {
        std::vector<u64> c(len);
        for (auto& v : c) v = rng() % q;
        c.back() = 1 + rng() % (q - 1);  // nonzero leading coefficient
        return c;
      };
      Poly a = Poly{mm.to_mont_vec(random_coeffs(2 * d))};
      Poly b = Poly{mm.to_mont_vec(random_coeffs(d + 1))};
      const NttTables* tables = ops.ntt_tables().get();
      const double before = ns_per_op([&] {
        Poly qq, rr;
        poly_divrem(a, b, mm, &qq, &rr);
        g_sink = rr.coeff(0);
        return 1.0;
      });
      const double after = ns_per_op([&] {
        Poly qq, rr;
        poly_divrem_fast(a, b, mm, &qq, &rr, tables);
        g_sink = rr.coeff(0);
        return 1.0;
      });
      entries.push_back({"fastdiv_d" + std::to_string(d), "schoolbook_ns",
                         "fastdiv_ns", before, after});
    }
  }

  // --- multipoint evaluation / interpolation: descent A/B sweep -----------
  // The same tree inputs evaluated through trees built with the fast
  // descent disabled (crossover = infinity: schoolbook elimination at
  // every node) vs enabled (default crossover: cached Newton inverses
  // above it). The ratio must grow with the degree — that is the
  // O(d^2) -> O(d log^2 d) claim in measurable form.
  {
    FieldCache cache;
    for (std::size_t n : {1024u, 4096u, 16384u}) {
      const FieldOps ops = cache.ops(q, 2 * n, FieldBackend::kMontgomery);
      std::vector<u64> pts(n);
      std::iota(pts.begin(), pts.end(), u64{1});
      Poly p;
      p.c.resize(n);
      for (auto& v : p.c) v = rng() % q;
      std::vector<u64> vals(n);
      for (auto& v : vals) v = rng() % q;
      set_fastdiv_crossover(std::size_t{1} << 30);
      const SubproductTree tree_slow(pts, ops);
      set_fastdiv_crossover(0);  // default
      const SubproductTree tree_fast(pts, ops);
      const auto add = [&](std::string name, double before, double after) {
        entries.push_back({std::move(name), "schoolbook_ns", "fastdiv_ns",
                           before, after});
      };
      add("multipoint_fast_d" + std::to_string(n), ns_per_op([&] {
            g_sink = tree_slow.evaluate(p, f)[0];
            return 1.0;
          }),
          ns_per_op([&] {
            g_sink = tree_fast.evaluate(p, f)[0];
            return 1.0;
          }));
      add("interp_fast_d" + std::to_string(n), ns_per_op([&] {
            g_sink = tree_slow.interpolate(vals, f).coeff(0);
            return 1.0;
          }),
          ns_per_op([&] {
            g_sink = tree_fast.interpolate(vals, f).coeff(0);
            return 1.0;
          }));
    }
  }

  // --- middle product: clipped convolution vs transposed transform --------
  // The Newton-step shape (long operand 2d, short operand d, slice
  // [d, 2d)) that both fast-division products reduce to. "before"
  // reimplements the old clipped full convolution (cut operands at
  // x^hi, transform the padded full product, read the slice);
  // "after" is the landed wrapped-transform poly_mul_middle. Same
  // words either way.
  {
    FieldCache cache;
    for (std::size_t d : {1024u, 4096u}) {
      const FieldOps ops = cache.ops(q, 4 * d, FieldBackend::kMontgomery);
      const MontgomeryField& mm = ops.mont();
      const NttTables* tables = ops.ntt_tables().get();
      std::vector<u64> a(2 * d), b(d);
      for (auto& v : a) v = rng() % q;
      for (auto& v : b) v = rng() % q;
      const std::vector<u64> am = mm.to_mont_vec(a), bm = mm.to_mont_vec(b);
      const std::size_t lo = d, hi = 2 * d;
      const double before = ns_per_op([&] {
        const std::span<const u64> sa(am), sb(bm);
        std::vector<u64> prod = poly_detail::mul(
            sa.subspan(0, std::min(sa.size(), hi)),
            sb.subspan(0, std::min(sb.size(), hi)), mm, tables);
        std::vector<u64> out(hi - lo, 0);
        for (std::size_t i = lo; i < hi && i < prod.size(); ++i) {
          out[i - lo] = prod[i];
        }
        g_sink = out[0];
        return 1.0;
      });
      const double after = ns_per_op([&] {
        g_sink = poly_mul_middle(am, bm, lo, hi, mm, tables)[0];
        return 1.0;
      });
      entries.push_back({"mul_middle_d" + std::to_string(d), "clipped_ns",
                         "transposed_ns", before, after});
    }
  }

  // --- Gao decode: classical remainder sequence vs half-GCD cascade -------
  // One length-4096 code, error weight growing to the full decoding
  // radius (the dense adversarial regime): "before" decodes through a
  // code captured under an infinite HGCD crossover (pure classical
  // EEA), "after" under the default crossover (recursive cascade).
  // Identical outputs; the ratio is the Theta(e^2) -> O(e log^2 e)
  // claim for the remainder sequence in measurable form.
  {
    const std::size_t e_len = 4096;
    const std::size_t d_bound = e_len - 2 * 1024 - 1;  // radius exactly 1024
    FieldCache cache;
    const FieldOps ops = cache.ops(q, 2 * e_len, FieldBackend::kMontgomery);
    set_hgcd_crossover(std::size_t{1} << 30);
    const ReedSolomonCode code_classical(ops, d_bound, e_len);
    set_hgcd_crossover(0);  // default
    const ReedSolomonCode code_hgcd(ops, d_bound, e_len);
    Poly msg;
    msg.c.resize(d_bound + 1);
    for (auto& v : msg.c) v = rng() % q;
    const std::vector<u64> clean = code_hgcd.encode(msg);
    for (std::size_t errs : {64u, 256u, 1024u}) {
      std::vector<u64> word = clean;
      for (std::size_t i = 0; i < errs; ++i) {
        word[i] = (word[i] + 1 + rng() % (q - 1)) % q;
      }
      const double before = ns_per_op([&] {
        g_sink = gao_decode(code_classical, word).quotient_steps;
        return 1.0;
      });
      const double after = ns_per_op([&] {
        g_sink = gao_decode(code_hgcd, word).quotient_steps;
        return 1.0;
      });
      entries.push_back({"gao_hgcd_e" + std::to_string(errs), "classical_ns",
                         "hgcd_ns", before, after});
    }
  }

  // --- AVX2 kernel table vs scalar Montgomery ----------------------------
  // Measured on a *narrow* NTT prime (q < 2^31, the 5-vpmuludq
  // double-REDC32 table): the framework's CRT primes are chosen just
  // above the code length, so this is the regime every real session
  // runs in — there is no AVX2 table for wider primes, where 64-bit
  // lanes cannot beat mulx. Only emitted when the process resolves
  // kMontgomeryAvx2 (the committed baseline comes from an AVX2 host;
  // check_bench.py only compares keys present on both sides).
  if (simd_runtime_enabled()) {
    const u64 qn = find_ntt_prime(u64{1} << 29, 20);
    const PrimeField fn(qn);
    const MontgomeryField mn(fn);
    const MontgomeryField ms =
        FieldOps(fn, FieldBackend::kMontgomeryAvx2).mont();

    // Scalar mul throughput: Montgomery scalar loop vs 4xu64 lanes.
    {
      constexpr std::size_t kN = 1 << 14;
      std::vector<u64> a(kN), b(kN), out_v(kN);
      for (auto& v : a) v = rng() % qn;
      for (auto& v : b) v = rng() % qn;
      const std::vector<u64> am = mn.to_mont_vec(a), bm = mn.to_mont_vec(b);
      const double before = ns_per_op([&] {
        u64 acc = 0;
        for (std::size_t i = 0; i < kN; ++i) acc ^= mn.mul(am[i], bm[i]);
        g_sink = acc;
        return static_cast<double>(kN);
      });
      const double after = ns_per_op([&] {
        ms.mul_vec(am.data(), bm.data(), out_v.data(), kN);
        g_sink = out_v[0];
        return static_cast<double>(kN);
      });
      entries.push_back({"mul_avx2", "scalar_ns_per_op", "avx2_ns_per_op",
                         before, after});
    }

    // Tabled NTT: scalar butterflies vs lane-wide stages.
    {
      constexpr std::size_t kN = 1 << 14;
      FieldCache cache;
      const auto tables = cache.ntt_tables(qn, kN);
      std::vector<u64> base(kN);
      for (auto& v : base) v = rng() % qn;
      const std::vector<u64> base_mont = mn.to_mont_vec(base);
      const double before = ns_per_op([&] {
        std::vector<u64> a = base_mont;
        ntt_inplace(a, false, mn, tables.get());
        g_sink = a[0];
        return 1.0;
      });
      const double after = ns_per_op([&] {
        std::vector<u64> a = base_mont;
        ntt_inplace(a, false, ms, tables.get());
        g_sink = a[0];
        return 1.0;
      });
      entries.push_back({"ntt_avx2", "scalar_ns_per_op", "avx2_ns_per_op",
                         before, after});
    }

    // Multipoint evaluation through the backend seam: a subproduct
    // tree built from kMontgomery ops vs one from kMontgomeryAvx2 ops
    // (identical values, different kernels).
    {
      constexpr std::size_t kN = 2048;
      FieldCache cache;
      const FieldOps scalar_ops =
          cache.ops(qn, 2 * kN, FieldBackend::kMontgomery);
      const FieldOps simd_ops =
          cache.ops(qn, 2 * kN, FieldBackend::kMontgomeryAvx2);
      std::vector<u64> pts(kN);
      std::iota(pts.begin(), pts.end(), u64{1});
      const SubproductTree tree_scalar(pts, scalar_ops);
      const SubproductTree tree_simd(pts, simd_ops);
      Poly p;
      p.c.resize(kN);
      for (auto& v : p.c) v = rng() % qn;
      const double before = ns_per_op([&] {
        g_sink = tree_scalar.evaluate(p, fn)[0];
        return 1.0;
      });
      const double after = ns_per_op([&] {
        g_sink = tree_simd.evaluate(p, fn)[0];
        return 1.0;
      });
      entries.push_back({"multipoint_avx2", "scalar_ns_per_op",
                         "avx2_ns_per_op", before, after});
    }
  } else {
    std::printf("AVX2 unavailable (or CAMELOT_FORCE_SCALAR set); "
                "skipping *_avx2 entries\n");
  }

  // --- AVX-512 kernel tables vs scalar Montgomery ------------------------
  // Same shape as mul_avx2 but on 8xu64 lanes; the narrow prime takes
  // the REDC-32 table, the wide prime the vpmullq REDC-64 table AVX2
  // has no counterpart for. Only emitted when the process resolves
  // kMontgomeryAvx512.
  if (simd512_runtime_enabled()) {
    for (const bool wide : {false, true}) {
      const u64 qv = wide ? q : find_ntt_prime(u64{1} << 29, 20);
      const MontgomeryField mv((PrimeField(qv)));
      const MontgomeryField ms512 =
          FieldOps(PrimeField(qv), FieldBackend::kMontgomeryAvx512).mont();
      constexpr std::size_t kN = 1 << 14;
      std::vector<u64> a(kN), b(kN), out_v(kN);
      for (auto& v : a) v = rng() % qv;
      for (auto& v : b) v = rng() % qv;
      const std::vector<u64> am = mv.to_mont_vec(a), bm = mv.to_mont_vec(b);
      const double before = ns_per_op([&] {
        u64 acc = 0;
        for (std::size_t i = 0; i < kN; ++i) acc ^= mv.mul(am[i], bm[i]);
        g_sink = acc;
        return static_cast<double>(kN);
      });
      const double after = ns_per_op([&] {
        ms512.mul_vec(am.data(), bm.data(), out_v.data(), kN);
        g_sink = out_v[0];
        return static_cast<double>(kN);
      });
      entries.push_back({wide ? "mul_avx512_wide" : "mul_avx512",
                         "scalar_ns_per_op", "avx512_ns_per_op", before,
                         after});
    }
  } else {
    std::printf("AVX-512 unavailable (or forced off); "
                "skipping *_avx512 entries\n");
  }

  // --- Shoup-tabled NTT ---------------------------------------------------
  // The cached-twiddle transform (Shoup butterfly: canonical twiddle
  // plus precomputed quotient, no REDC) on the kernel table FieldOps
  // resolves for a narrow and a wide prime. One gated time per entry:
  // the untabled REDC chain it replaces is the "before" side of
  // ntt_twiddle_cache.
  {
    FieldCache cache;
    struct ShoupCase {
      const char* name;
      u64 prime;
    };
    const ShoupCase cases[] = {
        {"ntt_shoup_narrow", find_ntt_prime(u64{1} << 29, 20)},
        {"ntt_shoup_wide", q},
    };
    for (const ShoupCase& sc : cases) {
      constexpr std::size_t kN = 1 << 14;
      const FieldOps ops = cache.ops(sc.prime, kN, best_backend());
      const MontgomeryField& mm = ops.mont();
      const NttTables* tables = ops.ntt_tables().get();
      std::vector<u64> base(kN);
      for (auto& v : base) v = rng() % sc.prime;
      const std::vector<u64> base_mont = mm.to_mont_vec(base);
      const double ns = ns_per_op([&] {
        std::vector<u64> a = base_mont;
        ntt_inplace(a, false, mm, tables);
        g_sink = a[0];
        return 1.0;
      });
      entries.push_back({sc.name, nullptr, "shoup_ns_per_op", 0.0, ns});
    }
  }

  // --- wide-prime matmul: division kernel vs Shoup products ---------------
  // The q >= 2^32 classical kernel the linear-algebra layer used to
  // run (one u128 % q per term) against the landed per-entry Shoup
  // precompute. Same output words; the ratio is the cost of a
  // hardware 128/64 division against mulhi + two mullo.
  {
    constexpr std::size_t kDim = 96;
    Matrix ma(kDim, kDim), mb(kDim, kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      for (std::size_t j = 0; j < kDim; ++j) {
        ma.at(i, j) = rng() % q;
        mb.at(i, j) = rng() % q;
      }
    }
    const double before = ns_per_op([&] {
      Matrix out_m(kDim, kDim);
      for (std::size_t i = 0; i < kDim; ++i) {
        for (std::size_t j = 0; j < kDim; ++j) {
          u64 acc = 0;
          for (std::size_t t = 0; t < kDim; ++t) {
            acc = f.add(acc, ref_mul(ma.at(i, t), mb.at(t, j), q));
          }
          out_m.at(i, j) = acc;
        }
      }
      g_sink = out_m.at(0, 0);
      return 1.0;
    });
    const double after = ns_per_op([&] {
      g_sink = matmul_classical(ma, mb, f).at(0, 0);
      return 1.0;
    });
    entries.push_back({"matmul_wide", "division_ns_per_op",
                       "shoup_ns_per_op", before, after});
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"prime\": %llu,\n",
               static_cast<unsigned long long>(q));
  // Host fingerprint: which kernel tables the gated numbers ran on.
  // check_bench.py reads only "benchmarks", so this is for the reader.
  std::fprintf(out,
               "  \"host\": {\"nproc\": %u, "
               "\"kernels_narrow_q\": \"%s\", "
               "\"kernels_wide_q\": \"%s\"},\n",
               std::thread::hardware_concurrency(),
               resolved_kernels(find_ntt_prime(u64{1} << 29, 20)),
               resolved_kernels(q));
  std::fprintf(out, "  \"benchmarks\": {\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const char* sep = i + 1 < entries.size() ? "," : "";
    if (e.before_key == nullptr) {
      std::fprintf(out, "    \"%s\": {\"%s\": %.2f}%s\n", e.name.c_str(),
                   e.after_key, e.after_ns, sep);
      continue;
    }
    std::fprintf(out,
                 "    \"%s\": {\"%s\": %.2f, \"%s\": %.2f, "
                 "\"speedup\": %.2f}%s\n",
                 e.name.c_str(), e.before_key, e.before_ns, e.after_key,
                 e.after_ns, e.before_ns / e.after_ns, sep);
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);

  for (const Entry& e : entries) {
    if (e.before_key == nullptr) {
      std::printf("%-16s %10.2f ns/op\n", e.name.c_str(), e.after_ns);
      continue;
    }
    std::printf("%-16s before %10.2f ns/op   after %10.2f ns/op   %.2fx\n",
                e.name.c_str(), e.before_ns, e.after_ns,
                e.before_ns / e.after_ns);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
