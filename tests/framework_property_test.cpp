// Cross-problem framework invariants: every CamelotProblem in the
// library must (a) honour its declared degree bound, (b) produce a
// proof that passes independent verification, (c) read the same
// answers from the decoded codeword at every code rate and on every
// field backend, and (d) behave correctly at the exact unique-decoding
// radius boundary.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <random>

#include "apps/conv3sum.hpp"
#include "apps/csp2.hpp"
#include "apps/hamming.hpp"
#include "apps/ov.hpp"
#include "core/proof_session.hpp"
#include "core/verifier.hpp"
#include "count/clique_camelot.hpp"
#include "count/triangle_camelot.hpp"
#include "exp/chromatic.hpp"
#include "exp/hamilton.hpp"
#include "exp/permanent.hpp"
#include "exp/setcover.hpp"
#include "exp/setpartition.hpp"
#include "exp/tutte.hpp"
#include "field/primes.hpp"
#include "graph/generators.hpp"
#include "rs/gao.hpp"

namespace camelot {
namespace {

constexpr FieldBackend kAllBackends[] = {
    FieldBackend::kPrimeDivision, FieldBackend::kMontgomery,
    FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512};

TEST(ProofValues, AtAndSumMatchHornerOnEveryBackend) {
  // at(x) is the constant coefficient at 0, a codeword symbol at 1..e
  // and Horner past e; every case must equal poly_eval.
  const std::size_t d = 40;
  const u64 q = find_ntt_prime(1000, 8);
  PrimeField f(q);
  std::mt19937_64 rng(3);
  Poly p;
  p.c.resize(d + 1);
  for (u64& c : p.c) c = 1 + rng() % (q - 1);
  for (FieldBackend backend : kAllBackends) {
    const FieldOps ops(f, backend);
    for (std::size_t e : {d + 1, 2 * (d + 1)}) {
      const ReedSolomonCode code(ops, d, e);
      const GaoResult r = gao_decode(code, poly_eval_many(p, code.points(), f));
      ASSERT_EQ(r.status, DecodeStatus::kOk);
      const ProofValues values(r.message, r.corrected, f);
      ASSERT_EQ(values.values().size(), e);
      SCOPED_TRACE(::testing::Message()
                   << "backend " << static_cast<int>(ops.backend())
                   << " e=" << e);
      for (u64 x = 0; x <= e + 5; ++x) {
        EXPECT_EQ(values.at(x), poly_eval(p, x, f)) << "x=" << x;
      }
      EXPECT_EQ(values.at(q - 1), poly_eval(p, q - 1, f));
      const std::pair<u64, u64> ranges[] = {
          {0, e + 3}, {1, e}, {e - 2, 5}, {7, 0}};
      for (auto [first, count] : ranges) {
        u64 expect = 0;
        for (u64 x = first; x < first + count; ++x) {
          expect = f.add(expect, poly_eval(p, x, f));
        }
        EXPECT_EQ(values.sum(first, count), expect)
            << "first=" << first << " count=" << count;
      }
    }
  }
}

using ProblemFactory = std::function<std::unique_ptr<CamelotProblem>()>;

struct NamedFactory {
  const char* label;
  ProblemFactory make;
};

std::vector<NamedFactory> all_problems() {
  return {
      {"cliques",
       [] {
         return std::make_unique<CliqueCountProblem>(
             gnp(6, 0.6, 1), 6, strassen_decomposition());
       }},
      {"triangles",
       [] {
         return std::make_unique<TriangleCountProblem>(
             gnm(10, 20, 2), strassen_decomposition());
       }},
      {"chromatic",
       [] { return std::make_unique<ChromaticProblem>(gnp(6, 0.5, 3)); }},
      {"tutte",
       [] { return std::make_unique<TutteProblem>(gnm(6, 7, 4)); }},
      {"exact-covers",
       [] {
         return std::make_unique<ExactCoverProblem>(
             6, std::vector<u64>{0b000011, 0b001100, 0b110000, 0b111100,
                                 0b001111},
             3);
       }},
      {"set-covers",
       [] {
         return std::make_unique<SetCoverProblem>(
             6, std::vector<u64>{0b000111, 0b111000, 0b010101, 0b101010},
             2);
       }},
      {"permanent",
       [] {
         return std::make_unique<PermanentProblem>(IntMatrix::random(6, 3, 5));
       }},
      {"hamilton",
       [] { return std::make_unique<HamiltonCycleProblem>(gnp(7, 0.6, 6)); }},
      {"ov",
       [] {
         return std::make_unique<OrthogonalVectorsProblem>(
             BoolMatrix::random(8, 4, 0.4, 7),
             BoolMatrix::random(8, 4, 0.4, 8));
       }},
      {"hamming",
       [] {
         return std::make_unique<HammingDistributionProblem>(
             BoolMatrix::random(5, 3, 0.5, 9),
             BoolMatrix::random(5, 3, 0.5, 10));
       }},
      {"conv3sum",
       [] {
         return std::make_unique<Conv3SumProblem>(
             std::vector<u64>{1, 2, 3, 4, 5, 8}, 4);
       }},
      {"csp2",
       [] {
         return std::make_unique<Csp2Problem>(
             Csp2Instance::random(6, 2, 3, 0.5, 11),
             strassen_decomposition());
       }},
  };
}

class AllProblems : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllProblems, HonestEvaluationsInterpolateWithinDegreeBound) {
  // Interpolate through d+1 honest evaluations, then predict fresh
  // points: if deg P exceeded the declared bound this would fail.
  auto problem = all_problems()[GetParam()].make();
  const ProofSpec spec = problem->spec();
  const u64 q = find_ntt_prime(
      std::max<u64>(spec.min_modulus, 2 * (spec.degree_bound + 2)), 8);
  PrimeField f(q);
  ReedSolomonCode code(f, spec.degree_bound, spec.degree_bound + 1);
  auto ev = problem->make_evaluator(f);
  std::vector<u64> word(code.length());
  for (std::size_t i = 0; i < word.size(); ++i) {
    word[i] = ev->eval(code.points()[i]);
  }
  Poly proof = code.interpolate_received(word);
  EXPECT_LE(proof.degree(), static_cast<int>(spec.degree_bound));
  for (u64 probe : {spec.degree_bound + 5, q - 3, q / 2}) {
    EXPECT_EQ(ev->eval(probe), poly_eval(proof, probe, f))
        << all_problems()[GetParam()].label << " probe=" << probe;
  }
}

TEST_P(AllProblems, HonestProofVerifiesAndRecoverCountMatchesSpec) {
  auto problem = all_problems()[GetParam()].make();
  const ProofSpec spec = problem->spec();
  const u64 q = find_ntt_prime(
      std::max<u64>(spec.min_modulus, 2 * (spec.degree_bound + 2)), 8);
  PrimeField f(q);
  ReedSolomonCode code(f, spec.degree_bound, spec.degree_bound + 1);
  auto ev = problem->make_evaluator(f);
  std::vector<u64> word(code.length());
  for (std::size_t i = 0; i < word.size(); ++i) {
    word[i] = ev->eval(code.points()[i]);
  }
  Poly proof = code.interpolate_received(word);
  VerifyResult vr = verify_proof_with(*ev, proof, 2, 99);
  EXPECT_TRUE(vr.accepted) << all_problems()[GetParam()].label;
  // Clean word on the points 1..e: word[i] = P(i + 1).
  EXPECT_EQ(problem->recover(ProofValues(proof, word, f)).size(),
            spec.answer_count);
}

TEST_P(AllProblems, RecoverIsTheSameAtEveryRateAndBackend) {
  // Rate 1 (e = d+1) leaves recovery points past e to the Horner
  // fallback (hamming) and P(0) to the constant coefficient
  // (permanent, setcover, hamilton); redundancy 2 reads them from the
  // codeword. Both must equal an all-Horner read (empty codeword).
  auto problem = all_problems()[GetParam()].make();
  SCOPED_TRACE(all_problems()[GetParam()].label);
  const ProofSpec spec = problem->spec();
  const std::size_t d = spec.degree_bound;
  const u64 q =
      find_ntt_prime(std::max<u64>(spec.min_modulus, 2 * (d + 2)), 8);
  PrimeField f(q);
  std::vector<u64> reference;
  for (FieldBackend backend : kAllBackends) {
    const FieldOps ops(f, backend);
    SCOPED_TRACE(::testing::Message()
                 << "backend " << static_cast<int>(ops.backend()));
    const ReedSolomonCode wide(ops, d, 2 * (d + 1));
    const ReedSolomonCode rate1(ops, d, d + 1);
    const std::vector<u64> word =
        problem->make_evaluator(ops)->evaluate_points(wide.points());
    // The decoder's output is what ProofSession hands to recover().
    const GaoResult full = gao_decode(wide, word);
    const GaoResult narrow =
        gao_decode(rate1, std::span<const u64>(word).first(d + 1));
    ASSERT_EQ(full.status, DecodeStatus::kOk);
    ASSERT_EQ(narrow.status, DecodeStatus::kOk);
    if (reference.empty()) {
      reference = problem->recover(ProofValues(full.message, {}, f));
      ASSERT_EQ(reference.size(), spec.answer_count);
    }
    EXPECT_EQ(problem->recover(ProofValues(full.message, full.corrected, f)),
              reference)
        << "redundancy 2";
    EXPECT_EQ(
        problem->recover(ProofValues(narrow.message, narrow.corrected, f)),
        reference)
        << "rate 1";
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, AllProblems,
                         ::testing::Range<std::size_t>(0, 12));

TEST(RadiusBoundary, ExactRadiusCorrectsOneMoreFails) {
  // Symbol-granular boundary, on every field backend: exactly radius
  // errors decode to the honest proof; past the radius the decode must
  // fail cleanly (a decode failure, or a different proof that the
  // random-point check rejects), never as a silently wrong *verified*
  // proof, and every backend must reach the same outcome.
  OrthogonalVectorsProblem problem(BoolMatrix::random(6, 4, 0.4, 1),
                                   BoolMatrix::random(6, 4, 0.4, 2));
  const ProofSpec spec = problem.spec();
  const std::size_t e = 2 * (spec.degree_bound + 1);
  const u64 q = find_ntt_prime(std::max<u64>(spec.min_modulus, e + 1), 8);
  PrimeField f(q);
  const ReedSolomonCode reference(f, spec.degree_bound, e);
  auto ev = problem.make_evaluator(f);
  const std::vector<u64> clean = ev->evaluate_points(reference.points());
  const Poly truth = reference.interpolate_received(clean);
  const std::size_t radius = reference.decoding_radius();

  // The clean word with its first `errors` symbols shifted by fixed
  // random nonzero offsets.
  std::mt19937_64 rng(5);
  std::vector<u64> offsets(radius + 2);
  for (u64& o : offsets) o = 1 + rng() % (q - 1);
  auto corrupt = [&](std::size_t errors) {
    std::vector<u64> word = clean;
    for (std::size_t i = 0; i < errors; ++i) {
      word[i] = f.add(word[i], offsets[i]);
    }
    return word;
  };

  std::vector<GaoResult> first_backend;
  for (FieldBackend backend : kAllBackends) {
    const FieldOps ops(f, backend);
    SCOPED_TRACE(::testing::Message()
                 << "backend " << static_cast<int>(ops.backend()));
    const ReedSolomonCode code(ops, spec.degree_bound, e);

    const GaoResult at_radius = gao_decode(code, corrupt(radius));
    ASSERT_EQ(at_radius.status, DecodeStatus::kOk);
    EXPECT_TRUE(poly_equal(at_radius.message, truth));
    EXPECT_EQ(at_radius.error_locations.size(), radius);

    for (std::size_t extra : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << "radius + " << extra);
      const GaoResult beyond = gao_decode(code, corrupt(radius + extra));
      if (beyond.status == DecodeStatus::kOk &&
          poly_equal(beyond.message, truth)) {
        // Gao stops once deg G < floor((e + d + 1) / 2), which admits
        // an error locator of degree ceil((e - d - 1) / 2). When
        // e - d - 1 is odd and deg P < d, that corrects exactly one
        // error past the radius — onto the honest proof, so nothing
        // wrong is verified.
        EXPECT_EQ(extra, 1u);
        EXPECT_EQ((e - spec.degree_bound - 1) % 2, 1u);
        EXPECT_LT(truth.degree(), static_cast<int>(spec.degree_bound));
      } else if (beyond.status == DecodeStatus::kOk) {
        EXPECT_FALSE(verify_proof_with(*ev, beyond.message, 6, 7).accepted);
      }
      if (first_backend.size() < extra) {
        first_backend.push_back(beyond);
      } else {
        EXPECT_EQ(beyond.status, first_backend[extra - 1].status);
        EXPECT_TRUE(
            poly_equal(beyond.message, first_backend[extra - 1].message));
      }
    }
  }
}

TEST(RadiusBoundary, SilentNodesAreErasuresNotCatastrophes) {
  // Silent nodes emit zeros; as long as the number of zeroed symbols
  // stays within the radius the answer survives.
  TriangleCountProblem problem(gnm(10, 18, 3), strassen_decomposition());
  ClusterConfig cfg;
  cfg.num_nodes = 10;
  cfg.redundancy = 2.0;
  ByzantineAdversary adversary({0, 5}, ByzantineStrategy::kSilent, 1);
  RunReport report = ProofSession(problem, cfg).run(&adversary);
  EXPECT_TRUE(report.success);
}

}  // namespace
}  // namespace camelot
