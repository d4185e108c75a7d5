// Tests for the exponential-time Camelot designs: the §7 template and
// its instantiations (Theorems 6, 7, 8, 9, 10).
#include <gtest/gtest.h>

#include "core/proof_session.hpp"
#include "exp/chromatic.hpp"
#include "exp/cnfsat.hpp"
#include "exp/hamilton.hpp"
#include "exp/permanent.hpp"
#include "exp/setcover.hpp"
#include "exp/setpartition.hpp"
#include "exp/tutte.hpp"
#include "field/primes.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

namespace camelot {
namespace {

RunReport run_cluster(const CamelotProblem& p, std::size_t nodes = 4,
                      double redundancy = 1.3) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.redundancy = redundancy;
  return ProofSession(p, cfg).run();
}

std::vector<u64> random_family(std::size_t n, std::size_t count, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<u64> fam;
  while (fam.size() < count) {
    u64 mask = rng() & ((u64{1} << n) - 1);
    if (mask != 0) fam.push_back(mask);
  }
  std::sort(fam.begin(), fam.end());
  fam.erase(std::unique(fam.begin(), fam.end()), fam.end());
  return fam;
}

TEST(Bivariate, TruncatedMulMatchesFull) {
  PrimeField f(7681);
  const unsigned ne = 2, nb = 2;
  const std::size_t stride = Bivariate::stride(ne, nb);
  std::vector<u64> a(stride), b(stride), c(stride, 0);
  std::mt19937_64 rng(1);
  for (u64& v : a) v = rng() % f.modulus();
  for (u64& v : b) v = rng() % f.modulus();
  Bivariate::mul_acc(a.data(), b.data(), c.data(), ne, nb, f);
  // Check one interior slot against the convolution by hand.
  // slot (1,1) = sum over (i1,j1)+(i2,j2) = (1,1).
  u64 expect = 0;
  for (unsigned i1 = 0; i1 <= 1; ++i1) {
    for (unsigned j1 = 0; j1 <= 1; ++j1) {
      expect = f.add(expect, f.mul(a[i1 * 3 + j1],
                                   b[(1 - i1) * 3 + (1 - j1)]));
    }
  }
  EXPECT_EQ(c[1 * 3 + 1], expect);
}

TEST(ExactCover, MatchesBruteForce) {
  const std::size_t n = 8;
  for (u64 seed = 1; seed <= 3; ++seed) {
    auto fam = random_family(n, 20, seed);
    for (u64 t : {u64{2}, u64{3}, u64{4}}) {
      ExactCoverProblem problem(n, fam, t);
      RunReport report = run_cluster(problem);
      ASSERT_TRUE(report.success) << "seed=" << seed << " t=" << t;
      EXPECT_EQ(ExactCoverProblem::partitions_from_answer(report.answers[0],
                                                          t)
                    .to_u64(),
                count_exact_covers_brute(n, fam, t))
          << "seed=" << seed << " t=" << t;
    }
  }
}

TEST(ExactCover, HandCheckedInstance) {
  // U = {0,1,2,3}; F = {{0,1},{2,3},{0,2},{1,3},{0,1,2,3}}.
  std::vector<u64> fam = {0b0011, 0b1100, 0b0101, 0b1010, 0b1111};
  // Partitions into 2 parts: {01|23}, {02|13} -> 2.
  EXPECT_EQ(count_exact_covers_brute(4, fam, 2), 2u);
  ExactCoverProblem problem(4, fam, 2);
  RunReport report = run_cluster(problem);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(
      ExactCoverProblem::partitions_from_answer(report.answers[0], 2)
          .to_u64(),
      2u);
}

TEST(ExactCover, RejectsEmptySet) {
  EXPECT_THROW(ExactCoverProblem(4, {0b0011, 0}, 2), std::invalid_argument);
}

TEST(SetCover, MatchesBruteForce) {
  const std::size_t n = 8;
  for (u64 seed = 5; seed <= 7; ++seed) {
    auto fam = random_family(n, 6, seed);
    for (u64 t : {u64{2}, u64{3}}) {
      SetCoverProblem problem(n, fam, t);
      RunReport report = run_cluster(problem);
      ASSERT_TRUE(report.success) << seed;
      EXPECT_EQ(report.answers[0], count_set_covers_brute(n, fam, t))
          << "seed=" << seed << " t=" << t;
    }
  }
}

TEST(SetCover, CoversVsPartitionsSanity) {
  // Covers count >= t! * partitions count (covers allow overlap).
  const std::size_t n = 6;
  auto fam = random_family(n, 12, 9);
  const u64 t = 2;
  BigInt covers = count_set_covers_brute(n, fam, t);
  u64 partitions = count_exact_covers_brute(n, fam, t);
  EXPECT_GE(covers.to_u64(), 2 * partitions);
}

class ChromaticGraphs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChromaticGraphs, CamelotMatchesGroundTruths) {
  Graph g = gnp(GetParam(), 0.5, GetParam() * 13 + 1);
  ChromaticProblem problem(g);
  RunReport report = run_cluster(problem);
  ASSERT_TRUE(report.success);
  const std::size_t n = g.num_vertices();
  ASSERT_EQ(report.answers.size(), n + 1);
  // Against the O*(2^n) sequential baseline at every t.
  std::vector<BigInt> baseline = chromatic_values_ie(g);
  for (std::size_t t = 1; t <= n + 1; ++t) {
    EXPECT_EQ(report.answers[t - 1], baseline[t - 1]) << "t=" << t;
  }
  // Against direct coloring enumeration for small t.
  for (std::size_t t = 1; t <= std::min<std::size_t>(3, n + 1); ++t) {
    EXPECT_EQ(report.answers[t - 1].to_u64(), count_colorings_brute(g, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChromaticGraphs,
                         ::testing::Values(1, 2, 4, 5, 7, 8));

TEST(Chromatic, PolynomialCoefficientsPetersen) {
  // chi(Petersen; t) is a classical value: chi(3) = 120.
  Graph g = petersen_graph();
  std::vector<BigInt> values = chromatic_values_ie(g);
  EXPECT_EQ(values[2].to_u64(), 120u);  // t = 3
  EXPECT_EQ(values[0].to_u64(), 0u);    // t = 1
  EXPECT_EQ(values[1].to_u64(), 0u);    // t = 2
  // Coefficient reconstruction: leading coefficient 1, degree n.
  std::vector<BigInt> coeffs = integer_polynomial_from_values(
      values, BigInt::power_of_two(40));
  ASSERT_EQ(coeffs.size(), 11u);
  EXPECT_EQ(coeffs[10].to_i64(), 1);
  // Sum of |coefficients| parity check: chi(-1) counts acyclic
  // orientations up to sign: Petersen has 19120? Verify via Whitney.
  auto rank = whitney_rank_matrix_brute(g);
  BigInt at_minus1 = chromatic_value_from_whitney(rank, -1);
  BigInt eval(0);
  BigInt x(-1);
  for (std::size_t k = coeffs.size(); k-- > 0;) {
    eval = eval * x + coeffs[k];
  }
  EXPECT_EQ(eval, at_minus1);
}

TEST(Chromatic, ByzantineRun) {
  Graph g = gnp(6, 0.5, 77);
  ChromaticProblem problem(g);
  ClusterConfig cfg;
  cfg.num_nodes = 10;
  cfg.redundancy = 2.0;
  ByzantineAdversary adversary({1, 8}, ByzantineStrategy::kRandom, 3);
  RunReport report = ProofSession(problem, cfg).run(&adversary);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.implicated_nodes(), (std::vector<std::size_t>{1, 8}));
  std::vector<BigInt> baseline = chromatic_values_ie(g);
  EXPECT_EQ(report.answers[2], baseline[2]);
}

TEST(Tutte, PottsGridMatchesWhitneyBrute) {
  for (u64 seed = 1; seed <= 2; ++seed) {
    Graph g = gnm(6, 9, seed);
    auto rank = whitney_rank_matrix_brute(g);
    std::vector<BigInt> grid = potts_grid_ie(g);
    const std::size_t n = 6, m = 9;
    for (u64 r = 1; r <= m + 1; ++r) {
      for (u64 t = 1; t <= n + 1; ++t) {
        EXPECT_EQ(grid[(r - 1) * (n + 1) + (t - 1)],
                  potts_value_from_whitney(rank, static_cast<i64>(t),
                                           static_cast<i64>(r)))
            << "t=" << t << " r=" << r;
      }
    }
  }
}

TEST(Tutte, CamelotMatchesPottsGrid) {
  Graph g = gnm(6, 7, 3);
  TutteProblem problem(g);
  RunReport report = run_cluster(problem, 4, 1.2);
  ASSERT_TRUE(report.success);
  std::vector<BigInt> grid = potts_grid_ie(g);
  ASSERT_EQ(report.answers.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(report.answers[i], grid[i]) << "grid index " << i;
  }
}

TEST(Tutte, FortuinKasteleynConsistency) {
  // Z(t=(x-1)(y-1), r=y-1) = (x-1)^{c} (y-1)^{|V|} T(x,y) on a
  // connected graph; pick (x,y) = (2,2) -> (t,r) = (1,1).
  Graph g = cycle_graph(6);
  TutteProblem problem(g);
  RunReport report = run_cluster(problem, 3, 1.2);
  ASSERT_TRUE(report.success);
  const BigInt z11 = report.answers[problem.grid_index(1, 1)];
  const BigInt t22 = tutte_value_delcontract(g, 2, 2);  // 2^m
  EXPECT_EQ(z11, BigInt(1) * BigInt(1).pow_u32(6) * t22);
}

TEST(Tutte, RequiresDivisibleByThree) {
  EXPECT_THROW(TutteProblem(gnp(7, 0.5, 1)), std::invalid_argument);
}

TEST(Permanent, RyserMatchesExpansion) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    IntMatrix m = IntMatrix::random(6, 5, seed);
    EXPECT_EQ(permanent_ryser(m), permanent_expansion(m)) << seed;
  }
  // Permanent of all-ones n x n is n!.
  IntMatrix ones;
  ones.n = 5;
  ones.a.assign(25, 1);
  EXPECT_EQ(permanent_ryser(ones).to_i64(), 120);
}

TEST(Permanent, CamelotMatchesRyser) {
  for (u64 seed = 1; seed <= 3; ++seed) {
    IntMatrix m = IntMatrix::random(6, 3, seed + 10);
    PermanentProblem problem(m);
    RunReport report = run_cluster(problem);
    ASSERT_TRUE(report.success) << seed;
    EXPECT_EQ(report.answers[0], permanent_ryser(m)) << seed;
  }
}

TEST(Permanent, ZeroRowGivesZero) {
  IntMatrix m = IntMatrix::random(6, 4, 99);
  for (std::size_t j = 0; j < 6; ++j) m.at(2, j) = 0;
  PermanentProblem problem(m);
  RunReport report = run_cluster(problem);
  ASSERT_TRUE(report.success);
  EXPECT_TRUE(report.answers[0].is_zero());
}

TEST(Hamilton, CamelotMatchesBrute) {
  for (u64 seed = 1; seed <= 3; ++seed) {
    Graph g = gnp(7, 0.6, seed + 20);
    HamiltonCycleProblem problem(g);
    RunReport report = run_cluster(problem);
    ASSERT_TRUE(report.success) << seed;
    EXPECT_EQ(
        HamiltonCycleProblem::undirected_from_answer(report.answers[0])
            .to_u64(),
        count_hamilton_cycles_brute(g))
        << seed;
  }
}

TEST(Hamilton, KnownGraphs) {
  // K5: 12 undirected Hamiltonian cycles; C6: 1; Petersen: 0.
  for (auto [g, expect] :
       std::vector<std::pair<Graph, u64>>{{complete_graph(5), 12},
                                          {cycle_graph(6), 1},
                                          {petersen_graph(), 0}}) {
    HamiltonCycleProblem problem(g);
    RunReport report = run_cluster(problem, 4, 1.2);
    ASSERT_TRUE(report.success);
    EXPECT_EQ(
        HamiltonCycleProblem::undirected_from_answer(report.answers[0])
            .to_u64(),
        expect);
  }
}

TEST(CnfSat, BruteOnKnownFormulas) {
  // (x0 v x1) has 3 satisfying assignments over 2 vars.
  CnfFormula f;
  f.num_vars = 2;
  f.clauses = {{{0, false}, {1, false}}};
  EXPECT_EQ(count_sat_brute(f), 3u);
  // Add (!x0 v !x1): XOR-ish, 2 solutions.
  f.clauses.push_back({{0, true}, {1, true}});
  EXPECT_EQ(count_sat_brute(f), 2u);
}

TEST(CnfSat, CamelotMatchesBrute) {
  for (u64 seed = 1; seed <= 3; ++seed) {
    CnfFormula f = CnfFormula::random_ksat(8, 12, 3, seed);
    auto problem = make_cnfsat_problem(f);
    RunReport report = run_cluster(*problem);
    ASSERT_TRUE(report.success) << seed;
    BigInt total(0);
    for (const BigInt& c : report.answers) total += c;
    EXPECT_EQ(total.to_u64(), count_sat_brute(f)) << seed;
  }
}

TEST(CnfSat, UnsatisfiableFormula) {
  CnfFormula f;
  f.num_vars = 2;
  f.clauses = {{{0, false}}, {{0, true}}};
  EXPECT_EQ(count_sat_brute(f), 0u);
  auto problem = make_cnfsat_problem(f);
  RunReport report = run_cluster(*problem);
  ASSERT_TRUE(report.success);
  BigInt total(0);
  for (const BigInt& c : report.answers) total += c;
  EXPECT_TRUE(total.is_zero());
}

}  // namespace
}  // namespace camelot
