// E9 — Theorem 11: polynomial-time Camelot designs with proofs of
// size O~(n t^c): orthogonal vectors (c=1), Hamming distribution
// (c=2), Convolution3SUM (c=2).
#include <cstdio>
#include <random>

#include "apps/conv3sum.hpp"
#include "apps/hamming.hpp"
#include "apps/ov.hpp"
#include "bench_util.hpp"
#include "core/proof_session.hpp"

using namespace camelot;

int main() {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 1.25;

  benchutil::header("E9a: orthogonal vectors (Theorem 11(1), proof ~ nt)");
  std::printf("%5s %4s %8s %8s %12s %8s\n", "n", "t", "proof", "n*t",
              "camelot(s)", "ok");
  for (std::size_t n : {32u, 64u, 128u}) {
    const std::size_t t = 8;
    BoolMatrix a = BoolMatrix::random(n, t, 0.3, n);
    BoolMatrix b = BoolMatrix::random(n, t, 0.3, n + 1);
    OrthogonalVectorsProblem problem(a, b);
    RunReport report;
    const double secs = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    auto expect = count_orthogonal_brute(a, b);
    bool ok = report.success;
    for (std::size_t i = 0; ok && i < n; ++i) {
      ok = report.answers[i].to_u64() == expect[i];
    }
    std::printf("%5zu %4zu %8zu %8zu %12.4f %8s\n", n, t,
                report.proof_symbols, n * t, secs, ok ? "yes" : "NO");
  }

  benchutil::header("E9b: Hamming distribution (Theorem 11(2), proof ~ nt^2)");
  std::printf("%5s %4s %8s %8s %12s %8s\n", "n", "t", "proof", "n*t^2",
              "camelot(s)", "ok");
  for (std::size_t n : {8u, 16u}) {
    const std::size_t t = 6;
    BoolMatrix a = BoolMatrix::random(n, t, 0.5, 2 * n);
    BoolMatrix b = BoolMatrix::random(n, t, 0.5, 2 * n + 1);
    HammingDistributionProblem problem(a, b);
    RunReport report;
    const double secs = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    auto expect = hamming_distribution_brute(a, b);
    bool ok = report.success;
    for (std::size_t i = 0; ok && i < expect.size(); ++i) {
      ok = report.answers[i].to_u64() == expect[i];
    }
    std::printf("%5zu %4zu %8zu %8zu %12.4f %8s\n", n, t,
                report.proof_symbols, n * t * t, secs, ok ? "yes" : "NO");
  }

  benchutil::header("E9c: Convolution3SUM (Theorem 11(3), proof ~ nt^2)");
  std::printf("%5s %4s %8s %8s %12s %8s\n", "n", "t", "proof", "n*t^2",
              "camelot(s)", "ok");
  for (std::size_t n : {8u, 16u}) {
    const unsigned bits = 6;
    std::mt19937_64 rng(n);
    std::vector<u64> values(n);
    for (u64& v : values) v = rng() % 32;
    Conv3SumProblem problem(values, bits);
    RunReport report;
    const double secs = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    auto expect = conv3sum_brute(values);
    bool ok = report.success;
    for (std::size_t i = 0; ok && i < expect.size(); ++i) {
      ok = report.answers[i].to_u64() == expect[i];
    }
    std::printf("%5zu %4u %8zu %8zu %12.4f %8s\n", n, bits,
                report.proof_symbols, n * bits * bits, secs,
                ok ? "yes" : "NO");
  }
  return 0;
}
