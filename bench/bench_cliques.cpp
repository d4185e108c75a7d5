// E2 — Theorems 1 & 2: k-clique counting. Sequential baselines
// (brute force, Nesetril--Poljak, the new space-efficient circuit) and
// the full Camelot run: proof size O(R) = O(N^{lg 7}), per-node time,
// and the total-work comparison against the sequential algorithm.
#include <cstdio>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "count/clique.hpp"
#include "count/clique_camelot.hpp"
#include "field/primes.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

using namespace camelot;

int main() {
  TrilinearDecomposition dec = strassen_decomposition();

  benchutil::header("E2a: sequential 6-clique counting, n sweep");
  std::printf("%4s %10s %10s %10s %10s %8s\n", "n", "count", "brute(s)",
              "NP(s)", "new(s)", "agree");
  for (std::size_t n : {8u, 12u, 16u}) {
    Graph g = planted_clique(n, 0.5, 7, n);
    u64 c_brute = 0;
    BigInt c_np(0), c_new(0);
    const double t_brute =
        benchutil::time_call([&] { c_brute = count_k_cliques_brute(g, 6); });
    const double t_np = benchutil::time_call(
        [&] { c_np = count_k_cliques_nesetril_poljak(g, 6); });
    const double t_new = benchutil::time_call(
        [&] { c_new = count_k_cliques_form62(g, 6, dec); });
    const bool agree =
        c_np.to_u64() == c_brute && c_new.to_u64() == c_brute;
    std::printf("%4zu %10llu %10.4f %10.4f %10.4f %8s\n", n,
                static_cast<unsigned long long>(c_brute), t_brute, t_np,
                t_new, agree ? "yes" : "NO");
  }

  benchutil::header("E2b: Camelot 6-clique proof preparation (Theorem 1)");
  std::printf("%4s %6s %8s %8s %10s %12s %12s %8s\n", "n", "K", "R",
              "proof", "e", "node-max(s)", "wall(s)", "ok");
  for (std::size_t n : {6u, 8u}) {
    Graph g = planted_clique(n, 0.5, 6, n + 1);
    const u64 expect = count_k_cliques_brute(g, 6);
    CliqueCountProblem problem(g, 6, dec);
    ClusterConfig cfg;
    cfg.num_nodes = 8;
    cfg.redundancy = 1.3;
    RunReport report = ProofSession(problem, cfg).run();
    double node_max = 0;
    for (const auto& ns : report.node_stats) {
      node_max = std::max(node_max, ns.seconds);
    }
    const bool ok =
        report.success &&
        problem.cliques_from_answer(report.answers[0]).to_u64() == expect;
    std::printf("%4zu %6zu %8llu %8zu %10zu %12.4f %12.4f %8s\n", n,
                cfg.num_nodes, static_cast<unsigned long long>(problem.rank()),
                report.proof_symbols, report.code_length, node_max,
                report.wall_seconds, ok ? "yes" : "NO");
  }
  std::printf("(proof = d+1 symbols per prime; Theorem 1 shape: proof ~ 3R,"
              " R = 7^t = N^{lg 7})\n");
  return 0;
}
