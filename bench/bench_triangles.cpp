// E3/E4 — Theorems 3, 4, 5: sparsity-aware triangle counting.
// Shape claims: the number of independent parallel parts (and the
// Camelot proof size) scales like R/m — *down* as the graph gets
// denser at fixed n; AYZ beats the dense algorithm on skewed sparse
// graphs.
#include <cstdio>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "count/ayz.hpp"
#include "count/triangle.hpp"
#include "count/triangle_camelot.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

using namespace camelot;

int main() {
  TrilinearDecomposition dec = strassen_decomposition();

  benchutil::header("E3a: split/sparse parts vs edge count (Theorem 4)");
  std::printf("%4s %6s %10s %10s %10s %10s %8s\n", "n", "m", "parts",
              "part-size", "ss(s)", "IR(s)", "agree");
  for (std::size_t m : {48u, 96u, 192u, 384u}) {
    Graph g = gnm(64, m, m);
    SplitSparseStats stats;
    u64 c_ss = 0, c_ir = 0;
    const double t_ss = benchutil::time_call(
        [&] { c_ss = count_triangles_split_sparse(g, dec, &stats); });
    const double t_ir = benchutil::time_call(
        [&] { c_ir = count_triangles_itai_rodeh(g); });
    std::printf("%4u %6zu %10llu %10llu %10.4f %10.4f %8s\n", 64u, m,
                static_cast<unsigned long long>(stats.num_parts),
                static_cast<unsigned long long>(stats.part_size), t_ss, t_ir,
                c_ss == c_ir && c_ir == count_triangles_brute(g) ? "yes"
                                                                 : "NO");
  }
  std::printf("(parts = independent per-node work units ~ R/m')\n");

  benchutil::header("E3b: Camelot triangle proof (Theorem 3), m sweep");
  std::printf("%4s %6s %10s %10s %12s %8s\n", "n", "m", "proof", "e",
              "wall(s)", "ok");
  for (std::size_t m : {40u, 300u, 1200u}) {
    Graph g = gnm(64, m, m + 5);
    const u64 expect = count_triangles_brute(g);
    TriangleCountProblem problem(g, dec);
    ClusterConfig cfg;
    cfg.num_nodes = 8;
    cfg.redundancy = 1.4;
    RunReport report = ProofSession(problem, cfg).run();
    const bool ok =
        report.success &&
        TriangleCountProblem::triangles_from_answer(report.answers[0])
                .to_u64() == expect;
    std::printf("%4u %6zu %10zu %10zu %12.4f %8s\n", 64u, m,
                report.proof_symbols, report.code_length,
                report.wall_seconds, ok ? "yes" : "NO");
  }
  std::printf("(Theorem 3 shape: proof size O(n^omega / m) shrinks as m "
              "grows at fixed n)\n");

  benchutil::header("E4: Alon-Yuster-Zwick on skewed graphs (Theorem 5)");
  std::printf("%5s %7s %6s %10s %10s %10s %8s\n", "n", "m", "hubs",
              "AYZ(s)", "IR(s)", "brute(s)", "agree");
  for (std::size_t n : {128u, 256u}) {
    Graph g = hub_graph(n, 2 * n, 3, n);
    u64 c_ayz = 0, c_ir = 0, c_brute = 0;
    AyzStats stats;
    const double t_ayz = benchutil::time_call(
        [&] { c_ayz = count_triangles_ayz(g, dec, &stats); });
    const double t_ir = benchutil::time_call(
        [&] { c_ir = count_triangles_itai_rodeh(g); });
    const double t_brute = benchutil::time_call(
        [&] { c_brute = count_triangles_brute(g); });
    std::printf("%5zu %7zu %6zu %10.4f %10.4f %10.4f %8s\n", n,
                g.num_edges(), stats.high_vertices, t_ayz, t_ir, t_brute,
                c_ayz == c_ir && c_ir == c_brute ? "yes" : "NO");
  }
  return 0;
}
