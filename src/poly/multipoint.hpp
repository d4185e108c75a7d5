// Fast multipoint evaluation and interpolation via subproduct trees
// (paper §2.2: both maps in O(d log^2 d) field operations).
//
// These drive Reed--Solomon encoding/decoding (§2.3) and the
// Convolution3SUM evaluator (§A.4), which needs t polynomials reduced
// against the same set of shifted points.
//
// The tree stores its node polynomials in the Montgomery domain and
// runs every remainder/product on domain values. The classic
// PrimeField-facing methods convert once per call at the boundary;
// the *_mont methods expose the domain directly so a longer pipeline
// (e.g. the Gao decoder) never leaves it. The node products and the
// descent's remainder eliminations run on the handle's kernel table
// (bit-identical values on every table).
//
// Since the quasi-linear engine landed (poly/fast_div.hpp), the build
// also precomputes a Newton power-series inverse of every large
// node's reversed polynomial. The evaluation descent (and through it
// the interpolation's denominator pass) then replaces the schoolbook
// elimination with two truncated products per node — true
// O(d log^2 d) — above the fastdiv_crossover() divisor degree, and
// keeps the lane-wide schoolbook rows below it where constants win. The
// inverses are per-(prime, point-set) state that lives *in* the tree,
// so a CodeCache/FieldCache-shared tree amortizes them across every
// session and job that decodes against the same code.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "field/field_ops.hpp"
#include "field/montgomery.hpp"
#include "poly/poly.hpp"

namespace camelot {

// Subproduct tree over a point set: node (level, i) stores the product
// of (x - x_j) over the points in its subtree. Built once, shared by
// any number of evaluations/interpolations against the same points.
class SubproductTree {
 public:
  // Takes the field backend handle (a bare PrimeField converts
  // implicitly). When the handle carries FieldCache twiddle tables,
  // the tree's large node products run through them instead of
  // re-powering the NTT stage roots. `crossover` pins the fast-
  // division crossover this tree is built for (0 = read the process
  // setting, fastdiv_crossover()); callers that key cached trees by
  // crossover pass the keyed value so a later global override cannot
  // produce a mixed configuration.
  SubproductTree(std::span<const u64> points, const FieldOps& f,
                 std::size_t crossover = 0);

  std::size_t num_points() const noexcept { return points_.size(); }
  const std::vector<u64>& points() const noexcept { return points_; }
  // The Montgomery context shared by the tree's node polynomials.
  const MontgomeryField& mont() const noexcept { return mont_; }

  // Root polynomial prod_i (x - x_i), canonical coefficients.
  const Poly& root() const noexcept { return root_plain_; }
  // Same polynomial with Montgomery-domain coefficients.
  const Poly& root_mont() const;

  // Number of nodes whose Newton inverse was precomputed at build
  // time (0 when every node sits below the fast-division crossover).
  // The root's inverse is excluded: it is built lazily on the first
  // dividend of degree >= num_points, which the RS pipeline never
  // produces.
  std::size_t fast_nodes() const noexcept { return fast_nodes_; }

  // Evaluates p at every point (going-down-the-tree remaindering).
  std::vector<u64> evaluate(const Poly& p, const PrimeField& f) const;

  // Unique polynomial of degree < n with P(x_i) = values[i].
  Poly interpolate(std::span<const u64> values, const PrimeField& f) const;

  // Montgomery-domain variants: coefficients and values are domain
  // values; no boundary conversion is performed.
  std::vector<u64> evaluate_mont(const Poly& p_mont) const;
  Poly interpolate_mont(std::span<const u64> values_mont) const;

 private:
  // Newton inverses for every node the descent divides by at or above
  // the crossover (fast_div.hpp); built once at construction.
  void build_inverses();

  // r := r mod node(level, idx), dispatching between the cached-
  // inverse fast division and the schoolbook elimination. Leaves r
  // with exactly deg(node) entries. The remainder lives in arena
  // scratch for the duration of one descent.
  void node_rem(ScratchVec& r, std::size_t level, std::size_t idx) const;

  // levels_[0] = leaves (x - x_i); levels_.back() = {root}; all
  // coefficients Montgomery-domain.
  std::vector<std::vector<Poly>> levels_;
  // inv_levels_[l][i]: power-series inverse of the reversed node
  // polynomial (precision = the longest quotient the descent can
  // meet), empty for nodes below the crossover or never divided by.
  std::vector<std::vector<Poly>> inv_levels_;
  // Root inverse, built lazily on the first oversized dividend
  // (call_once: trees are shared const across sessions and threads).
  mutable std::once_flag root_inv_once_;
  mutable Poly root_inv_;
  std::vector<u64> points_;       // canonical representatives
  MontgomeryField mont_;
  std::shared_ptr<const NttTables> ntt_;
  std::size_t crossover_;         // fastdiv_crossover() at build time
  std::size_t fast_nodes_ = 0;
  Poly root_plain_;

  // Tree descent on a raw (Montgomery-domain) remainder vector; the
  // caller's copy of r is consumed in place along the right spine.
  // The per-node left copies are arena scratch — the descent's whole
  // O(d log d) allocation churn stays inside the bound region.
  void eval_rec(ScratchVec& r, std::size_t level, std::size_t idx,
                std::size_t lo, std::size_t hi, std::vector<u64>& out) const;
  // Interpolation ascent on raw coefficient buffers: every partial
  // interpolant and product temporary is arena scratch; only the
  // finished polynomial is copied out into the returned Poly. (Exact
  // mod-q arithmetic makes the coefficient words independent of the
  // product algorithm, so the scratch ladder below needs no separate
  // golden path.)
  ScratchVec interp_rec(std::span<const u64> weighted, std::size_t level,
                        std::size_t idx, std::size_t lo, std::size_t hi) const;
};

// Convenience one-shot wrappers.
std::vector<u64> multipoint_evaluate(const Poly& p, std::span<const u64> xs,
                                     const PrimeField& f);
Poly interpolate(std::span<const u64> xs, std::span<const u64> ys,
                 const PrimeField& f);

}  // namespace camelot
