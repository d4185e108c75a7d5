// Polynomial extension of the split/sparse Yates algorithm (paper
// §3.3): the outer loop of the split/sparse algorithm is replaced by a
// polynomial indeterminate z. Evaluating at z0 = outer+1 reproduces
// exactly the split/sparse part `outer`; evaluating at arbitrary
// z0 in Z_q extends each part entry to a univariate polynomial of
// degree at most t^{k-ell} - 1 — the raw material of the triangle
// proof polynomial (Theorem 3, §6.3).
//
// The outer-loop iterations are identified with the field points
// 1, 2, ..., t^{k-ell} (the paper's [t^{k-ell}]).
//
// All tables (base matrix, transposed base, sparse entry values) are
// held in the Montgomery domain and the evaluation pipeline — basis,
// two Yates passes, scatter — never leaves it. The Lagrange factorial
// cache is built once at construction, so batched proof evaluation
// over many points amortizes everything point-independent.
#pragma once

#include <optional>

#include "poly/lagrange.hpp"
#include "yates/split_sparse.hpp"

namespace camelot {

class YatesPolynomialExtension {
 public:
  // Takes the field backend handle and runs on its Montgomery context
  // and kernel table. A bare PrimeField converts implicitly for
  // stand-alone use.
  YatesPolynomialExtension(const FieldOps& f, std::vector<u64> base,
                           std::size_t t_dim, std::size_t s_dim, unsigned k,
                           std::vector<SparseEntry> entries,
                           int ell_override = -1);

  unsigned ell() const noexcept { return ell_; }
  u64 num_outer() const noexcept { return num_outer_; }  // t^{k-ell}
  u64 part_size() const noexcept { return part_size_; }  // t^ell
  // Degree bound of each part-entry polynomial u_{i_1..i_ell}(z).
  u64 poly_degree_bound() const noexcept { return num_outer_ - 1; }

  const MontgomeryField& mont() const noexcept { return ops_.mont(); }
  // The outer-domain Lagrange cache (nodes 1..t^{k-ell}), built on
  // first use: callers that combine several extensions of the same
  // shape (count/triangle_camelot) query only one of them, so the
  // others never pay for a cache. Not thread-safe; an extension is
  // owned by a single evaluator, which the framework confines to one
  // worker thread.
  const ConsecutiveLagrange& lagrange() const;

  // Values u_{i_1..i_ell}(z0) for all t^ell inner indices, canonical
  // representatives. Runs in O(|D| + t^{k-ell}) plus the ell-level
  // dense Yates, per §3.3.
  std::vector<u64> evaluate(u64 z0) const;

  // The single evaluation pipeline (Montgomery domain in and out),
  // taking an already computed basis phi = lagrange().basis_mont(z0).
  // Extensions built from the same decomposition share phi, so a
  // caller evaluating three of them per point computes the basis once
  // instead of three times (count/triangle_camelot).
  std::vector<u64> evaluate_mont_with_phi(std::span<const u64> phi) const;

 private:
  FieldOps ops_;
  std::vector<u64> base_mont_;        // Montgomery domain
  std::vector<u64> base_transposed_mont_;
  std::size_t t_dim_, s_dim_;
  unsigned k_;
  std::vector<SparseEntry> entries_;
  std::vector<u64> entry_values_mont_;
  unsigned ell_;
  u64 num_outer_ = 0;
  u64 part_size_ = 0;
  mutable std::optional<ConsecutiveLagrange> lagrange_;
};

}  // namespace camelot
