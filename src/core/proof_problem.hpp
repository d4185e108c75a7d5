// The Camelot problem interface (paper §1.3).
//
// "To design a Camelot algorithm, all it takes is to come up with the
// proof polynomial P and a fast evaluation algorithm for P" (§1.6).
// A CamelotProblem supplies exactly those two ingredients plus the
// bookkeeping the framework needs (degree bound, modulus constraints,
// answer bounds for CRT reconstruction, and the map from a decoded
// proof back to the integer answers).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "field/bigint.hpp"
#include "field/field.hpp"
#include "field/field_ops.hpp"
#include "poly/poly.hpp"

namespace camelot {

// Static parameters of a proof polynomial, computable from the common
// input by every node (paper: "we assume that each node can easily
// compute an upper bound for d from the common input").
struct ProofSpec {
  // Upper bound on deg P.
  u64 degree_bound = 0;
  // Every proof modulus q must satisfy q >= min_modulus (e.g. 3R+1 for
  // the clique proof of §5.2, so that the points 1..R are usable).
  u64 min_modulus = 2;
  // Number of integers the proof encodes (1 for a single count; n for
  // the per-row counts of orthogonal vectors, etc.).
  std::size_t answer_count = 1;
  // |answer_i| <= answer_bound; drives how many CRT primes are needed.
  BigInt answer_bound = BigInt::from_u64(1);
  // Whether answers can be negative (signed CRT reconstruction).
  bool answers_signed = false;
};

// A node's view of the proof polynomial over one prime field: an
// oracle for P(x0) mod q. Construction may perform the per-node
// precomputation the paper charges to each node's budget.
//
// The constructor takes a FieldOps backend handle; `field_` keeps the
// canonical-representative view as a by-value member (registers in
// the hot loops), and `ops()` exposes the shared Montgomery context
// for evaluators that run domain pipelines (count/*). A bare
// PrimeField converts implicitly (building a private context) so
// stand-alone evaluators stay easy to construct in tests.
class Evaluator {
 public:
  explicit Evaluator(const FieldOps& f) : ops_(f), field_(f.prime()) {}
  virtual ~Evaluator() = default;

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  // Evaluates the proof polynomial at x0 (the node's one unit of work;
  // also exactly the verifier's algorithm, eq. (2) left-hand side).
  virtual u64 eval(u64 x0) = 0;

  // Evaluates the proof polynomial at every point of xs — the whole
  // contiguous chunk a simulated node owns, issued as one call. The
  // default simply loops the scalar method; problem implementations
  // override it to amortize point-independent work (Lagrange factorial
  // caches, Montgomery boundary conversions, shared basis vectors)
  // across the batch.
  virtual std::vector<u64> evaluate_points(std::span<const u64> xs) {
    std::vector<u64> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] = eval(xs[i]);
    return out;
  }

  const PrimeField& field() const noexcept { return field_; }
  const FieldOps& ops() const noexcept { return ops_; }

 protected:
  FieldOps ops_;
  PrimeField field_;
};

// The decoded, verified proof over one prime: its coefficients and the
// corrected codeword the decoder re-encoded from them at the RS code
// points 1..e, so values()[i] = P(i + 1). A view: both must outlive it.
class ProofValues {
 public:
  ProofValues(const Poly& coeffs, std::span<const u64> values,
              const PrimeField& f)
      : coeffs_(coeffs), values_(values), field_(f) {}
  ProofValues(Poly&&, std::span<const u64>, const PrimeField&) = delete;

  const Poly& coeffs() const noexcept { return coeffs_; }
  std::span<const u64> values() const noexcept { return values_; }
  const PrimeField& field() const noexcept { return field_; }

  // P(x): the constant coefficient at 0, a codeword symbol at 1..e, and
  // Horner past e (only short codes, e.g. rate 1, leave points there).
  u64 at(u64 x) const {
    if (x == 0) return coeffs_.coeff(0);
    if (x <= values_.size()) return values_[x - 1];
    return poly_eval(coeffs_, x, field_);
  }

  // P(first) + ... + P(first + count - 1).
  u64 sum(u64 first, u64 count) const {
    u64 total = 0;
    for (u64 i = 0; i < count; ++i) total = field_.add(total, at(first + i));
    return total;
  }

 private:
  const Poly& coeffs_;
  std::span<const u64> values_;
  PrimeField field_;
};

// A problem expressible in the Camelot framework.
class CamelotProblem {
 public:
  virtual ~CamelotProblem() = default;

  virtual std::string name() const = 0;
  virtual ProofSpec spec() const = 0;

  // Builds the per-node evaluation algorithm for the field backend f
  // (Montgomery by default; sessions pass cache-shared handles).
  virtual std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const = 0;

  // Maps the decoded, verified proof over one prime to the answers'
  // residues mod q: values of P through proof.at / proof.sum (never raw
  // received symbols), coefficients through proof.coeffs(). Returns
  // spec().answer_count values; the framework combines primes by CRT.
  virtual std::vector<u64> recover(const ProofValues& proof) const = 0;
};

}  // namespace camelot
