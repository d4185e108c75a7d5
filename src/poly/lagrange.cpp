#include "poly/lagrange.hpp"

#include <stdexcept>

namespace camelot {

ConsecutiveLagrange::ConsecutiveLagrange(u64 start, std::size_t count,
                                         const FieldOps& f)
    : m_(f.mont()), start_(f.prime().reduce(start)), count_(count) {
  if (count == 0) throw std::invalid_argument("lagrange_basis: empty");
  if (count >= f.modulus()) {
    throw std::invalid_argument("lagrange_basis: more nodes than field");
  }
  nodes_mont_.resize(count);
  u64 node = m_.to_mont(start_);
  for (std::size_t i = 0; i < count; ++i) {
    nodes_mont_[i] = node;
    node = m_.add(node, m_.one());
  }
  // Factorials F_0..F_{count-1} in the Montgomery domain.
  std::vector<u64> fact(count);
  fact[0] = m_.one();
  u64 i_m = m_.zero();
  for (std::size_t i = 1; i < count; ++i) {
    i_m = m_.add(i_m, m_.one());  // Montgomery form of i
    fact[i] = m_.mul(fact[i - 1], i_m);
  }
  // Point-independent denominator parts, inverted once: the factorial
  // cross products are one batch, the alternating sign a scalar pass.
  std::vector<u64> rev_fact(fact.rbegin(), fact.rend());
  std::vector<u64> w(count);
  m_.mul_vec(fact.data(), rev_fact.data(), w.data(), count);
  for (std::size_t i = 0; i < count; ++i) {
    if ((count - 1 - i) % 2 == 1) w[i] = m_.neg(w[i]);
  }
  inv_w_ = m_.batch_inv(w);
}

ScratchVec ConsecutiveLagrange::basis_mont_scratch(u64 x0) const {
  // By-value copy keeps the Montgomery constants in registers across
  // the out/diff stores (the member reference could alias them).
  const MontgomeryField m = m_;
  ScratchVec out(count_, 0);
  const u64 x0_m = m.from_u64(x0);
  // diff[i] = x0 - node_i in the Montgomery domain; detect x0 hitting
  // a node (zero is zero in either domain).
  ScratchVec diff(count_);
  m.sub_from_scalar(x0_m, nodes_mont_.data(), diff.data(), count_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (diff[i] == 0) {
      out[i] = m.one();
      return out;  // basis collapses to an indicator
    }
  }
  // L_i = (prod_{j != i} diff_j) * inv_w_i, via prefix/suffix
  // products — no inversion at the evaluation point. The sweeps are
  // loop-carried product chains and stay scalar; the final per-node
  // basis products are two batches.
  ScratchVec suffix(count_), prefix(count_);
  u64 acc = m.one();
  for (std::size_t i = count_; i-- > 0;) {
    suffix[i] = acc;
    acc = m.mul(acc, diff[i]);
  }
  acc = m.one();
  for (std::size_t i = 0; i < count_; ++i) {
    prefix[i] = acc;
    acc = m.mul(acc, diff[i]);
  }
  m.mul_vec(prefix.data(), suffix.data(), out.data(), count_);
  m.mul_vec(out.data(), inv_w_.data(), out.data(), count_);
  return out;
}

ScratchVec ConsecutiveLagrange::basis_scratch(u64 x0) const {
  ScratchVec out = basis_mont_scratch(x0);
  m_.from_mont_inplace(out);
  return out;
}

std::vector<u64> ConsecutiveLagrange::basis_mont(u64 x0) const {
  const ScratchVec out = basis_mont_scratch(x0);
  return std::vector<u64>(out.begin(), out.end());
}

std::vector<u64> ConsecutiveLagrange::basis(u64 x0) const {
  const ScratchVec out = basis_scratch(x0);
  return std::vector<u64>(out.begin(), out.end());
}

u64 ConsecutiveLagrange::eval(std::span<const u64> values, u64 x0) const {
  if (values.size() != count_) {
    throw std::invalid_argument("ConsecutiveLagrange::eval: size mismatch");
  }
  const ScratchVec basis = basis_mont_scratch(x0);
  // mont_mul(bR, v) = b*v with no conversion: the Montgomery factor of
  // the basis cancels against the reduction, so plain values in, plain
  // accumulator out. Mod-q addition is exact, so a lane-reassociated
  // dot matches the sequential fold bit-for-bit.
  ScratchVec reduced(count_);
  for (std::size_t i = 0; i < count_; ++i) reduced[i] = m_.reduce(values[i]);
  return m_.dot(basis.data(), reduced.data(), count_);
}

std::vector<u64> lagrange_basis_consecutive(u64 start, std::size_t count,
                                            u64 x0, const PrimeField& f) {
  return ConsecutiveLagrange(start, count, f).basis(x0);
}

u64 lagrange_eval_consecutive(u64 start, std::span<const u64> values, u64 x0,
                              const PrimeField& f) {
  return ConsecutiveLagrange(start, values.size(), f).eval(values, x0);
}

}  // namespace camelot
