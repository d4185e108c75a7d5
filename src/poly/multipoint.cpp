#include "poly/multipoint.hpp"

#include <stdexcept>

#include "poly/fast_div.hpp"

namespace camelot {

SubproductTree::SubproductTree(std::span<const u64> points,
                               const FieldOps& f, std::size_t crossover)
    : points_(points.begin(), points.end()),
      mont_(f.mont()),
      ntt_(f.ntt_tables()),
      crossover_(crossover != 0 ? crossover : fastdiv_crossover()) {
  if (points_.empty()) {
    throw std::invalid_argument("SubproductTree: no points");
  }
  for (u64& x : points_) x = f.prime().reduce(x);
  std::vector<Poly> level;
  level.reserve(points_.size());
  for (u64 x : points_) {
    level.push_back(Poly::linear_root(mont_.to_mont(x), mont_));
  }
  levels_.push_back(std::move(level));
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Poly> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      if (i + 1 < prev.size()) {
        next.push_back(mul(prev[i], prev[i + 1]));
      } else {
        next.push_back(prev[i]);  // odd node carried up unchanged
      }
    }
    levels_.push_back(std::move(next));
  }
  build_inverses();
  root_plain_ = Poly{mont_.from_mont_vec(levels_.back()[0].c)};
}

Poly SubproductTree::mul(const Poly& a, const Poly& b) const {
  if (!a.is_zero() && !b.is_zero() && ntt_ != nullptr) {
    const std::size_t out = a.c.size() + b.c.size() - 1;
    if (out >= poly_detail::kNttThreshold && out <= ntt_->capacity()) {
      Poly r{ntt_convolve(a.c, b.c, mont_, *ntt_)};
      r.trim();
      return r;
    }
  }
  return poly_mul(a, b, mont_);
}

const Poly& SubproductTree::root_mont() const { return levels_.back()[0]; }

void SubproductTree::build_inverses() {
  // Precision contract: a division by node (level, idx) happens with a
  // dividend already reduced modulo its parent, so the quotient has at
  // most deg(parent) - deg(node) = deg(sibling) coefficients. The
  // descent divides by every *paired* node, so those inverses are
  // precomputed eagerly; the root is only ever divided by when a
  // caller shows up with a dividend of degree >= num_points (the RS
  // pipeline never does — message and derivative degrees stay below
  // it), so its inverse — the single most expensive one — is built
  // lazily in node_rem instead.
  inv_levels_.resize(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    inv_levels_[l].resize(levels_[l].size());
  }
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    for (std::size_t i = 0; i < levels_[l].size(); ++i) {
      if ((i ^ 1) >= levels_[l].size()) {
        continue;  // single child carried up: the descent never divides
      }
      const Poly& node = levels_[l][i];
      const auto deg = static_cast<std::size_t>(node.degree());
      // Paired node: the longest quotient is the sibling's degree.
      const auto prec =
          static_cast<std::size_t>(levels_[l][i ^ 1].degree());
      if (deg < crossover_ || prec < kFastDivMinQuotient) continue;
      Poly rev;
      rev.c.assign(node.c.rbegin(), node.c.rend());
      inv_levels_[l][i] = poly_inverse_series(rev, prec, mont_, ntt_.get());
      ++fast_nodes_;
    }
  }
}

namespace {

// In-place remainder modulo a *monic* divisor (every tree node is a
// product of monic linears). Skips the quotient, the leading-
// coefficient inversion and all Poly wrapper churn of the generic
// poly_divrem — this is the hot inner loop of tree descent below the
// fast-division crossover. Each row elimination is one submul batch,
// lane-wide on a context with a kernel table (same multiplication
// sequence, so the remainder words are bit-identical).
void monic_rem_inplace(ScratchVec& r, const std::vector<u64>& b,
                       const MontgomeryField& mref) {
  const MontgomeryField m = mref;  // registers, not reloads, across stores
  const std::size_t db = b.size() - 1;  // deg b; b.back() == one()
  while (r.size() > db) {
    const u64 top = r.back();
    r.pop_back();
    if (top == 0) continue;
    m.submul_inplace(r.data() + (r.size() - db), top, b.data(), db);
  }
}

}  // namespace

void SubproductTree::node_rem(ScratchVec& r, std::size_t level,
                              std::size_t idx) const {
  const Poly& b = levels_[level][idx];
  const std::size_t db = b.c.size() - 1;
  while (!r.empty() && r.back() == 0) r.pop_back();
  if (r.size() <= db) return;  // nothing to eliminate
  const std::size_t k = r.size() - db;
  const Poly* inv = nullptr;
  if (db >= crossover_ && k >= kFastDivMinQuotient) {
    if (level + 1 == levels_.size()) {
      // Root: built on the first oversized dividend (see
      // build_inverses); call_once keeps the lazy build safe on
      // const trees shared across sessions.
      std::call_once(root_inv_once_, [this, db] {
        const Poly& root = levels_.back()[0];
        Poly rev;
        rev.c.assign(root.c.rbegin(), root.c.rend());
        root_inv_ = poly_inverse_series(rev, db, mont_, ntt_.get());
      });
      inv = &root_inv_;
    } else if (!inv_levels_[level][idx].c.empty()) {
      inv = &inv_levels_[level][idx];
    }
  }
  if (inv == nullptr) {
    monic_rem_inplace(r, b.c, mont_);
    return;
  }
  if (inv->c.size() < k) {
    // Oversized dividend (only possible at the root): extend the
    // cached prefix by Newton steps instead of starting over.
    Poly rev;
    rev.c.assign(b.c.rbegin(), b.c.rend());
    const Poly ext = poly_inverse_series(rev, k, mont_, ntt_.get(), inv);
    monic_rem_fast_inplace(r, b.c, ext, mont_, ntt_.get());
    return;
  }
  monic_rem_fast_inplace(r, b.c, *inv, mont_, ntt_.get());
}

void SubproductTree::eval_rec(ScratchVec& r, std::size_t level,
                              std::size_t idx, std::size_t lo, std::size_t hi,
                              std::vector<u64>& out) const {
  if (level == 0) {
    // r is already reduced mod (x - x_lo), i.e. it is the value.
    out[lo] = r.empty() ? 0 : r[0];
    return;
  }
  const std::size_t span = std::size_t{1} << (level - 1);
  const std::size_t mid = std::min(hi, lo + span);
  const auto& child_level = levels_[level - 1];
  const std::size_t left = 2 * idx;
  const std::size_t right = 2 * idx + 1;
  if (right >= child_level.size()) {
    // Single-child node: polynomial is identical, just descend.
    eval_rec(r, level - 1, left, lo, hi, out);
    return;
  }
  ScratchVec rl = r;  // left-spine copy: arena scratch, freed per node
  node_rem(rl, level - 1, left);
  eval_rec(rl, level - 1, left, lo, mid, out);
  node_rem(r, level - 1, right);
  eval_rec(r, level - 1, right, mid, hi, out);
}

std::vector<u64> SubproductTree::evaluate_mont(const Poly& p_mont) const {
  std::vector<u64> out(points_.size(), 0);
  ScratchVec r(p_mont.c.begin(), p_mont.c.end());
  node_rem(r, levels_.size() - 1, 0);
  eval_rec(r, levels_.size() - 1, 0, 0, points_.size(), out);
  return out;
}

std::vector<u64> SubproductTree::evaluate(const Poly& p,
                                          const PrimeField& f) const {
  if (f.modulus() != mont_.modulus()) {
    throw std::invalid_argument("SubproductTree::evaluate: field mismatch");
  }
  std::vector<u64> out = evaluate_mont(Poly{mont_.to_mont_vec(p.c)});
  mont_.from_mont_inplace(out);
  return out;
}

ScratchVec SubproductTree::mul_scratch(std::span<const u64> a,
                                       std::span<const u64> b) const {
  if (a.empty() || b.empty()) return {};
  const std::size_t out = a.size() + b.size() - 1;
  if (ntt_ != nullptr && out >= poly_detail::kNttThreshold &&
      out <= ntt_->capacity()) {
    return ntt_convolve_scratch(a, b, mont_, ntt_.get());
  }
  if (out >= poly_detail::kNttThreshold && ntt_supports_size(mont_, out)) {
    return ntt_convolve_scratch(a, b, mont_);
  }
  // kara_rec runs the same addmul rows as schoolbook below its
  // threshold, so one ladder covers every sub-NTT size.
  return poly_detail::kara<MontgomeryField, ScratchVec>(a, b, mont_);
}

ScratchVec SubproductTree::interp_rec(std::span<const u64> weighted,
                                      std::size_t level, std::size_t idx,
                                      std::size_t lo, std::size_t hi) const {
  if (level == 0) {
    ScratchVec p;
    if (weighted[lo] != 0) p.push_back(weighted[lo]);
    return p;
  }
  const std::size_t span = std::size_t{1} << (level - 1);
  const std::size_t mid = std::min(hi, lo + span);
  const auto& child_level = levels_[level - 1];
  const std::size_t left = 2 * idx;
  const std::size_t right = 2 * idx + 1;
  if (right >= child_level.size()) {
    return interp_rec(weighted, level - 1, left, lo, hi);
  }
  const ScratchVec pl = interp_rec(weighted, level - 1, left, lo, mid);
  const ScratchVec pr = interp_rec(weighted, level - 1, right, mid, hi);
  ScratchVec sum = mul_scratch(pl, child_level[right].c);
  ScratchVec other = mul_scratch(pr, child_level[left].c);
  if (sum.size() < other.size()) sum.swap(other);
  const MontgomeryField m = mont_;
  for (std::size_t i = 0; i < other.size(); ++i) {
    sum[i] = m.add(sum[i], other[i]);
  }
  while (!sum.empty() && sum.back() == 0) sum.pop_back();
  return sum;
}

Poly SubproductTree::interpolate_mont(
    std::span<const u64> values_mont) const {
  if (values_mont.size() != points_.size()) {
    throw std::invalid_argument("SubproductTree::interpolate: size mismatch");
  }
  // Lagrange weights s_i = y_i / m'(x_i) where m = prod (x - x_j).
  const Poly dm = poly_derivative(root_mont(), mont_);
  std::vector<u64> denom = evaluate_mont(dm);
  std::vector<u64> inv_denom = mont_.batch_inv(denom);
  ScratchVec weighted(values_mont.size());
  mont_.mul_vec(values_mont.data(), inv_denom.data(), weighted.data(),
                values_mont.size());
  const ScratchVec coeffs =
      interp_rec(weighted, levels_.size() - 1, 0, 0, points_.size());
  Poly p;
  p.c.assign(coeffs.begin(), coeffs.end());
  p.trim();
  return p;
}

Poly SubproductTree::interpolate(std::span<const u64> values,
                                 const PrimeField& f) const {
  if (f.modulus() != mont_.modulus()) {
    throw std::invalid_argument(
        "SubproductTree::interpolate: field mismatch");
  }
  Poly p = interpolate_mont(mont_.to_mont_vec(values));
  mont_.from_mont_inplace(p.c);
  p.trim();
  return p;
}

std::vector<u64> multipoint_evaluate(const Poly& p, std::span<const u64> xs,
                                     const PrimeField& f) {
  SubproductTree tree(xs, f);
  return tree.evaluate(p, f);
}

Poly interpolate(std::span<const u64> xs, std::span<const u64> ys,
                 const PrimeField& f) {
  SubproductTree tree(xs, f);
  return tree.interpolate(ys, f);
}

}  // namespace camelot
