#include "field/field_cache.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace camelot {

std::shared_ptr<const MontgomeryField> FieldCache::mont(u64 prime) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = mont_.find(prime);
    if (it != mont_.end()) {
      ++stats_.mont_hits;
      return it->second;
    }
  }
  // Build outside the lock (primality check + REDC constants); a
  // concurrent builder for the same prime produces an identical
  // immutable object, so last-writer-wins is harmless.
  CAMELOT_TRACE_MSG(obs::kTraceField, "building Montgomery context q=%llu",
                    static_cast<unsigned long long>(prime));
  auto built = std::make_shared<const MontgomeryField>(PrimeField(prime));
  std::lock_guard<std::mutex> lock(mu_);
  enforce_bound_locked();
  auto [it, inserted] = mont_.emplace(prime, built);
  if (!inserted) {
    ++stats_.mont_hits;
    return it->second;
  }
  ++stats_.mont_misses;
  return built;
}

void FieldCache::enforce_bound_locked() {
  if (mont_.size() < max_primes_ && ntt_.size() < max_primes_) return;
  // Entries are immutable and shared; dropping the maps only releases
  // this cache's references. Rebuilding on the next request is cheap
  // relative to the unbounded-growth alternative.
  mont_.clear();
  ntt_.clear();
}

std::shared_ptr<const NttTables> FieldCache::ntt_tables(u64 prime,
                                                        std::size_t min_size) {
  return ntt_tables_for(mont(prime), prime, min_size);
}

std::shared_ptr<const NttTables> FieldCache::ntt_tables_for(
    const std::shared_ptr<const MontgomeryField>& field, u64 prime,
    std::size_t min_size) {
  // Clamp the request the same way NttTables itself will, so a
  // request beyond the field's two-adicity still hits the cache.
  std::size_t target = 1;
  while (target < min_size) target <<= 1;
  if (field->two_adicity() < 62) {
    target = std::min(target, std::size_t{1} << field->two_adicity());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ntt_.find(prime);
    if (it != ntt_.end() && it->second->capacity() >= target) {
      ++stats_.ntt_hits;
      return it->second;
    }
  }
  CAMELOT_TRACE_MSG(obs::kTraceField,
                    "building NTT tables q=%llu min_size=%zu",
                    static_cast<unsigned long long>(prime), min_size);
  auto built = std::make_shared<const NttTables>(*field, min_size);
  std::lock_guard<std::mutex> lock(mu_);
  enforce_bound_locked();
  auto& slot = ntt_[prime];
  if (slot != nullptr && slot->capacity() >= built->capacity()) {
    ++stats_.ntt_hits;
    return slot;
  }
  slot = built;
  ++stats_.ntt_misses;
  return built;
}

FieldOps FieldCache::ops(u64 prime, std::size_t min_ntt_size,
                         FieldBackend backend) {
  auto field = mont(prime);
  auto tables = ntt_tables_for(field, prime, min_ntt_size);
  return FieldOps(*field, backend, std::move(tables));
}

FieldCache::Stats FieldCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.resident = mont_.size();
  return out;
}

const std::shared_ptr<FieldCache>& FieldCache::global() {
  static const std::shared_ptr<FieldCache> instance =
      std::make_shared<FieldCache>();
  return instance;
}

}  // namespace camelot
