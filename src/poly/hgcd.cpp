#include "poly/hgcd.hpp"

#include <atomic>
#include <cstdlib>

#include "obs/trace.hpp"

namespace camelot {

namespace {

// Default tuned on the BENCH_field.json gao_hgcd sweep: the matrix
// cascade needs a reduction budget of a few NTT blocks before its
// transforms amortize over the classical loop's tiny per-step
// constant.
constexpr std::size_t kDefaultCrossover = 64;

std::size_t env_default_crossover() {
  const char* env = std::getenv("CAMELOT_HGCD_CROSSOVER");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  return kDefaultCrossover;
}

// 0 = "use the default/environment value" so a plain static init
// needs no env read at load time.
std::atomic<std::size_t>& crossover_override() {
  static std::atomic<std::size_t> value{0};
  return value;
}

}  // namespace

std::size_t hgcd_crossover() noexcept {
  const std::size_t forced =
      crossover_override().load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const std::size_t from_env = [] {
    const std::size_t v = env_default_crossover();
    CAMELOT_TRACE_MSG(obs::kTracePoly, "hgcd crossover=%zu%s", v,
                      v == kDefaultCrossover ? "" : " (env override)");
    return v;
  }();
  return from_env;
}

void set_hgcd_crossover(std::size_t budget) noexcept {
  crossover_override().store(budget, std::memory_order_relaxed);
}

// Explicit instantiations: every consumer links against these instead
// of re-expanding the templates per translation unit.
#define CAMELOT_HGCD_INSTANTIATE(Field)                                   \
  template void poly_xgcd_partial_hgcd<Field>(                            \
      const Poly&, const Poly&, int, const Field&, Poly*, Poly*, Poly*,   \
      const NttTables*, XgcdStats*, std::size_t);

CAMELOT_HGCD_INSTANTIATE(PrimeField)
CAMELOT_HGCD_INSTANTIATE(MontgomeryField)
#undef CAMELOT_HGCD_INSTANTIATE

}  // namespace camelot
