#include "poly/poly.hpp"

namespace camelot {

bool poly_equal(const Poly& a, const Poly& b) {
  Poly x = a, y = b;
  x.trim();
  y.trim();
  return x.c == y.c;
}

// Explicit instantiations: every consumer links against these instead
// of re-expanding the templates per translation unit.
#define CAMELOT_POLY_INSTANTIATE(Field)                                    \
  template Poly poly_add<Field>(const Poly&, const Poly&, const Field&);   \
  template Poly poly_sub<Field>(const Poly&, const Poly&, const Field&);   \
  template Poly poly_scale<Field>(const Poly&, u64, const Field&);         \
  template Poly poly_mul_schoolbook<Field>(const Poly&, const Poly&,       \
                                           const Field&);                  \
  template Poly poly_mul_karatsuba<Field>(const Poly&, const Poly&,        \
                                          const Field&);                   \
  template Poly poly_mul<Field>(const Poly&, const Poly&, const Field&,    \
                                const NttTables*);                        \
  template void poly_divrem<Field>(const Poly&, const Poly&, const Field&, \
                                   Poly*, Poly*);                          \
  template Poly poly_rem<Field>(const Poly&, const Poly&, const Field&);   \
  template Poly poly_gcd<Field>(Poly, Poly, const Field&);                 \
  template void poly_xgcd_partial<Field>(const Poly&, const Poly&, int,    \
                                         const Field&, Poly*, Poly*,       \
                                         Poly*);                           \
  template u64 poly_eval<Field>(const Poly&, u64, const Field&);           \
  template std::vector<u64> poly_eval_many<Field>(                         \
      const Poly&, std::span<const u64>, const Field&);                    \
  template Poly poly_derivative<Field>(const Poly&, const Field&);

CAMELOT_POLY_INSTANTIATE(PrimeField)
CAMELOT_POLY_INSTANTIATE(MontgomeryField)
#undef CAMELOT_POLY_INSTANTIATE

}  // namespace camelot
