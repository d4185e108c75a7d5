// AVX2 kernel table (FieldBackend::kMontgomeryAvx2).
//
// Four u64 lanes per iteration, each 64-bit product assembled from
// vpmuludq 32x32 partial products. The table exists for *narrow*
// primes only: for q < 2^31 the REDC by 2^64 factors into two chained
// REDC-32 steps (word-by-word Montgomery), 5 vpmuludq per 4 products
// against 4 scalar mulx-based multiplies, computing exactly the same
// t*R^{-1} mod q function, so the output words match the scalar loops
// bit for bit. The framework's CRT primes are chosen just above the
// code length (core/prime_plan.cpp), so every real session runs on
// this path. For q >= 2^31 a 4-lane REDC needs 11 vpmuludq per 4
// products and ties scalar mulx, so there is no wide AVX2 table and
// FieldOps resolves such requests to scalar.
//
// The kernels live in field/montgomery_simd.cpp, the only translation
// unit compiled with -mavx2, so the rest of the build stays portable.
// Built without AVX2 the lookup returns nullptr and resolution falls
// back to scalar. Callers must check the CPU first (FieldOps does).
#pragma once

#include "field/montgomery.hpp"

namespace camelot {

// The AVX2 table for q's width: non-null only for 2 < q < 2^31 in a
// build with AVX2 kernels.
const MontKernels* avx2_kernels(u64 q) noexcept;

}  // namespace camelot
