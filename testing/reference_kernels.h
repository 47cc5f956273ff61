#pragma once

#include "la/dense_matrix.h"

/// \file reference_kernels.h
/// Frozen copies of the dense products as `la::DenseMatrix` computed them
/// with a cache-tiled i-k-j loop that accumulates into the output matrix,
/// run serially. The library's register-accumulating kernels must match
/// them bit for bit: both sum each output element's terms in ascending
/// order from +0.0, and the old kernels were thread-count independent, so
/// the serial copy is the reference at any thread count. Tests compare
/// against these instead of re-running the library's own arithmetic.

namespace amalur {
namespace la {

/// `a * b` through the tiled i-k-j loop (64-wide tiles on all extents).
DenseMatrix ReferenceMultiply(const DenseMatrix& a, const DenseMatrix& b);

/// `aᵀ * b`: for each row p of `a`, every output row i accumulates
/// `a(p, i) * b(p, ·)` in place.
DenseMatrix ReferenceTransposeMultiply(const DenseMatrix& a,
                                       const DenseMatrix& b);

}  // namespace la
}  // namespace amalur
