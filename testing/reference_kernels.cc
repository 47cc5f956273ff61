#include "testing/reference_kernels.h"

#include <algorithm>

#include "common/logging.h"

namespace amalur {
namespace la {

namespace {
constexpr size_t kTile = 64;
}  // namespace

DenseMatrix ReferenceMultiply(const DenseMatrix& a, const DenseMatrix& b) {
  AMALUR_CHECK_EQ(a.cols(), b.rows()) << "gemm shape mismatch";
  DenseMatrix out(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t ii = 0; ii < m; ii += kTile) {
    const size_t i_end = std::min(ii + kTile, m);
    for (size_t jj = 0; jj < n; jj += kTile) {
      const size_t j_end = std::min(jj + kTile, n);
      for (size_t kk = 0; kk < k; kk += kTile) {
        const size_t k_end = std::min(kk + kTile, k);
        for (size_t i = ii; i < i_end; ++i) {
          const double* a_row = a.RowPtr(i);
          double* out_row = out.RowPtr(i);
          for (size_t p = kk; p < k_end; ++p) {
            const double a_ip = a_row[p];
            const double* b_row = b.RowPtr(p);
            for (size_t j = jj; j < j_end; ++j) out_row[j] += a_ip * b_row[j];
          }
        }
      }
    }
  }
  return out;
}

DenseMatrix ReferenceTransposeMultiply(const DenseMatrix& a,
                                       const DenseMatrix& b) {
  AMALUR_CHECK_EQ(a.rows(), b.rows()) << "gemm(Aᵀ,B) shape mismatch";
  DenseMatrix out(a.cols(), b.cols());
  for (size_t p = 0; p < a.rows(); ++p) {
    const double* a_row = a.RowPtr(p);
    const double* b_row = b.RowPtr(p);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double a_pi = a_row[i];
      double* out_row = out.RowPtr(i);
      for (size_t j = 0; j < b.cols(); ++j) out_row[j] += a_pi * b_row[j];
    }
  }
  return out;
}

}  // namespace la
}  // namespace amalur
