#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "la/dense_matrix.h"
#include "testing/reference_kernels.h"

/// Differential test of the dense products against frozen copies of the
/// tiled kernels they replaced (testing/reference_kernels.h): the outputs
/// must be bit-identical on every shape around the four-row and 64-wide
/// boundaries, with signed zeros, infinities and NaNs among the inputs, at
/// 1 and 4 threads. Any NaN matches any NaN: the compiler may swap the
/// operands of an addition, which can change which NaN payload survives.

namespace amalur {
namespace la {
namespace {

enum class Values { kGaussian, kSignedZeros, kNonFinite };

DenseMatrix Draw(size_t rows, size_t cols, Values values, Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNonFinite[] = {kInf, -kInf,
                               std::numeric_limits<double>::quiet_NaN()};
  DenseMatrix out = DenseMatrix::RandomGaussian(rows, cols, rng);
  for (size_t i = 0; i < out.size(); ++i) {
    const double u = rng->NextDouble();
    if (values == Values::kSignedZeros && u < 0.6) {
      out.data()[i] = u < 0.4 ? -0.0 : 0.0;
    } else if (values == Values::kNonFinite && u < 0.02) {
      out.data()[i] = kNonFinite[static_cast<size_t>(u * 150.0)];
    }
  }
  return out;
}

/// Bitwise equality, except that any NaN matches any NaN.
::testing::AssertionResult SameBits(const DenseMatrix& actual,
                                    const DenseMatrix& expected) {
  if (actual.rows() != expected.rows() || actual.cols() != expected.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << actual.rows() << "x" << actual.cols() << " vs "
           << expected.rows() << "x" << expected.cols();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    const double a = actual.data()[i], e = expected.data()[i];
    if (std::isnan(a) && std::isnan(e)) continue;
    if (std::memcmp(&a, &e, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a << " vs reference " << e;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ReferenceKernelsTest, ProductsAreBitIdenticalToTheTiledKernels) {
  std::vector<size_t> row_counts = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 203};
  const size_t inner_sizes[] = {0, 1, 63, 64, 65, 130};
  const size_t widths[] = {1, 2, 3, 4, 5, 65};
  Rng rng(1901);
  for (size_t threads : {1, 4}) {
    common::ScopedNumThreads scope(threads);
    for (Values values :
         {Values::kGaussian, Values::kSignedZeros, Values::kNonFinite}) {
      for (size_t rows : row_counts) {
        for (size_t inner : inner_sizes) {
          for (size_t width : widths) {
            SCOPED_TRACE("threads " + std::to_string(threads) + ", values " +
                         std::to_string(static_cast<int>(values)) + ", " +
                         std::to_string(rows) + "x" + std::to_string(inner) +
                         " by width " + std::to_string(width));
            const DenseMatrix a = Draw(rows, inner, values, &rng);
            const DenseMatrix b = Draw(inner, width, values, &rng);
            const DenseMatrix bt = Draw(rows, width, values, &rng);
            const DenseMatrix product = ReferenceMultiply(a, b);
            const DenseMatrix transpose_product =
                ReferenceTransposeMultiply(a, bt);
            EXPECT_TRUE(SameBits(a.Multiply(b), product));
            EXPECT_TRUE(SameBits(a.TransposeMultiply(bt), transpose_product));

            // Into a buffer of the result's shape holding stale values, and
            // into one of another shape.
            DenseMatrix out =
                DenseMatrix::Constant(product.rows(), product.cols(), 7.0);
            a.MultiplyInto(b, &out);
            EXPECT_TRUE(SameBits(out, product));
            out = DenseMatrix::Constant(transpose_product.rows(),
                                        transpose_product.cols(), -3.0);
            a.TransposeMultiplyInto(bt, &out);
            EXPECT_TRUE(SameBits(out, transpose_product));
            DenseMatrix reshaped = DenseMatrix::Constant(2, 3, 1.0);
            a.MultiplyInto(b, &reshaped);
            EXPECT_TRUE(SameBits(reshaped, product));
            reshaped = DenseMatrix::Constant(3, 2, 1.0);
            a.TransposeMultiplyInto(bt, &reshaped);
            EXPECT_TRUE(SameBits(reshaped, transpose_product));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace la
}  // namespace amalur
