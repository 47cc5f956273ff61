#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/dense_matrix.h"

/// Parallel/serial equivalence for the LA kernels: every parallelized kernel
/// is compared against its 1-thread result across thread counts
/// {1, 2, hardware}. Kernels that partition output rows are bitwise-equal to
/// serial at any thread count (asserted with operator==); kernels that merge
/// per-chunk partials in fixed chunk order are run-stable but may regroup
/// floating-point additions, so those are asserted within 1e-12.

namespace amalur {
namespace la {
namespace {

std::vector<size_t> TestedThreadCounts() {
  std::vector<size_t> counts = {1, 2};
  const size_t hw = common::DefaultNumThreads();
  if (hw != 1 && hw != 2) counts.push_back(hw);
  counts.push_back(5);  // an uneven split, > typical grain boundaries
  return counts;
}

class ParallelKernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetNumThreads(0); }

  template <typename Fn>
  void ExpectBitwiseStable(Fn kernel) {
    common::SetNumThreads(1);
    const DenseMatrix serial = kernel();
    for (size_t threads : TestedThreadCounts()) {
      common::SetNumThreads(threads);
      const DenseMatrix parallel = kernel();
      EXPECT_TRUE(parallel == serial) << "thread count " << threads;
    }
  }

  template <typename Fn>
  void ExpectNearSerial(Fn kernel, double tolerance = 1e-12) {
    common::SetNumThreads(1);
    const DenseMatrix serial = kernel();
    for (size_t threads : TestedThreadCounts()) {
      common::SetNumThreads(threads);
      const DenseMatrix parallel = kernel();
      EXPECT_TRUE(parallel.ApproxEquals(serial, tolerance))
          << "thread count " << threads;
      // And run-to-run stability at this fixed thread count.
      EXPECT_TRUE(kernel() == parallel) << "thread count " << threads;
    }
  }
};

TEST_F(ParallelKernelsTest, DenseMultiplyBitwiseEqualAcrossThreads) {
  Rng rng(101);
  // Odd sizes straddle the four-row blocks and the chunk boundaries.
  const DenseMatrix a = DenseMatrix::RandomGaussian(173, 95, &rng);
  const DenseMatrix b = DenseMatrix::RandomGaussian(95, 131, &rng);
  ExpectBitwiseStable([&] { return a.Multiply(b); });
}

TEST_F(ParallelKernelsTest, DenseTransposeMultiplyBitwiseEqualAcrossThreads) {
  Rng rng(102);
  const DenseMatrix a = DenseMatrix::RandomGaussian(301, 47, &rng);
  const DenseMatrix b = DenseMatrix::RandomGaussian(301, 3, &rng);
  ExpectBitwiseStable([&] { return a.TransposeMultiply(b); });
}

TEST_F(ParallelKernelsTest, DenseTransposeAndRowSumsBitwiseEqual) {
  Rng rng(104);
  const DenseMatrix a = DenseMatrix::RandomGaussian(97, 203, &rng);
  ExpectBitwiseStable([&] { return a.Transpose(); });
  ExpectBitwiseStable([&] { return a.RowSums(); });
}

TEST_F(ParallelKernelsTest, DenseColSumsNearSerialAndRunStable) {
  Rng rng(105);
  // Tall enough that the row range splits into several reduce chunks; the
  // regrouped additions accumulate O(rows * eps) rounding, hence the looser
  // bound (run-to-run stability stays exact).
  const DenseMatrix a = DenseMatrix::RandomGaussian(40000, 7, &rng);
  ExpectNearSerial([&] { return a.ColSums(); }, 1e-8);
}

TEST_F(ParallelKernelsTest, DenseScalarReductionsNearSerialAndRunStable) {
  Rng rng(106);
  const DenseMatrix a = DenseMatrix::RandomGaussian(300, 300, &rng);
  common::SetNumThreads(1);
  const double serial_sum = a.Sum();
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    EXPECT_NEAR(a.Sum(), serial_sum, 1e-9) << threads;
    EXPECT_EQ(a.Sum(), a.Sum()) << threads;  // run-stable at fixed count
  }
}

TEST_F(ParallelKernelsTest, TransformInPlaceMatchesAnElementwiseLoop) {
  Rng rng(110);
  // 20,000 elements span several of TransformInPlace's chunks.
  const DenseMatrix a = DenseMatrix::RandomGaussian(200, 100, &rng);
  DenseMatrix expected = a;
  for (size_t i = 0; i < expected.size(); ++i) {
    const double v = expected.data()[i];
    expected.data()[i] = v * v + 1.0;
  }
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    DenseMatrix transformed = a;
    transformed.TransformInPlace([](double v) { return v * v + 1.0; });
    EXPECT_TRUE(transformed == expected) << "thread count " << threads;
  }
}

}  // namespace
}  // namespace la
}  // namespace amalur
