#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/dense_matrix.h"

/// Parallel/serial equivalence for the LA kernels: every kernel is compared
/// bit for bit (operator==) against its serial result across thread counts.
/// The parallel kernels partition their output, and the reductions
/// (`ColSums`, `Sum`) are one serial pass, so none depends on the thread
/// count (the determinism contract of parallel_for.h).

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

TEST_F(ParallelKernelsTest, DenseColSumsEqualOneSerialPassAtAnyThreadCount) {
  Rng rng(105);
  // Tall enough that a split of the rows would give each thread a chunk.
  const DenseMatrix a = DenseMatrix::RandomGaussian(40000, 7, &rng);
  DenseMatrix serial(1, a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) serial.At(0, j) += a.At(i, j);
  }
  for (size_t threads : {1, 2, 4}) {
    common::SetNumThreads(threads);
    EXPECT_TRUE(a.ColSums() == serial) << "thread count " << threads;
  }
}

TEST_F(ParallelKernelsTest, DenseSumEqualsOneSerialPassAtAnyThreadCount) {
  Rng rng(106);
  const DenseMatrix a = DenseMatrix::RandomGaussian(300, 300, &rng);
  double serial = 0.0;
  for (size_t i = 0; i < a.size(); ++i) serial += a.data()[i];
  for (size_t threads : {1, 2, 4}) {
    common::SetNumThreads(threads);
    EXPECT_EQ(a.Sum(), serial) << "thread count " << threads;
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
