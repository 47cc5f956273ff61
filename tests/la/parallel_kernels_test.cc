#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"

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
  const double serial_norm = a.FrobeniusNorm();
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    EXPECT_NEAR(a.Sum(), serial_sum, 1e-9) << threads;
    EXPECT_NEAR(a.FrobeniusNorm(), serial_norm, 1e-9) << threads;
    EXPECT_EQ(a.Sum(), a.Sum()) << threads;  // run-stable at fixed count
  }
}

SparseMatrix RandomSparse(size_t rows, size_t cols, double density, Rng* rng) {
  std::vector<Triplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng->NextDouble(0.0, 1.0) < density) {
        triplets.push_back({i, j, rng->NextGaussian()});
      }
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST_F(ParallelKernelsTest, SparseMultiplyBitwiseEqualAcrossThreads) {
  Rng rng(107);
  const SparseMatrix s = RandomSparse(700, 90, 0.05, &rng);
  const DenseMatrix d = DenseMatrix::RandomGaussian(90, 4, &rng);
  ExpectBitwiseStable([&] { return s.Multiply(d); });
}

TEST_F(ParallelKernelsTest, SparseLeftMultiplyBitwiseEqualAcrossThreads) {
  Rng rng(108);
  const SparseMatrix s = RandomSparse(90, 120, 0.05, &rng);
  const DenseMatrix d = DenseMatrix::RandomGaussian(64, 90, &rng);
  ExpectBitwiseStable([&] { return s.LeftMultiply(d); });
  const DenseMatrix dt = DenseMatrix::RandomGaussian(64, 120, &rng);
  ExpectBitwiseStable([&] { return s.LeftMultiplyTranspose(dt); });
}

TEST_F(ParallelKernelsTest, SparseTransposeMultiplyNearSerialAndRunStable) {
  Rng rng(109);
  // Scatter kernel: per-chunk buffers merged in chunk order.
  const SparseMatrix s = RandomSparse(900, 70, 0.04, &rng);
  const DenseMatrix d = DenseMatrix::RandomGaussian(900, 3, &rng);
  ExpectNearSerial([&] { return s.TransposeMultiply(d); });
}

TEST_F(ParallelKernelsTest, TransformInPlaceMatchesMapInPlace) {
  Rng rng(110);
  DenseMatrix via_function = DenseMatrix::RandomGaussian(40, 40, &rng);
  DenseMatrix via_template = via_function;
  via_function.MapInPlace([](double v) { return v * v + 1.0; });
  via_template.TransformInPlace([](double v) { return v * v + 1.0; });
  EXPECT_TRUE(via_function == via_template);
}

}  // namespace
}  // namespace la
}  // namespace amalur
