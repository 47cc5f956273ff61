#include "la/dense_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"

namespace amalur {
namespace la {
namespace {

TEST(DenseMatrixTest, ConstructionAndAccess) {
  DenseMatrix m({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6);
  m.At(1, 2) = 7;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 7);
}

TEST(DenseMatrixTest, FactoryConstructors) {
  EXPECT_TRUE(DenseMatrix::Zeros(2, 2).ApproxEquals(DenseMatrix({{0, 0}, {0, 0}})));
  EXPECT_TRUE(
      DenseMatrix::Constant(2, 2, 3.5).ApproxEquals(DenseMatrix({{3.5, 3.5},
                                                                 {3.5, 3.5}})));
  EXPECT_TRUE(DenseMatrix::Identity(2).ApproxEquals(DenseMatrix({{1, 0}, {0, 1}})));
}

TEST(DenseMatrixTest, MultiplyKnownValues) {
  DenseMatrix a({{1, 2}, {3, 4}});
  DenseMatrix b({{5, 6}, {7, 8}});
  DenseMatrix expected({{19, 22}, {43, 50}});
  EXPECT_TRUE(a.Multiply(b).ApproxEquals(expected));
}

TEST(DenseMatrixTest, MultiplyIdentityIsNoop) {
  Rng rng(1);
  DenseMatrix a = DenseMatrix::RandomGaussian(7, 5, &rng);
  EXPECT_TRUE(a.Multiply(DenseMatrix::Identity(5)).ApproxEquals(a, 1e-12));
  EXPECT_TRUE(DenseMatrix::Identity(7).Multiply(a).ApproxEquals(a, 1e-12));
}

TEST(DenseMatrixTest, TransposeMultiplyMatchesExplicitTranspose) {
  Rng rng(2);
  DenseMatrix a = DenseMatrix::RandomGaussian(6, 4, &rng);
  DenseMatrix b = DenseMatrix::RandomGaussian(6, 3, &rng);
  EXPECT_TRUE(
      a.TransposeMultiply(b).ApproxEquals(a.Transpose().Multiply(b), 1e-10));
}

TEST(DenseMatrixTest, TransposeInvolution) {
  Rng rng(4);
  DenseMatrix a = DenseMatrix::RandomGaussian(5, 9, &rng);
  EXPECT_TRUE(a.Transpose().Transpose().ApproxEquals(a, 0.0));
}

TEST(DenseMatrixTest, ElementwiseOps) {
  DenseMatrix a({{1, 2}, {3, 4}});
  DenseMatrix b({{10, 20}, {30, 40}});
  EXPECT_TRUE(a.Add(b).ApproxEquals(DenseMatrix({{11, 22}, {33, 44}})));
  EXPECT_TRUE(b.Subtract(a).ApproxEquals(DenseMatrix({{9, 18}, {27, 36}})));
  EXPECT_TRUE(a.Hadamard(b).ApproxEquals(DenseMatrix({{10, 40}, {90, 160}})));
  EXPECT_TRUE(a.Scale(2.0).ApproxEquals(DenseMatrix({{2, 4}, {6, 8}})));
}

TEST(DenseMatrixTest, AddScaledAxpy) {
  DenseMatrix a({{1, 1}, {1, 1}});
  DenseMatrix g({{2, 4}, {6, 8}});
  a.AddScaled(g, -0.5);
  EXPECT_TRUE(a.ApproxEquals(DenseMatrix({{0, -1}, {-2, -3}})));
}

TEST(DenseMatrixTest, TransformInPlaceAppliesFunction) {
  DenseMatrix a({{0, 1}, {4, 9}});
  a.TransformInPlace([](double v) { return std::sqrt(v); });
  EXPECT_TRUE(a.ApproxEquals(DenseMatrix({{0, 1}, {2, 3}})));
}

TEST(DenseMatrixTest, Reductions) {
  DenseMatrix a({{1, 2, 3}, {4, 5, 6}});
  EXPECT_TRUE(a.RowSums().ApproxEquals(DenseMatrix({{6}, {15}})));
  EXPECT_TRUE(a.ColSums().ApproxEquals(DenseMatrix({{5, 7, 9}})));
  EXPECT_DOUBLE_EQ(a.Sum(), 21.0);
}

TEST(DenseMatrixTest, SelectColumns) {
  DenseMatrix a({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  EXPECT_TRUE(a.SelectColumns({2, 0}).ApproxEquals(DenseMatrix({{3, 1},
                                                                {6, 4},
                                                                {9, 7}})));
}

TEST(DenseMatrixTest, Concatenation) {
  DenseMatrix a({{1, 2}, {3, 4}});
  DenseMatrix b({{5}, {6}});
  EXPECT_TRUE(a.ConcatColumns(b).ApproxEquals(DenseMatrix({{1, 2, 5}, {3, 4, 6}})));
  DenseMatrix c({{7, 8}});
  EXPECT_TRUE(
      a.ConcatRows(c).ApproxEquals(DenseMatrix({{1, 2}, {3, 4}, {7, 8}})));
}

TEST(DenseMatrixTest, MaxAbsDiff) {
  DenseMatrix a({{1, 2}, {3, 4}});
  DenseMatrix b({{1, 2.5}, {3, 3}});
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 1.0);
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(a), 0.0);
}

TEST(DenseMatrixTest, ApproxEqualsShapeMismatch) {
  EXPECT_FALSE(DenseMatrix(2, 2).ApproxEquals(DenseMatrix(2, 3)));
}

/// Associativity: (AB)C == A(BC) — exercised because the factorized rewrites
/// depend on reordering multiplication chains.
class GemmAssociativityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GemmAssociativityTest, Holds) {
  auto [m, k, l, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 1000 + k * 100 + l * 10 + n));
  DenseMatrix a = DenseMatrix::RandomGaussian(m, k, &rng);
  DenseMatrix b = DenseMatrix::RandomGaussian(k, l, &rng);
  DenseMatrix c = DenseMatrix::RandomGaussian(l, n, &rng);
  DenseMatrix left = a.Multiply(b).Multiply(c);
  DenseMatrix right = a.Multiply(b.Multiply(c));
  EXPECT_LT(left.MaxAbsDiff(right), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmAssociativityTest,
                         ::testing::Values(std::make_tuple(1, 1, 1, 1),
                                           std::make_tuple(3, 4, 5, 2),
                                           std::make_tuple(16, 8, 4, 2),
                                           std::make_tuple(65, 33, 17, 9),
                                           std::make_tuple(128, 1, 128, 1)));

/// Distributivity: (A+B)C == AC + BC — the algebraic identity behind the
/// Amalur local-result-assembly step.
class GemmDistributivityTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(GemmDistributivityTest, Holds) {
  auto [m, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 31 + n));
  DenseMatrix a = DenseMatrix::RandomGaussian(m, n, &rng);
  DenseMatrix b = DenseMatrix::RandomGaussian(m, n, &rng);
  DenseMatrix x = DenseMatrix::RandomGaussian(n, 3, &rng);
  DenseMatrix left = a.Add(b).Multiply(x);
  DenseMatrix right = a.Multiply(x).Add(b.Multiply(x));
  EXPECT_LT(left.MaxAbsDiff(right), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmDistributivityTest,
                         ::testing::Values(std::make_pair(2, 2),
                                           std::make_pair(7, 13),
                                           std::make_pair(64, 65),
                                           std::make_pair(100, 3)));

}  // namespace
}  // namespace la
}  // namespace amalur
