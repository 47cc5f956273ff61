#include "metadata/indicator_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace amalur {
namespace metadata {
namespace {

// CI1 of the running example (Figure 4b): T rows [Jane, Jack, Sam, Ruby,
// Rose, Castiel] <- S1 rows [3, 0, 1, 2, -, -].
CompressedIndicator MakeCi1() {
  return CompressedIndicator({3, 0, 1, 2, -1, -1}, 4);
}
// CI2: <- S2 rows [2, -, -, -, 0, 1].
CompressedIndicator MakeCi2() {
  return CompressedIndicator({2, -1, -1, -1, 0, 1}, 3);
}

TEST(CompressedIndicatorTest, Figure4bValues) {
  EXPECT_EQ(MakeCi1().values(), (std::vector<int64_t>{3, 0, 1, 2, -1, -1}));
  EXPECT_EQ(MakeCi2().values(), (std::vector<int64_t>{2, -1, -1, -1, 0, 1}));
  EXPECT_EQ(MakeCi1().target_rows(), 6u);
  EXPECT_EQ(MakeCi1().source_rows(), 4u);
  EXPECT_EQ(MakeCi1().ContributedRows(), 4u);
  EXPECT_EQ(MakeCi2().ContributedRows(), 3u);
}

TEST(CompressedIndicatorTest, ToDenseIsBinarySelector) {
  la::DenseMatrix i2 = MakeCi2().ToDense();
  EXPECT_TRUE(i2.ApproxEquals(la::DenseMatrix({{0, 0, 1},
                                               {0, 0, 0},
                                               {0, 0, 0},
                                               {0, 0, 0},
                                               {1, 0, 0},
                                               {0, 1, 0}})));
}

TEST(CompressedIndicatorTest, ExpandRowsEqualsExplicitProduct) {
  Rng rng(1);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(3, 4, &rng);
  CompressedIndicator ci = MakeCi2();
  EXPECT_TRUE(ci.ExpandRows(y).ApproxEquals(ci.ToDense().Multiply(y), 1e-12));
}

TEST(CompressedIndicatorTest, ReduceRowsEqualsExplicitTransposeProduct) {
  Rng rng(2);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(6, 2, &rng);
  CompressedIndicator ci = MakeCi1();
  EXPECT_TRUE(
      ci.ReduceRows(x).ApproxEquals(ci.ToDense().TransposeMultiply(x), 1e-12));
}

TEST(CompressedIndicatorTest, FanOutAccumulatesInReduce) {
  // Two target rows point at the same source row (join fan-out).
  CompressedIndicator ci({0, 0, 1}, 2);
  la::DenseMatrix x({{1, 2}, {10, 20}, {100, 200}});
  la::DenseMatrix reduced = ci.ReduceRows(x);
  EXPECT_TRUE(reduced.ApproxEquals(la::DenseMatrix({{11, 22}, {100, 200}})));
}

TEST(CompressedIndicatorTest, FanOutDuplicatesInExpand) {
  CompressedIndicator ci({0, 0, 1}, 2);
  la::DenseMatrix y({{5, 6}, {7, 8}});
  EXPECT_TRUE(ci.ExpandRows(y).ApproxEquals(
      la::DenseMatrix({{5, 6}, {5, 6}, {7, 8}})));
}

TEST(CompressedIndicatorTest, IdentityRoundTrip) {
  Rng rng(3);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(5, 3, &rng);
  CompressedIndicator id = CompressedIndicator::Identity(5);
  EXPECT_TRUE(id.ExpandRows(y).ApproxEquals(y, 0.0));
  EXPECT_TRUE(id.ReduceRows(y).ApproxEquals(y, 0.0));
}

TEST(CompressedIndicatorTest, ExpandReduceAdjoint) {
  // <I y, x> == <y, I^T x> — the adjoint identity behind factorized
  // gradients.
  Rng rng(4);
  CompressedIndicator ci = MakeCi1();
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(4, 3, &rng);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(6, 3, &rng);
  const double lhs = ci.ExpandRows(y).Hadamard(x).Sum();
  const double rhs = y.Hadamard(ci.ReduceRows(x)).Sum();
  EXPECT_NEAR(lhs, rhs, 1e-10);
}

TEST(CompressedIndicatorValidation, RejectsOutOfRange) {
  EXPECT_DEATH(CompressedIndicator({7}, 3), "out of range");
  EXPECT_DEATH(CompressedIndicator({-2}, 3), "out of range");
}

TEST(CompressedIndicatorTest, ToStringRendering) {
  EXPECT_EQ(MakeCi2().ToString(), "CI[2, -1, -1, -1, 0, 1]");
}

}  // namespace
}  // namespace metadata
}  // namespace amalur
