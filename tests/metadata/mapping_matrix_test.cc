#include "metadata/mapping_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace amalur {
namespace metadata {
namespace {

// CM1 of the running example: T(m,a,hr,o) <- D1(m,a,hr): [0, 1, 2, -1].
CompressedMapping MakeCm1() { return CompressedMapping({0, 1, 2, -1}, 3); }
// CM2: T(m,a,hr,o) <- D2(m,a,o): [0, 1, -1, 2].
CompressedMapping MakeCm2() { return CompressedMapping({0, 1, -1, 2}, 3); }

TEST(CompressedMappingTest, Figure4aValues) {
  EXPECT_EQ(MakeCm1().values(), (std::vector<int64_t>{0, 1, 2, -1}));
  EXPECT_EQ(MakeCm2().values(), (std::vector<int64_t>{0, 1, -1, 2}));
  EXPECT_EQ(MakeCm1().target_cols(), 4u);
  EXPECT_EQ(MakeCm1().source_cols(), 3u);
}

TEST(CompressedMappingTest, ToDenseMatchesDefinitionIII1) {
  // M1 is 4x3 with rows m,a,hr mapped, last row all zeros (paper: "the last
  // row of M1 has only zeros").
  la::DenseMatrix m1 = MakeCm1().ToDense();
  EXPECT_TRUE(m1.ApproxEquals(la::DenseMatrix({{1, 0, 0},
                                               {0, 1, 0},
                                               {0, 0, 1},
                                               {0, 0, 0}})));
  la::DenseMatrix m2 = MakeCm2().ToDense();
  EXPECT_TRUE(m2.ApproxEquals(la::DenseMatrix({{1, 0, 0},
                                               {0, 1, 0},
                                               {0, 0, 0},
                                               {0, 0, 1}})));
}

TEST(CompressedMappingTest, MappedTargetColumns) {
  EXPECT_EQ(MakeCm1().MappedTargetColumns(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(MakeCm2().MappedTargetColumns(), (std::vector<size_t>{0, 1, 3}));
}

TEST(CompressedMappingTest, ExpandColumnsEqualsExplicitProduct) {
  Rng rng(1);
  la::DenseMatrix dk = la::DenseMatrix::RandomGaussian(5, 3, &rng);
  CompressedMapping cm = MakeCm2();
  la::DenseMatrix expected = dk.Multiply(cm.ToDense().Transpose());  // D M^T
  EXPECT_TRUE(cm.ExpandColumns(dk).ApproxEquals(expected, 1e-12));
}

TEST(CompressedMappingTest, IdentityRoundTrip) {
  Rng rng(3);
  la::DenseMatrix d = la::DenseMatrix::RandomGaussian(4, 5, &rng);
  CompressedMapping id = CompressedMapping::Identity(5);
  EXPECT_TRUE(id.ExpandColumns(d).ApproxEquals(d, 0.0));
}

TEST(CompressedMappingTest, ToStringRendering) {
  EXPECT_EQ(MakeCm1().ToString(), "CM[0, 1, 2, -1]");
}

TEST(CompressedMappingValidation, RejectsDuplicateSourceColumn) {
  EXPECT_DEATH(CompressedMapping({0, 0}, 1), "mapped to two target columns");
}

TEST(CompressedMappingValidation, RejectsOutOfRangeEntry) {
  EXPECT_DEATH(CompressedMapping({5}, 3), "out of source range");
}

}  // namespace
}  // namespace metadata
}  // namespace amalur
