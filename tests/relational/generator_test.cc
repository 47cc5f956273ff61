#include "testing/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "relational/join.h"

namespace amalur {
namespace rel {
namespace {

TEST(GeneratorTest, DeterministicForSameSeed) {
  SiloPairSpec spec;
  spec.base_rows = 50;
  spec.other_rows = 20;
  spec.seed = 7;
  SiloPair a = GenerateSiloPair(spec);
  SiloPair b = GenerateSiloPair(spec);
  EXPECT_TRUE(a.base.ToMatrix({1, 2}).ValueOrDie().ApproxEquals(
      b.base.ToMatrix({1, 2}).ValueOrDie(), 0.0));
  EXPECT_TRUE(a.other.ToMatrix({1, 2}).ValueOrDie().ApproxEquals(
      b.other.ToMatrix({1, 2}).ValueOrDie(), 0.0));
}

TEST(GeneratorTest, ShapesMatchSpec) {
  SiloPairSpec spec;
  spec.base_rows = 100;
  spec.other_rows = 40;
  spec.base_features = 3;
  spec.other_features = 5;
  spec.shared_features = 2;
  SiloPair pair = GenerateSiloPair(spec);
  // S1: k, y, s0, s1, x0..x2
  EXPECT_EQ(pair.base.NumRows(), 100u);
  EXPECT_EQ(pair.base.NumColumns(), 2u + 2u + 3u);
  // S2: k, s0, s1, z0..z4
  EXPECT_EQ(pair.other.NumRows(), 40u);
  EXPECT_EQ(pair.other.NumColumns(), 1u + 2u + 5u);
  EXPECT_EQ(pair.TargetFeatureNames(),
            (std::vector<std::string>{"s0", "s1", "x0", "x1", "x2", "z0", "z1",
                                      "z2", "z3", "z4"}));
}

TEST(GeneratorTest, FullOverlapMeansEveryBaseRowMatches) {
  SiloPairSpec spec;
  spec.base_rows = 60;
  spec.other_rows = 20;
  spec.match_fraction = 1.0;
  spec.row_overlap = 1.0;
  SiloPair pair = GenerateSiloPair(spec);
  auto matching = MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->matched.size(), 60u);  // every S1 row matches exactly once
  EXPECT_TRUE(matching->left_only.empty());
  EXPECT_TRUE(matching->right_only.empty());
}

TEST(GeneratorTest, MatchFractionControlsUnmatchedBaseRows) {
  SiloPairSpec spec;
  spec.base_rows = 100;
  spec.other_rows = 50;
  spec.match_fraction = 0.3;
  SiloPair pair = GenerateSiloPair(spec);
  auto matching = MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->matched.size(), 30u);
  EXPECT_EQ(matching->left_only.size(), 70u);
}

TEST(GeneratorTest, RowOverlapControlsMatchedOtherRows) {
  SiloPairSpec spec;
  spec.base_rows = 200;
  spec.other_rows = 100;
  spec.match_fraction = 1.0;
  spec.row_overlap = 0.4;  // only 40 S2 entities are referenced
  SiloPair pair = GenerateSiloPair(spec);
  auto matching = MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->matched.size(), 200u);  // fan-out 5 over 40 keys
  EXPECT_EQ(matching->right_only.size(), 60u);
  std::set<size_t> matched_right;
  for (auto [l, r] : matching->matched) matched_right.insert(r);
  EXPECT_EQ(matched_right.size(), 40u);
}

TEST(GeneratorTest, DuplicateRateAddsExactCopies) {
  SiloPairSpec spec;
  spec.base_rows = 10;
  spec.other_rows = 100;
  spec.other_dup_rate = 0.5;
  spec.other_features = 3;
  SiloPair pair = GenerateSiloPair(spec);
  EXPECT_EQ(pair.other.NumRows(), 150u);
  // Duplicated rows carry identical feature values as their source entity.
  auto key_col = pair.other.ColumnByName("k").ValueOrDie();
  auto z0 = pair.other.ColumnByName("z0").ValueOrDie();
  for (size_t i = 100; i < 150; ++i) {
    const int64_t entity = key_col->GetValue(i).int64();
    EXPECT_EQ(z0->GetValue(i), z0->GetValue(static_cast<size_t>(entity)));
  }
}

TEST(GeneratorTest, SharedFeaturesAgreeAcrossSilos) {
  SiloPairSpec spec;
  spec.base_rows = 30;
  spec.other_rows = 30;
  spec.shared_features = 2;
  SiloPair pair = GenerateSiloPair(spec);
  auto matching = MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  auto s0_base = pair.base.ColumnByName("s0").ValueOrDie();
  auto s0_other = pair.other.ColumnByName("s0").ValueOrDie();
  for (auto [l, r] : matching->matched) {
    EXPECT_DOUBLE_EQ(s0_base->GetDouble(l), s0_other->GetDouble(r));
  }
}

TEST(GeneratorTest, NullRatioInjectsNulls) {
  SiloPairSpec spec;
  spec.base_rows = 1000;
  spec.other_rows = 100;
  spec.base_features = 2;
  spec.other_features = 2;
  spec.null_ratio = 0.2;
  SiloPair pair = GenerateSiloPair(spec);
  double ratio = pair.base.ColumnByName("x0").ValueOrDie()->NullRatio();
  EXPECT_NEAR(ratio, 0.2, 0.05);
  // Keys and labels are never null.
  EXPECT_EQ(pair.base.ColumnByName("k").ValueOrDie()->NullCount(), 0u);
  EXPECT_EQ(pair.base.ColumnByName("y").ValueOrDie()->NullCount(), 0u);
}

TEST(GeneratorTest, OtherHasLabelWhenRequested) {
  SiloPairSpec spec;
  spec.other_has_label = true;
  spec.base_rows = 10;
  spec.other_rows = 10;
  SiloPair pair = GenerateSiloPair(spec);
  EXPECT_TRUE(pair.other.schema().Contains("y"));
  // Matched entities agree on the label across silos.
  auto matching = MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"});
  auto y_base = pair.base.ColumnByName("y").ValueOrDie();
  auto y_other = pair.other.ColumnByName("y").ValueOrDie();
  for (auto [l, r] : matching->matched) {
    EXPECT_DOUBLE_EQ(y_base->GetDouble(l), y_other->GetDouble(r));
  }
}

TEST(GeneratorTest, SingleTableGeneratorShape) {
  Table t = GenerateTable("D", 50, 4, 3);
  EXPECT_EQ(t.NumRows(), 50u);
  EXPECT_EQ(t.schema().Names(),
            (std::vector<std::string>{"k", "y", "x0", "x1", "x2", "x3"}));
  // Label is correlated with features (R^2 sanity: variance of y > noise).
  auto m = t.ToMatrix({1}).ValueOrDie();
  double mean = m.Sum() / 50.0;
  double var = 0.0;
  for (size_t i = 0; i < 50; ++i) {
    var += (m.At(i, 0) - mean) * (m.At(i, 0) - mean);
  }
  EXPECT_GT(var / 50.0, 0.05);
}

}  // namespace
}  // namespace rel
}  // namespace amalur
