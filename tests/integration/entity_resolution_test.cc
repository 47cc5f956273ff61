#include "integration/entity_resolution.h"

#include <gtest/gtest.h>

#include "integration/schema_matching.h"
#include "testing/generator.h"
#include "testing/running_example.h"

namespace amalur {
namespace integration {
namespace {

std::vector<ColumnMatch> RunningExampleColumnMatches() {
  // m<->m, n<->n, a<->a by schema position in S1/S2.
  return {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}};
}

TEST(EntityResolutionTest, RunningExampleFindsJane) {
  RunningExample ex = MakeRunningExample();
  EntityResolverOptions options;
  options.threshold = 0.9;
  auto matching =
      ResolveEntities(ex.s1, ex.s2, RunningExampleColumnMatches(), options);
  ASSERT_TRUE(matching.ok()) << matching.status();
  ASSERT_EQ(matching->matched.size(), 1u);
  EXPECT_EQ(matching->matched[0], (std::pair<size_t, size_t>{3, 2}));
  EXPECT_EQ(matching->left_only, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(matching->right_only, (std::vector<size_t>{0, 1}));
}

TEST(EntityResolutionTest, ScoredPairsCarrySimilarity) {
  RunningExample ex = MakeRunningExample();
  auto pairs = ResolveEntityPairs(ex.s1, ex.s2, RunningExampleColumnMatches());
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_DOUBLE_EQ((*pairs)[0].score, 1.0);  // Jane matches exactly
}

TEST(EntityResolutionTest, TypoToleratedBelowStrictThreshold) {
  // Same entity with a name typo: "Jane" vs "Jnae".
  rel::Table left("L");
  AMALUR_CHECK_OK(
      left.AddColumn(rel::Column::FromStrings("n", {"Jane", "Bob"})));
  AMALUR_CHECK_OK(left.AddColumn(rel::Column::FromInt64s("a", {37, 50})));
  rel::Table right("R");
  AMALUR_CHECK_OK(
      right.AddColumn(rel::Column::FromStrings("n", {"Jnae", "Alice"})));
  AMALUR_CHECK_OK(right.AddColumn(rel::Column::FromInt64s("a", {37, 28})));

  EntityResolverOptions tolerant;
  tolerant.threshold = 0.7;
  tolerant.use_blocking = false;  // the typo breaks first-char blocking? no —
                                  // J matches; disabled to test pure scoring
  auto matching = ResolveEntities(
      left, right, {{0, 0, 1.0}, {1, 1, 1.0}}, tolerant);
  ASSERT_TRUE(matching.ok());
  ASSERT_EQ(matching->matched.size(), 1u);
  EXPECT_EQ(matching->matched[0], (std::pair<size_t, size_t>{0, 0}));

  EntityResolverOptions strict;
  strict.threshold = 0.99;
  auto none = ResolveEntities(left, right, {{0, 0, 1.0}, {1, 1, 1.0}}, strict);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->matched.empty());
}

TEST(EntityResolutionTest, AssignmentIsOneToOne) {
  // Two identical left rows compete for one right row.
  rel::Table left("L");
  AMALUR_CHECK_OK(
      left.AddColumn(rel::Column::FromStrings("n", {"Jane", "Jane"})));
  rel::Table right("R");
  AMALUR_CHECK_OK(right.AddColumn(rel::Column::FromStrings("n", {"Jane"})));
  auto matching = ResolveEntities(left, right, {{0, 0, 1.0}});
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->matched.size(), 1u);
  EXPECT_EQ(matching->left_only.size(), 1u);
}

TEST(EntityResolutionTest, BlockingMatchesExhaustiveOnGeneratedData) {
  rel::SiloPairSpec spec;
  spec.base_rows = 120;
  spec.other_rows = 60;
  spec.row_overlap = 0.5;
  spec.match_fraction = 0.25;
  spec.shared_features = 2;
  spec.seed = 33;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  // Match on the key column (exact) — ER should recover key equality.
  auto key_left = pair.base.ColumnIndex("k").ValueOrDie();
  auto key_right = pair.other.ColumnIndex("k").ValueOrDie();
  std::vector<ColumnMatch> matches{{key_left, key_right, 1.0}};

  EntityResolverOptions blocked;
  blocked.use_blocking = true;
  EntityResolverOptions exhaustive;
  exhaustive.use_blocking = false;
  auto with_blocking = ResolveEntities(pair.base, pair.other, matches, blocked);
  auto without = ResolveEntities(pair.base, pair.other, matches, exhaustive);
  ASSERT_TRUE(with_blocking.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with_blocking->matched.size(), without->matched.size());
  // 25% of 120 base rows reference S2 keys; 1:1 assignment caps at 30.
  EXPECT_EQ(with_blocking->matched.size(), 30u);
}

TEST(EntityResolutionTest, NullCellsScoreZeroAgainstValues) {
  rel::Table left("L");
  rel::Column n_left("n", rel::DataType::kString);
  n_left.AppendString("Jane");
  n_left.AppendNull();
  AMALUR_CHECK_OK(left.AddColumn(std::move(n_left)));
  rel::Table right("R");
  AMALUR_CHECK_OK(right.AddColumn(rel::Column::FromStrings("n", {"Jane"})));
  auto matching = ResolveEntities(left, right, {{0, 0, 1.0}});
  ASSERT_TRUE(matching.ok());
  ASSERT_EQ(matching->matched.size(), 1u);
  EXPECT_EQ(matching->matched[0].first, 0u);
}

TEST(EntityResolutionTest, RejectsEmptyColumnMatches) {
  RunningExample ex = MakeRunningExample();
  EXPECT_TRUE(
      ResolveEntities(ex.s1, ex.s2, {}).status().IsInvalidArgument());
}

TEST(EntityResolutionTest, RejectsOutOfRangeColumns) {
  RunningExample ex = MakeRunningExample();
  EXPECT_TRUE(ResolveEntities(ex.s1, ex.s2, {{99, 0, 1.0}})
                  .status()
                  .IsOutOfRange());
}

TEST(DeduplicateRowsTest, ExactDuplicatesCluster) {
  rel::Table t("D");
  AMALUR_CHECK_OK(
      t.AddColumn(rel::Column::FromStrings("n", {"a", "b", "a", "a"})));
  AMALUR_CHECK_OK(t.AddColumn(rel::Column::FromInt64s("v", {1, 2, 1, 9})));
  auto clusters = DeduplicateRows(t, {0, 1});
  EXPECT_EQ(clusters, (std::vector<size_t>{0, 1, 0, 3}));
  EXPECT_DOUBLE_EQ(DuplicateRatio(t, {0, 1}), 0.25);
}

TEST(DeduplicateRowsTest, AllNullRowsAreNotDuplicates) {
  rel::Table t("D");
  rel::Column c("n", rel::DataType::kString);
  c.AppendNull();
  c.AppendNull();
  AMALUR_CHECK_OK(t.AddColumn(std::move(c)));
  auto clusters = DeduplicateRows(t, {0});
  EXPECT_EQ(clusters, (std::vector<size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(DuplicateRatio(t, {0}), 0.0);
}

TEST(DeduplicateRowsTest, GeneratorDuplicatesDetected) {
  rel::SiloPairSpec spec;
  spec.base_rows = 10;
  spec.other_rows = 100;
  spec.other_dup_rate = 0.3;
  spec.other_features = 2;
  spec.seed = 5;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  std::vector<size_t> all_columns(pair.other.NumColumns());
  for (size_t i = 0; i < all_columns.size(); ++i) all_columns[i] = i;
  EXPECT_NEAR(DuplicateRatio(pair.other, all_columns), 0.3 / 1.3, 0.02);
}

}  // namespace
}  // namespace integration
}  // namespace amalur
