#include "integration/schema_matching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "testing/generator.h"
#include "testing/running_example.h"

namespace amalur {
namespace integration {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Every score `MatchSchemas` reports is its pair's `ScoreColumnPair`, bit
/// for bit, whether or not the row samples are drawn.
void ExpectScoresMatchPairScores(const rel::Table& left,
                                 const rel::Table& right) {
  for (size_t sample_size : {size_t{2}, size_t{50}, size_t{200}}) {
    SchemaMatcherOptions options;
    options.sample_size = sample_size;
    options.threshold = 0.0;
    const std::vector<ColumnMatch> matches = MatchSchemas(left, right, options);
    EXPECT_EQ(matches.size(), std::min(left.NumColumns(), right.NumColumns()));
    for (const ColumnMatch& m : matches) {
      EXPECT_EQ(Bits(m.score),
                Bits(ScoreColumnPair(left.column(m.left_column),
                                     right.column(m.right_column), options)))
          << left.column(m.left_column).name() << " vs "
          << right.column(m.right_column).name() << " at sample size "
          << sample_size;
    }
  }
}

TEST(SchemaMatchingTest, RunningExampleFindsSharedColumns) {
  RunningExample ex = MakeRunningExample();
  auto matches = MatchSchemas(ex.s1, ex.s2);
  // Expected: m<->m, n<->n, a<->a. hr/o/dd must not match anything.
  ASSERT_GE(matches.size(), 3u);
  bool found_m = false, found_n = false, found_a = false;
  for (const ColumnMatch& m : matches) {
    const std::string left = ex.s1.column(m.left_column).name();
    const std::string right = ex.s2.column(m.right_column).name();
    if (left == "m" && right == "m") found_m = true;
    if (left == "n" && right == "n") found_n = true;
    if (left == "a" && right == "a") found_a = true;
    EXPECT_NE(left + right, "hro") << "hr must not match o";
  }
  EXPECT_TRUE(found_m);
  EXPECT_TRUE(found_n);
  EXPECT_TRUE(found_a);
  ExpectScoresMatchPairScores(ex.s1, ex.s2);
}

TEST(SchemaMatchingTest, IdenticalColumnsScoreHigh) {
  rel::Column a = rel::Column::FromDoubles("age", {20, 35, 22, 37});
  rel::Column b = rel::Column::FromDoubles("age", {45, 20, 37});
  EXPECT_GT(ScoreColumnPair(a, b, {}), 0.8);
}

TEST(SchemaMatchingTest, StringVsNumericNeverMatches) {
  rel::Column a = rel::Column::FromStrings("x", {"1", "2"});
  rel::Column b = rel::Column::FromDoubles("x", {1, 2});
  EXPECT_DOUBLE_EQ(ScoreColumnPair(a, b, {}), 0.0);
}

TEST(SchemaMatchingTest, AbbreviationHeuristic) {
  // "restingHR" vs "resting heart rate"-style containment.
  rel::Column a = rel::Column::FromDoubles("restingHR", {60, 58, 65});
  rel::Column b = rel::Column::FromDoubles("resting", {61, 57, 64});
  SchemaMatcherOptions options;
  EXPECT_GT(ScoreColumnPair(a, b, options), options.threshold);
}

TEST(SchemaMatchingTest, OneLetterLabelIsNotContainedInLongerNames) {
  // A Gaussian label `y` against a Gaussian feature whose name holds a `y`:
  // containment of a one-letter name is no evidence of a match.
  Rng rng(9);
  std::vector<double> label(200), feature(200);
  for (size_t i = 0; i < label.size(); ++i) {
    label[i] = rng.NextGaussian();
    feature[i] = rng.NextGaussian();
  }
  rel::Column y = rel::Column::FromDoubles("y", label);
  rel::Column loyalty = rel::Column::FromDoubles("loyalty_09", feature);
  SchemaMatcherOptions options;
  EXPECT_LT(ScoreColumnPair(y, loyalty, options), options.threshold);
}

TEST(SchemaMatchingTest, DisjointRangesLowerInstanceScore) {
  rel::Column age = rel::Column::FromDoubles("v1", {20, 35, 22, 37, 28});
  rel::Column oxygen = rel::Column::FromDoubles("v2", {95, 97, 92, 96, 94});
  rel::Column age2 = rel::Column::FromDoubles("v3", {25, 31, 24, 33, 29});
  SchemaMatcherOptions options;
  const double cross = ScoreColumnPair(age, oxygen, options);
  const double same = ScoreColumnPair(age, age2, options);
  EXPECT_GT(same, cross);
}

TEST(SchemaMatchingTest, MatchingIsOneToOne) {
  RunningExample ex = MakeRunningExample();
  auto matches = MatchSchemas(ex.s1, ex.s2);
  std::set<size_t> left_seen, right_seen;
  for (const ColumnMatch& m : matches) {
    EXPECT_TRUE(left_seen.insert(m.left_column).second);
    EXPECT_TRUE(right_seen.insert(m.right_column).second);
  }
}

TEST(SchemaMatchingTest, GeneratedSilosSharedColumnsRecovered) {
  rel::SiloPairSpec spec;
  spec.base_rows = 200;
  spec.other_rows = 100;
  spec.base_features = 2;
  spec.other_features = 2;
  spec.shared_features = 2;
  spec.seed = 11;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto matches = MatchSchemas(pair.base, pair.other);
  // Shared columns s0, s1 and the key k must be matched by name+instances.
  size_t shared_found = 0;
  for (const ColumnMatch& m : matches) {
    const std::string left = pair.base.column(m.left_column).name();
    const std::string right = pair.other.column(m.right_column).name();
    if (left == right && (left == "s0" || left == "s1" || left == "k")) {
      ++shared_found;
    }
  }
  EXPECT_EQ(shared_found, 3u);
  ExpectScoresMatchPairScores(pair.base, pair.other);
}

TEST(SchemaMatchingTest, ThresholdFiltersWeakPairs) {
  RunningExample ex = MakeRunningExample();
  SchemaMatcherOptions strict;
  strict.threshold = 0.99;
  auto matches = MatchSchemas(ex.s1, ex.s2, strict);
  for (const ColumnMatch& m : matches) EXPECT_GE(m.score, 0.99);
}

}  // namespace
}  // namespace integration
}  // namespace amalur
