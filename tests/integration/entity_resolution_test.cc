#include "integration/entity_resolution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
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

// ---------------------------------------------------------------------------
// Differential reference: the unpruned definitions, scoring every candidate
// with `EditSimilarity` over boxed, lower-cased renderings.

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double ReferenceCellSimilarity(const rel::Column& a, size_t row_a,
                               const rel::Column& b, size_t row_b) {
  const bool null_a = a.IsNull(row_a);
  const bool null_b = b.IsNull(row_b);
  if (null_a && null_b) return 1.0;
  if (null_a || null_b) return 0.0;
  const bool str_a = a.type() == rel::DataType::kString;
  const bool str_b = b.type() == rel::DataType::kString;
  if (str_a != str_b) return 0.0;
  if (str_a) {
    return EditSimilarity(ToLower(a.GetValue(row_a).ToString()),
                          ToLower(b.GetValue(row_b).ToString()));
  }
  const double va = a.GetDouble(row_a);
  const double vb = b.GetDouble(row_b);
  if (va == vb) return 1.0;
  const double scale = std::fabs(va) + std::fabs(vb);
  return std::max(0.0, 1.0 - std::fabs(va - vb) / (scale > 0 ? scale : 1.0));
}

/// Every pair of rows with its exact score.
std::vector<EntityMatch> ReferenceScores(
    const rel::Table& left, const rel::Table& right,
    const std::vector<ColumnMatch>& matches) {
  std::vector<EntityMatch> all;
  for (size_t l = 0; l < left.NumRows(); ++l) {
    for (size_t r = 0; r < right.NumRows(); ++r) {
      double sum = 0.0;
      for (const ColumnMatch& m : matches) {
        sum += ReferenceCellSimilarity(left.column(m.left_column), l,
                                       right.column(m.right_column), r);
      }
      all.push_back({l, r, sum / static_cast<double>(matches.size())});
    }
  }
  return all;
}

/// The pairs of `all` that reach `threshold`, assigned greedily 1:1.
std::vector<EntityMatch> ReferencePairs(const std::vector<EntityMatch>& all,
                                        size_t left_rows, size_t right_rows,
                                        double threshold) {
  std::vector<EntityMatch> scored;
  for (const EntityMatch& m : all) {
    if (m.score >= threshold) scored.push_back(m);
  }
  std::sort(scored.begin(), scored.end(),
            [](const EntityMatch& a, const EntityMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.left_row != b.left_row) return a.left_row < b.left_row;
              return a.right_row < b.right_row;
            });
  std::vector<uint8_t> left_used(left_rows, 0);
  std::vector<uint8_t> right_used(right_rows, 0);
  std::vector<EntityMatch> accepted;
  for (const EntityMatch& m : scored) {
    if (left_used[m.left_row] || right_used[m.right_row]) continue;
    left_used[m.left_row] = 1;
    right_used[m.right_row] = 1;
    accepted.push_back(m);
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const EntityMatch& a, const EntityMatch& b) {
              return a.left_row < b.left_row;
            });
  return accepted;
}

/// Random names of `min_length` to `max_length` characters over a small
/// mixed-case alphabet, with NULL and "" cells among them. With `like`, two
/// in three rows are near copies of its row: up to three substitutions,
/// deletions or insertions, half of them at the first or last position.
rel::Column RandomNames(const std::string& name, size_t rows,
                        size_t min_length, size_t max_length, Rng* rng,
                        const rel::Column* like = nullptr) {
  const std::string alphabet = "abcdeABC ";
  rel::Column col(name, rel::DataType::kString);
  for (size_t r = 0; r < rows; ++r) {
    if (rng->NextUint64(10) == 0) {
      col.AppendNull();
      continue;
    }
    std::string s;
    if (like != nullptr && r < like->size() && !like->IsNull(r) &&
        rng->NextUint64(3) != 0) {
      s = like->string_data()[r];
      for (uint64_t edits = rng->NextUint64(4); edits > 0; --edits) {
        const uint64_t where = rng->NextUint64(4);
        const size_t at = where == 0   ? 0
                          : where == 1 ? s.size()
                                       : rng->NextUint64(s.size() + 1);
        const char c = alphabet[rng->NextUint64(alphabet.size())];
        const uint64_t op = at == s.size() ? 2 : rng->NextUint64(3);
        if (op == 0) {
          s[at] = c;
        } else if (op == 1) {
          s.erase(at, 1);
        } else {
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c);
        }
      }
    } else if (rng->NextUint64(10) != 0) {
      s.resize(min_length + rng->NextUint64(max_length - min_length + 1));
      for (char& c : s) c = alphabet[rng->NextUint64(alphabet.size())];
    }
    col.AppendString(std::move(s));
  }
  return col;
}

/// Small integers of both signs, or halves of them with signed zeros,
/// infinities, NaN and the smallest subnormals among them.
rel::Column RandomNumbers(const std::string& name, rel::DataType type,
                          size_t rows, Rng* rng) {
  const double kOdd[] = {-0.0, 5e-324, -5e-324, HUGE_VAL, -HUGE_VAL, NAN};
  rel::Column col(name, type);
  for (size_t r = 0; r < rows; ++r) {
    if (rng->NextUint64(8) == 0) {
      col.AppendNull();
    } else if (type == rel::DataType::kInt64) {
      col.AppendInt64(rng->NextInt64(-3, 3));
    } else if (rng->NextUint64(10) == 0) {
      col.AppendDouble(kOdd[rng->NextUint64(6)]);
    } else {
      col.AppendDouble(static_cast<double>(rng->NextInt64(-5, 5)) * 0.5);
    }
  }
  return col;
}

TEST(EntityResolutionTest, PrunedScoringMatchesExhaustiveReference) {
  // Columns: 0 name, 1 alias (strings), 2 double, 3 int64. The sets reach
  // the string filter (column floors above 0.65), the numeric filter
  // (floors in (0.45, 0.65] with a string pair, above 0.45 without one)
  // and the all-pairs path.
  const std::vector<std::vector<ColumnMatch>> column_sets = {
      {{0, 0, 1.0}},
      {{0, 0, 1.0}, {2, 2, 1.0}},
      {{2, 2, 1.0}, {0, 0, 1.0}},
      {{0, 0, 1.0}, {1, 1, 1.0}},
      {{0, 0, 1.0}, {3, 2, 1.0}, {1, 1, 1.0}},
      {{0, 1, 1.0}, {2, 3, 1.0}},
      {{3, 3, 1.0}, {0, 2, 1.0}, {1, 0, 1.0}},
      {{2, 2, 1.0}},
      {{3, 3, 1.0}},
      {{2, 3, 1.0}, {3, 2, 1.0}},
      {{0, 2, 1.0}},
  };
  Rng rng(4242);
  size_t accepted = 0;
  for (int trial = 0; trial < 80; ++trial) {
    // Odd trials use names of 10-25 characters, even ones of 0-12.
    const size_t min_length = trial % 2 == 1 ? 10 : 0;
    const size_t max_length = trial % 2 == 1 ? 25 : 12;
    const size_t rows = 1 + rng.NextUint64(40);
    rel::Table left("L");
    rel::Table right("R");
    for (const char* name : {"name", "alias"}) {
      AMALUR_CHECK_OK(left.AddColumn(
          RandomNames(name, rows, min_length, max_length, &rng)));
      AMALUR_CHECK_OK(right.AddColumn(
          RandomNames(name, rows, min_length, max_length, &rng,
                      &left.column(left.NumColumns() - 1))));
    }
    for (rel::Table* t : {&left, &right}) {
      AMALUR_CHECK_OK(t->AddColumn(
          RandomNumbers("x", rel::DataType::kDouble, rows, &rng)));
      AMALUR_CHECK_OK(t->AddColumn(
          RandomNumbers("k", rel::DataType::kInt64, rows, &rng)));
    }
    for (const std::vector<ColumnMatch>& matches : column_sets) {
      const std::vector<EntityMatch> all =
          ReferenceScores(left, right, matches);
      for (double threshold : {0.0, 0.3, 0.5, 0.6, 0.7, 0.85, 0.9, 1.0}) {
        const std::vector<EntityMatch> expected =
            ReferencePairs(all, rows, rows, threshold);
        for (bool use_blocking : {true, false}) {
          EntityResolverOptions options;
          options.threshold = threshold;
          options.use_blocking = use_blocking;
          auto pairs = ResolveEntityPairs(left, right, matches, options);
          ASSERT_TRUE(pairs.ok()) << pairs.status();
          ASSERT_EQ(pairs->size(), expected.size())
              << "trial " << trial << " threshold " << threshold;
          for (size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ((*pairs)[i].left_row, expected[i].left_row);
            ASSERT_EQ((*pairs)[i].right_row, expected[i].right_row);
            ASSERT_EQ(Bits((*pairs)[i].score), Bits(expected[i].score));
          }
        }
        accepted += expected.size();
      }
    }
  }
  EXPECT_GT(accepted, 1000u);  // the comparison is not vacuous
}

TEST(DeduplicateRowsTest, SeparatorInsideStringsIsNotADuplicate) {
  // ("x\x1f", "") and ("x", "\x1f") joined with a '\x1f' separator give
  // one key; as typed rows they differ.
  rel::Table t("D");
  AMALUR_CHECK_OK(t.AddColumn(rel::Column::FromStrings("a", {"x\x1f", "x"})));
  AMALUR_CHECK_OK(t.AddColumn(rel::Column::FromStrings("b", {"", "\x1f"})));
  EXPECT_EQ(DeduplicateRows(t, {0, 1}), (std::vector<size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(DuplicateRatio(t, {0, 1}), 0.0);
}

TEST(DeduplicateRowsTest, MatchesRenderedRowReferenceOnRandomTables) {
  // Reference: rows are duplicates when their per-cell renderings are equal
  // column by column; rows NULL in every key column are their own cluster.
  const rel::DataType kTypes[] = {rel::DataType::kInt64,
                                  rel::DataType::kDouble,
                                  rel::DataType::kString};
  Rng rng(77);
  size_t duplicates = 0;
  for (uint64_t trial = 0; trial < 1200; ++trial) {
    const size_t rows = 1 + rng.NextUint64(40);
    rel::Table table("T");
    std::vector<size_t> columns(1 + rng.NextUint64(4));
    for (size_t c = 0; c < columns.size(); ++c) {
      AMALUR_CHECK_OK(table.AddColumn(rel::GenerateEdgeCaseColumn(
          "c" + std::to_string(c), kTypes[rng.NextUint64(3)], rows,
          rng.NextUint64(1u << 30))));
      columns[c] = columns.size() - 1 - c;  // key order differs from storage
    }
    std::map<std::vector<std::string>, size_t> first_seen;
    std::vector<size_t> expected(rows);
    for (size_t row = 0; row < rows; ++row) {
      std::vector<std::string> key;
      bool all_null = true;
      for (size_t c : columns) {
        const rel::Value v = table.column(c).GetValue(row);
        all_null &= v.is_null();
        key.push_back(v.ToString());
      }
      expected[row] =
          all_null ? row : first_seen.try_emplace(key, row).first->second;
      duplicates += expected[row] != row ? 1 : 0;
    }
    ASSERT_EQ(DeduplicateRows(table, columns), expected) << "trial " << trial;
  }
  EXPECT_GT(duplicates, 1000u);  // the comparison is not vacuous
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
