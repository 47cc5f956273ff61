#include "relational/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace amalur {
namespace rel {
namespace {

// The paper's running example (Figure 2), keyed on patient name.
Table MakeS1() {
  Table t("S1");
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("m", {0, 1, 2, 3})));
  AMALUR_CHECK_OK(
      t.AddColumn(Column::FromStrings("n", {"Jack", "Sam", "Ruby", "Jane"})));
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("a", {20, 35, 22, 37})));
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("hr", {60, 58, 65, 70})));
  return t;
}

Table MakeS2() {
  Table t("S2");
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("m", {0, 1, 2})));
  AMALUR_CHECK_OK(
      t.AddColumn(Column::FromStrings("n", {"Rose", "Castiel", "Jane"})));
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("a", {45, 20, 37})));
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("o", {95, 97, 92})));
  AMALUR_CHECK_OK(t.AddColumn(
      Column::FromStrings("dd", {"1/4/21", "3/8/22", "11/5/21"})));
  return t;
}

TEST(MatchRowsTest, RunningExampleMatchesJaneOnly) {
  auto matching = MatchRowsOnKeys(MakeS1(), MakeS2(), {"n", "a"}, {"n", "a"});
  ASSERT_TRUE(matching.ok());
  ASSERT_EQ(matching->matched.size(), 1u);
  EXPECT_EQ(matching->matched[0], (std::pair<size_t, size_t>{3, 2}));
  EXPECT_EQ(matching->left_only, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(matching->right_only, (std::vector<size_t>{0, 1}));
}

TEST(MatchRowsTest, NullKeysNeverMatch) {
  Table l("L");
  Column lk("k", DataType::kInt64);
  lk.AppendInt64(1);
  lk.AppendNull();
  AMALUR_CHECK_OK(l.AddColumn(std::move(lk)));
  Table r("R");
  Column rk("k", DataType::kInt64);
  rk.AppendNull();
  rk.AppendInt64(1);
  AMALUR_CHECK_OK(r.AddColumn(std::move(rk)));
  auto matching = MatchRowsOnKeys(l, r, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  ASSERT_EQ(matching->matched.size(), 1u);
  EXPECT_EQ(matching->matched[0], (std::pair<size_t, size_t>{0, 1}));
  EXPECT_EQ(matching->left_only, (std::vector<size_t>{1}));
  EXPECT_EQ(matching->right_only, (std::vector<size_t>{0}));
}

TEST(MatchRowsTest, DuplicateKeysCrossProduct) {
  Table l("L");
  AMALUR_CHECK_OK(l.AddColumn(Column::FromInt64s("k", {7, 7})));
  Table r("R");
  AMALUR_CHECK_OK(r.AddColumn(Column::FromInt64s("k", {7, 7, 8})));
  auto matching = MatchRowsOnKeys(l, r, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->matched.size(), 4u);  // 2 x 2
  EXPECT_EQ(matching->right_only, (std::vector<size_t>{2}));
}

TEST(MatchRowsTest, CompositeKeySeparatorIsUnambiguous) {
  // "a"+"bc" must not equal "ab"+"c".
  Table l("L");
  AMALUR_CHECK_OK(l.AddColumn(Column::FromStrings("p", {"a"})));
  AMALUR_CHECK_OK(l.AddColumn(Column::FromStrings("q", {"bc"})));
  Table r("R");
  AMALUR_CHECK_OK(r.AddColumn(Column::FromStrings("p", {"ab"})));
  AMALUR_CHECK_OK(r.AddColumn(Column::FromStrings("q", {"c"})));
  auto matching = MatchRowsOnKeys(l, r, {"p", "q"}, {"p", "q"});
  ASSERT_TRUE(matching.ok());
  EXPECT_TRUE(matching->matched.empty());
}

TEST(MatchRowsTest, SeparatorBytesInsideCellsCannotForgeAKey) {
  // Renderings joined with a separator byte would make ("x\x1f", "") and
  // ("x", "\x1f") one key; composite keys must keep them apart.
  Table l("L");
  AMALUR_CHECK_OK(l.AddColumn(Column::FromStrings("p", {"x\x1f", "y"})));
  AMALUR_CHECK_OK(l.AddColumn(Column::FromStrings("q", {"", "z"})));
  Table r("R");
  AMALUR_CHECK_OK(r.AddColumn(Column::FromStrings("p", {"x", "y"})));
  AMALUR_CHECK_OK(r.AddColumn(Column::FromStrings("q", {"\x1f", "z"})));
  auto matching = MatchRowsOnKeys(l, r, {"p", "q"}, {"p", "q"});
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->matched,
            (std::vector<std::pair<size_t, size_t>>{{1, 1}}));
  EXPECT_EQ(matching->left_only, (std::vector<size_t>{0}));
  EXPECT_EQ(matching->right_only, (std::vector<size_t>{0}));
}

TEST(MatchRowsTest, KeysStillCompareByRendering) {
  // An int64 1 and a double 1.0 both render as "1" and keep matching across
  // differently typed key columns; a NULL in any key column still never
  // matches, not even another NULL.
  Table l("L");
  Column lk("k", DataType::kInt64);
  lk.AppendInt64(1);
  lk.AppendNull();
  lk.AppendInt64(2);
  AMALUR_CHECK_OK(l.AddColumn(std::move(lk)));
  AMALUR_CHECK_OK(l.AddColumn(Column::FromStrings("s", {"a", "b", "c"})));
  Table r("R");
  Column rk("k", DataType::kDouble);
  rk.AppendDouble(1.0);
  rk.AppendNull();
  rk.AppendDouble(2.5);
  AMALUR_CHECK_OK(r.AddColumn(std::move(rk)));
  AMALUR_CHECK_OK(r.AddColumn(Column::FromStrings("s", {"a", "b", "c"})));
  auto matching = MatchRowsOnKeys(l, r, {"k", "s"}, {"k", "s"});
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->matched,
            (std::vector<std::pair<size_t, size_t>>{{0, 0}}));
  EXPECT_EQ(matching->left_only, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(matching->right_only, (std::vector<size_t>{1, 2}));
}

/// `MatchRowsOnKeys` as it was defined before keys were typed: each key cell
/// rendered through `Value::ToString()`, a composite key as each rendering
/// behind its byte length, NULL never matching, and the right rows indexed
/// by the rendered key.
RowMatching RenderedReference(const Table& left, const Table& right,
                              const std::vector<size_t>& left_cols,
                              const std::vector<size_t>& right_cols) {
  const auto row_key = [](const Table& table, const std::vector<size_t>& cols,
                          size_t row) -> std::optional<std::string> {
    std::string key;
    for (size_t c : cols) {
      const Value v = table.column(c).GetValue(row);
      if (v.is_null()) return std::nullopt;
      std::string cell = v.ToString();
      if (cols.size() == 1) return cell;
      const size_t length = cell.size();
      char prefix[sizeof(length)];
      std::memcpy(prefix, &length, sizeof(length));
      key.append(prefix, sizeof(prefix));
      key += cell;
    }
    return key;
  };
  std::map<std::string, std::vector<size_t>> right_index;
  for (size_t r = 0; r < right.NumRows(); ++r) {
    auto key = row_key(right, right_cols, r);
    if (key.has_value()) right_index[*key].push_back(r);
  }
  RowMatching matching;
  std::vector<uint8_t> right_hit(right.NumRows(), 0);
  for (size_t l = 0; l < left.NumRows(); ++l) {
    auto key = row_key(left, left_cols, l);
    auto it = key.has_value() ? right_index.find(*key) : right_index.end();
    if (it == right_index.end()) {
      matching.left_only.push_back(l);
      continue;
    }
    for (size_t r : it->second) {
      matching.matched.emplace_back(l, r);
      right_hit[r] = 1;
    }
  }
  for (size_t r = 0; r < right.NumRows(); ++r) {
    if (!right_hit[r]) matching.right_only.push_back(r);
  }
  return matching;
}

/// A random key column of `type` whose cells come from small pools that
/// meet at the rendering rule's edges: NULLs, zeros of both signs, NaNs of
/// both signs, ±inf, subnormals, integral doubles at and around 2^53 and
/// ±1e17, the int64 extremes, and strings that look like numbers.
Column RandomKeyColumn(const std::string& name, DataType type, size_t rows,
                       Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double two53 = 9007199254740992.0;
  static const int64_t kInts[] = {
      0, 1, -1, 2, 7, 12345,
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      9007199254740992, 9007199254740993, 9007199254740991,
      99999999999999984, 99999999999999999, 100000000000000000,
      -100000000000000000, -99999999999999984};
  const double kDoubles[] = {
      0.0, -0.0, nan, -nan, inf, -inf,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1.0, -1.0, 2.0, 2.5, 7.0, 12345.0, 0.1,
      two53, two53 + 2.0, two53 - 1.0, 1e16,
      1e17, std::nextafter(1e17, 0.0), std::nextafter(1e17, inf),
      -1e17, std::nextafter(-1e17, 0.0),
      9223372036854775808.0, -9223372036854775808.0};
  static const char* const kStrings[] = {
      "1", "01", "-0", "0", "-1", "2", "1.0", "2.5", "7", "12345", "0.1",
      "0.10000000000000001", "1e+17", "1e17", "100000000000000000",
      "99999999999999984", "9007199254740993", "9007199254740992",
      "nan", "-nan", "inf", "-inf", "4.9406564584124654e-324",
      "9223372036854775807", "-9223372036854775808", "9223372036854775808",
      "1e+16", "10000000000000000", "abc", "", " 1"};
  Column column(name, type);
  for (size_t i = 0; i < rows; ++i) {
    if (rng->NextUint64(8) == 0) {
      column.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kInt64:
        column.AppendInt64(kInts[rng->NextUint64(std::size(kInts))]);
        break;
      case DataType::kDouble:
        column.AppendDouble(kDoubles[rng->NextUint64(std::size(kDoubles))]);
        break;
      case DataType::kString:
        column.AppendString(kStrings[rng->NextUint64(std::size(kStrings))]);
        break;
    }
  }
  return column;
}

TEST(MatchRowsTest, TypedKeysMatchRenderedKeysOnRandomTables) {
  const DataType kTypes[] = {DataType::kInt64, DataType::kDouble,
                             DataType::kString};
  Rng rng(2525);
  size_t pairs = 0;
  size_t cross_type_pairs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t width = 1 + rng.NextUint64(2);
    const size_t left_rows = 1 + rng.NextUint64(30);
    const size_t right_rows = 1 + rng.NextUint64(30);
    Table left("L"), right("R");
    std::vector<std::string> names;
    std::vector<size_t> cols;
    bool cross_type = false;
    for (size_t c = 0; c < width; ++c) {
      names.push_back("k" + std::to_string(c));
      cols.push_back(c);
      const DataType left_type = kTypes[rng.NextUint64(3)];
      const DataType right_type = kTypes[rng.NextUint64(3)];
      cross_type |= left_type != right_type;
      AMALUR_CHECK_OK(left.AddColumn(
          RandomKeyColumn(names.back(), left_type, left_rows, &rng)));
      AMALUR_CHECK_OK(right.AddColumn(
          RandomKeyColumn(names.back(), right_type, right_rows, &rng)));
    }
    auto matching = MatchRowsOnKeys(left, right, names, names);
    ASSERT_TRUE(matching.ok()) << matching.status();
    const RowMatching expected = RenderedReference(left, right, cols, cols);
    ASSERT_EQ(matching->matched, expected.matched) << "trial " << trial;
    ASSERT_EQ(matching->left_only, expected.left_only) << "trial " << trial;
    ASSERT_EQ(matching->right_only, expected.right_only) << "trial " << trial;
    pairs += expected.matched.size();
    cross_type_pairs += cross_type ? expected.matched.size() : 0;
  }
  EXPECT_GT(pairs, 5000u);  // the comparison is not vacuous
  EXPECT_GT(cross_type_pairs, 1000u);
}

TEST(MatchRowsTest, RejectsBadKeyLists) {
  EXPECT_TRUE(MatchRowsOnKeys(MakeS1(), MakeS2(), {}, {}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MatchRowsOnKeys(MakeS1(), MakeS2(), {"n"}, {"n", "a"}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MatchRowsOnKeys(MakeS1(), MakeS2(), {"zz"}, {"n"}).status().IsNotFound());
}

TEST(HashJoinTest, InnerJoinRunningExample) {
  auto joined =
      HashJoin(MakeS1(), MakeS2(), {"n", "a"}, {"n", "a"}, JoinKind::kInnerJoin);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->table.NumRows(), 1u);
  // Columns: m n a hr | m_S2 o dd
  EXPECT_EQ(joined->table.schema().Names(),
            (std::vector<std::string>{"m", "n", "a", "hr", "m_S2", "o", "dd"}));
  EXPECT_EQ(joined->table.column(1).GetValue(0).str(), "Jane");
  EXPECT_EQ(joined->table.column(5).GetValue(0).int64(), 92);
  EXPECT_EQ(joined->left_rows, (std::vector<size_t>{3}));
  EXPECT_EQ(joined->right_rows, (std::vector<size_t>{2}));
}

TEST(HashJoinTest, LeftJoinPadsRightWithNulls) {
  auto joined =
      HashJoin(MakeS1(), MakeS2(), {"n", "a"}, {"n", "a"}, JoinKind::kLeftJoin);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->table.NumRows(), 4u);
  // Row 0 is the matched Jane row; others are left-only with NULL o.
  auto o = joined->table.ColumnByName("o");
  ASSERT_TRUE(o.ok());
  size_t nulls = 0;
  for (size_t i = 0; i < 4; ++i) nulls += (*o)->IsNull(i) ? 1 : 0;
  EXPECT_EQ(nulls, 3u);
}

TEST(HashJoinTest, FullOuterJoinKeepsEverything) {
  auto joined = HashJoin(MakeS1(), MakeS2(), {"n", "a"}, {"n", "a"},
                         JoinKind::kFullOuterJoin);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->table.NumRows(), 6u);  // 1 matched + 3 left + 2 right
  size_t left_nulls = 0;
  for (size_t i = 0; i < 6; ++i) {
    left_nulls += joined->left_rows[i] == Column::kNullRow ? 1 : 0;
  }
  EXPECT_EQ(left_nulls, 2u);
}

TEST(HashJoinTest, UnionKindRejected) {
  EXPECT_TRUE(HashJoin(MakeS1(), MakeS2(), {"n"}, {"n"}, JoinKind::kUnion)
                  .status()
                  .IsInvalidArgument());
}

TEST(UnionAllTest, MapsColumnsAndPadsMissing) {
  // Target schema T(m, a, hr, o); S1 has no o, S2 has no hr and drops dd.
  Schema target({{"m", DataType::kInt64, true},
                 {"a", DataType::kInt64, true},
                 {"hr", DataType::kInt64, true},
                 {"o", DataType::kInt64, true}});
  Table s1 = MakeS1();  // m n a hr
  Table s2 = MakeS2();  // m n a o dd
  auto unioned = UnionAll(s1, s2, target,
                          {0, Column::kNullRow, 1, 2},
                          {0, Column::kNullRow, 1, 3, Column::kNullRow});
  ASSERT_TRUE(unioned.ok()) << unioned.status();
  EXPECT_EQ(unioned->table.NumRows(), 7u);
  EXPECT_EQ(unioned->table.NumColumns(), 4u);
  // First S1 block: hr present, o NULL.
  auto o = unioned->table.ColumnByName("o");
  ASSERT_TRUE(o.ok());
  EXPECT_TRUE((*o)->IsNull(0));
  EXPECT_EQ((*o)->GetValue(4).int64(), 95);
  // Provenance.
  EXPECT_EQ(unioned->left_rows[2], 2u);
  EXPECT_EQ(unioned->right_rows[2], Column::kNullRow);
  EXPECT_EQ(unioned->right_rows[4], 0u);
}

TEST(UnionAllTest, RejectsBadMappingSizes) {
  Schema target = Schema::AllDouble({"m"});
  EXPECT_TRUE(UnionAll(MakeS1(), MakeS2(), target, {0}, {0})
                  .status()
                  .IsInvalidArgument());
}

TEST(JoinKindTest, Names) {
  EXPECT_STREQ(JoinKindToString(JoinKind::kInnerJoin), "inner join");
  EXPECT_STREQ(JoinKindToString(JoinKind::kUnion), "union");
}

}  // namespace
}  // namespace rel
}  // namespace amalur
