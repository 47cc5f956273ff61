#include "relational/table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "relational/schema.h"
#include "testing/generator.h"

namespace amalur {
namespace rel {
namespace {

Table MakePatients() {
  Table t("S1");
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("m", {0, 1, 2, 3})));
  AMALUR_CHECK_OK(
      t.AddColumn(Column::FromStrings("n", {"Jack", "Sam", "Ruby", "Jane"})));
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("a", {20, 35, 22, 37})));
  AMALUR_CHECK_OK(t.AddColumn(Column::FromDoubles("hr", {60, 58, 65, 70})));
  return t;
}

TEST(ValueTest, TypesAndNull) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{4}).int64(), 4);
  EXPECT_DOUBLE_EQ(Value(2.5).dbl(), 2.5);
  EXPECT_EQ(Value("abc").str(), "abc");
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).AsDouble(), 4.0);
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
}

TEST(SchemaTest, LookupAndProject) {
  Schema s = Schema::AllDouble({"m", "a", "hr", "o"});
  EXPECT_EQ(s.num_fields(), 4u);
  EXPECT_EQ(s.IndexOf("hr").value(), 2u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
  Schema p = s.Project({0, 3});
  EXPECT_EQ(p.Names(), (std::vector<std::string>{"m", "o"}));
}

TEST(ColumnTest, NullHandling) {
  Column c("o", DataType::kDouble);
  c.AppendDouble(95);
  c.AppendNull();
  c.AppendDouble(97);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.NullCount(), 1u);
  EXPECT_DOUBLE_EQ(c.NullRatio(), 1.0 / 3.0);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_DOUBLE_EQ(c.GetDouble(1, -1.0), -1.0);
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, GatherWithNullRow) {
  Column c = Column::FromInt64s("a", {10, 20, 30});
  Column g = c.Gather({2, Column::kNullRow, 0, 0});
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.GetValue(0).int64(), 30);
  EXPECT_TRUE(g.GetValue(1).is_null());
  EXPECT_EQ(g.GetValue(2).int64(), 10);
  EXPECT_EQ(g.GetValue(3).int64(), 10);
}

TEST(ColumnTest, SetValueOverwrites) {
  Column c = Column::FromDoubles("hr", {60, 58});
  c.SetValue(1, Value::Null());
  EXPECT_TRUE(c.IsNull(1));
  c.SetValue(1, Value(72.0));
  EXPECT_DOUBLE_EQ(c.GetDouble(1), 72.0);
}

double NaNWithPayload(uint64_t payload, bool negative) {
  const uint64_t bits = 0x7FF0000000000000ULL | payload |
                        (negative ? 0x8000000000000000ULL : 0);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(ColumnTest, CellEqualityFollowsRenderings) {
  Column s("s", DataType::kString);
  s.AppendNull();
  s.AppendString("");
  s.AppendString("a");
  EXPECT_TRUE(s.CellsEqual(0, 1));  // NULL renders as ""
  EXPECT_EQ(s.CellHash(0), s.CellHash(1));
  EXPECT_FALSE(s.CellsEqual(1, 2));

  Column i("i", DataType::kInt64);
  i.AppendNull();
  i.AppendInt64(0);
  i.AppendNull();
  EXPECT_FALSE(i.CellsEqual(0, 1));
  EXPECT_TRUE(i.CellsEqual(0, 2));

  Column d = Column::FromDoubles(
      "d", {0.0, -0.0, NaNWithPayload(1, false), NaNWithPayload(77, false),
            NaNWithPayload(1, true), std::numeric_limits<double>::infinity()});
  EXPECT_FALSE(d.CellsEqual(0, 1));  // "0" vs "-0"
  EXPECT_TRUE(d.CellsEqual(2, 3));   // one NaN sign, any payload: "nan"
  EXPECT_EQ(d.CellHash(2), d.CellHash(3));
  EXPECT_FALSE(d.CellsEqual(2, 4));  // "nan" vs "-nan"
  EXPECT_FALSE(d.CellsEqual(5, 2));
}

TEST(ColumnTest, CellHashAndEqualityMatchRenderingsOnRandomColumns) {
  // Differential check against the definition: equal renderings <=> equal
  // cells, and equal cells => equal hashes.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (DataType type :
         {DataType::kInt64, DataType::kDouble, DataType::kString}) {
      const Column column = GenerateEdgeCaseColumn("c", type, 48, seed);
      for (size_t a = 0; a < column.size(); ++a) {
        const std::string rendered = column.GetValue(a).ToString();
        for (size_t b = 0; b < column.size(); ++b) {
          const bool equal = rendered == column.GetValue(b).ToString();
          ASSERT_EQ(column.CellsEqual(a, b), equal)
              << DataTypeToString(type) << " seed " << seed << " rows " << a
              << "/" << b << ": '" << rendered << "' vs '"
              << column.GetValue(b).ToString() << "'";
          if (equal) {
            ASSERT_EQ(column.CellHash(a), column.CellHash(b));
          }
        }
      }
    }
  }
}

TEST(TableTest, BasicShapeAndSchema) {
  Table t = MakePatients();
  EXPECT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.NumColumns(), 4u);
  EXPECT_EQ(t.schema().Names(), (std::vector<std::string>{"m", "n", "a", "hr"}));
  EXPECT_EQ(t.ColumnIndex("a").ValueOrDie(), 2u);
  EXPECT_TRUE(t.ColumnIndex("nope").status().IsNotFound());
}

TEST(TableTest, AddColumnValidation) {
  Table t = MakePatients();
  EXPECT_TRUE(t.AddColumn(Column::FromInt64s("m", {1, 2, 3, 4}))
                  .IsAlreadyExists());
  EXPECT_TRUE(t.AddColumn(Column::FromInt64s("w", {1, 2})).IsInvalidArgument());
  EXPECT_TRUE(t.AddColumn(Column::FromInt64s("w", {1, 2, 3, 4})).ok());
}

TEST(TableTest, AppendRowChecksArity) {
  Table t = MakePatients();
  EXPECT_TRUE(t.AppendRow({Value(int64_t{4})}).IsInvalidArgument());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{4}), Value("Rose"), Value(int64_t{45}),
                           Value::Null()})
                  .ok());
  EXPECT_EQ(t.NumRows(), 5u);
  EXPECT_TRUE(t.column(3).IsNull(4));
}

TEST(TableTest, ProjectAndGather) {
  Table t = MakePatients();
  Table p = t.Project({0, 2});
  EXPECT_EQ(p.schema().Names(), (std::vector<std::string>{"m", "a"}));
  Table g = t.GatherRows({3, 0});
  EXPECT_EQ(g.NumRows(), 2u);
  EXPECT_EQ(g.column(1).GetValue(0).str(), "Jane");

  auto named = t.ProjectNames({"hr", "m"});
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->schema().Names(), (std::vector<std::string>{"hr", "m"}));
  EXPECT_TRUE(t.ProjectNames({"zzz"}).status().IsNotFound());
}

TEST(TableTest, ToMatrixNumericWithNullSubstitute) {
  Table t("D");
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("m", {0, 1})));
  Column o("o", DataType::kDouble);
  o.AppendDouble(95);
  o.AppendNull();
  AMALUR_CHECK_OK(t.AddColumn(std::move(o)));
  auto m = t.ToMatrix();
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->ApproxEquals(la::DenseMatrix({{0, 95}, {1, 0}})));
  auto m2 = t.ToMatrix({1}, -9.0);
  ASSERT_TRUE(m2.ok());
  EXPECT_TRUE(m2->ApproxEquals(la::DenseMatrix({{95}, {-9}})));
}

TEST(TableTest, ToMatrixRejectsStrings) {
  Table t = MakePatients();
  EXPECT_TRUE(t.ToMatrix().status().IsInvalidArgument());
  EXPECT_TRUE(t.ToMatrix({0, 2, 3}).ok());
}

TEST(TableTest, MatrixRoundTrip) {
  la::DenseMatrix m({{1, 2}, {3, 4}, {5, 6}});
  Table t = Table::FromMatrix("D", m, {"a", "b"});
  EXPECT_EQ(t.NumRows(), 3u);
  auto back = t.ToMatrix();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ApproxEquals(m));
}

TEST(TableTest, NullRatio) {
  Table t("N");
  Column a("a", DataType::kDouble);
  a.AppendDouble(1);
  a.AppendNull();
  AMALUR_CHECK_OK(t.AddColumn(std::move(a)));
  Column b("b", DataType::kDouble);
  b.AppendNull();
  b.AppendNull();
  AMALUR_CHECK_OK(t.AddColumn(std::move(b)));
  EXPECT_DOUBLE_EQ(t.NullRatio({0, 1}), 0.75);
  EXPECT_DOUBLE_EQ(t.NullRatio({1}), 1.0);
  EXPECT_DOUBLE_EQ(t.NullRatio({}), 0.0);
}

}  // namespace
}  // namespace rel
}  // namespace amalur
