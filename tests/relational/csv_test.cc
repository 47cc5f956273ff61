#include "relational/csv.h"

#include <gtest/gtest.h>

#include <sstream>

namespace amalur {
namespace rel {
namespace {

TEST(CsvTest, ParsesTypedColumnsWithHeader) {
  std::istringstream input(
      "m,n,a,hr\n"
      "0,Jack,20,60.5\n"
      "1,Sam,35,58\n");
  auto table = ReadCsv(input, "S1");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->NumRows(), 2u);
  EXPECT_EQ(table->column(0).type(), DataType::kInt64);
  EXPECT_EQ(table->column(1).type(), DataType::kString);
  EXPECT_EQ(table->column(2).type(), DataType::kInt64);
  EXPECT_EQ(table->column(3).type(), DataType::kDouble);  // 60.5 promotes
  EXPECT_DOUBLE_EQ(table->column(3).GetDouble(1), 58.0);
}

TEST(CsvTest, EmptyFieldsBecomeNull) {
  std::istringstream input(
      "a,o\n"
      "1,95\n"
      "2,\n");
  auto table = ReadCsv(input, "t");
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->column(1).IsNull(0));
  EXPECT_TRUE(table->column(1).IsNull(1));
}

TEST(CsvTest, StrayStringDemotesWholeColumn) {
  std::istringstream input(
      "v\n"
      "1\n"
      "x\n"
      "3\n");
  auto table = ReadCsv(input, "t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).type(), DataType::kString);
  EXPECT_EQ(table->column(0).GetValue(0).str(), "1");
}

TEST(CsvTest, RaggedRowRejected) {
  std::istringstream input("a,b\n1\n");
  EXPECT_TRUE(ReadCsv(input, "t").status().IsInvalidArgument());
}

TEST(CsvTest, EmptyInputRejected) {
  std::istringstream input("");
  EXPECT_TRUE(ReadCsv(input, "t").status().IsInvalidArgument());
}

TEST(CsvTest, CrlfLineEndingsHandled) {
  std::istringstream input("a\r\n1\r\n2\r\n");
  auto table = ReadCsv(input, "t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 2u);
  EXPECT_EQ(table->column(0).type(), DataType::kInt64);
}

TEST(CsvTest, RoundTripPreservesValuesAndNulls) {
  Table t("roundtrip");
  AMALUR_CHECK_OK(t.AddColumn(Column::FromInt64s("k", {1, 2, 3})));
  Column o("o", DataType::kDouble);
  o.AppendDouble(95.25);
  o.AppendNull();
  o.AppendDouble(-7.5);
  AMALUR_CHECK_OK(t.AddColumn(std::move(o)));
  AMALUR_CHECK_OK(
      t.AddColumn(Column::FromStrings("n", {"Rose", "Castiel", "Jane"})));

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, "roundtrip");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 3u);
  EXPECT_EQ(back->column(0).GetValue(2).int64(), 3);
  EXPECT_TRUE(back->column(1).IsNull(1));
  EXPECT_DOUBLE_EQ(back->column(1).GetDouble(0), 95.25);
  EXPECT_EQ(back->column(2).GetValue(2).str(), "Jane");
}

TEST(CsvTest, FileRoundTrip) {
  Table t("file_rt");
  AMALUR_CHECK_OK(t.AddColumn(Column::FromDoubles("x", {1.5, 2.5})));
  const std::string path = ::testing::TempDir() + "/amalur_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "amalur_csv_test");
  EXPECT_DOUBLE_EQ(back->column(0).GetDouble(1), 2.5);
  EXPECT_TRUE(ReadCsvFile("/nonexistent/nope.csv").status().IsIOError());
}

}  // namespace
}  // namespace rel
}  // namespace amalur
