#include "relational/csv.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

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

TEST(CsvTest, RoundTripQuotesCommasQuotesLineBreaksAndEdgeBlanks) {
  const std::vector<std::string> names = {
      "p,1\nq", ",", " padded ", "a\"b", "\r\n", "", "plain"};
  Table t("quoted");
  AMALUR_CHECK_OK(t.AddColumn(Column::FromStrings("name, \"full\"", names)));
  AMALUR_CHECK_OK(
      t.AddColumn(Column::FromInt64s("x", {1, 2, 3, 4, 5, 6, 7})));

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, "quoted");
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << out.str();
  EXPECT_EQ(back->schema().Names(), t.schema().Names());
  ASSERT_EQ(back->NumRows(), names.size());
  ASSERT_EQ(back->column(0).type(), DataType::kString);
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(back->column(0).IsNull(i)) << i;
    EXPECT_EQ(back->column(0).GetValue(i).str(), names[i]) << i;
    EXPECT_EQ(back->column(1).GetValue(i).int64(), static_cast<int64_t>(i + 1));
  }
}

TEST(CsvTest, MalformedQuotingRejectedNamingTheLine) {
  for (const auto& [text, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"a,b\n0,1\n\"1,2\n",
            "unterminated quoted field starting at line 3"},
           {"a\n\"x\ny\"z\n", "text after a closing quote at line 3"}}) {
    std::istringstream input(text);
    auto table = ReadCsv(input, "t");
    ASSERT_FALSE(table.ok()) << text;
    EXPECT_TRUE(table.status().IsInvalidArgument()) << table.status();
    EXPECT_NE(table.status().message().find(message), std::string::npos)
        << table.status();
  }
}

TEST(CsvTest, MutatedInputReturnsAStatusOrATableThatRoundTrips) {
  // Random edits of valid files: every read ends in a Status or a table,
  // and every table comes back from WriteCsv -> ReadCsv with the same
  // names, rows and rendered cells.
  const std::vector<std::string> seeds = {
      "id,name,score,w\n1,Rose,95.25,-0.0\n2,Castiel,,2\n3,Jane,-7.5,\n",
      "k,\"note, quoted\",v\r\n1,\"say \"\"hi\"\"\",2\r\n"
      "2,\"two\nlines\",\r\n3,,4e3\r\n",
      "only\nx\n\n\"\"\ny\n \n",
      "a,b,c\n-0,0x1F,nan\n\" sp \",inf,1e999\n007,+5,-\n"};
  const std::string alphabet = ",\"\n\rab";
  Rng rng(20260);
  size_t tables = 0;
  size_t errors = 0;
  for (size_t round = 0; round < 400; ++round) {
    std::string text = seeds[rng.NextUint64(seeds.size())];
    const size_t edits = 1 + rng.NextUint64(3);
    for (size_t e = 0; e < edits; ++e) {
      const char c = alphabet[rng.NextUint64(alphabet.size())];
      const uint64_t op = rng.NextUint64(3);
      if (op == 0 || text.empty()) {
        text.insert(text.begin() + rng.NextUint64(text.size() + 1), c);
      } else if (op == 1) {
        text.erase(rng.NextUint64(text.size()), 1);
      } else {
        text[rng.NextUint64(text.size())] = c;
      }
    }
    std::istringstream input(text);
    auto first = ReadCsv(input, "t");
    if (!first.ok()) {
      ++errors;
      continue;
    }
    ++tables;
    std::ostringstream out;
    ASSERT_TRUE(WriteCsv(*first, out).ok());
    std::istringstream in(out.str());
    auto second = ReadCsv(in, "t");
    ASSERT_TRUE(second.ok()) << second.status() << " reading back\n"
                             << out.str() << "\nwritten from\n" << text;
    ASSERT_EQ(second->schema().Names(), first->schema().Names()) << text;
    ASSERT_EQ(second->NumRows(), first->NumRows()) << text;
    for (size_t j = 0; j < first->NumColumns(); ++j) {
      for (size_t i = 0; i < first->NumRows(); ++i) {
        EXPECT_EQ(second->column(j).GetValue(i).ToString(),
                  first->column(j).GetValue(i).ToString())
            << "cell (" << i << ", " << j << ") of\n" << text;
      }
    }
  }
  // Both outcomes occur, so the loop exercises the reader's error paths
  // and the writer's quoting.
  EXPECT_GT(tables, 50u);
  EXPECT_GT(errors, 20u);
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
