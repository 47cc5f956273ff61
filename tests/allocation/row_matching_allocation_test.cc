#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "counting_allocator.h"
#include "integration/entity_resolution.h"
#include "relational/join.h"
#include "relational/table.h"

/// Row matching and deduplication hash typed cells into one flat row index,
/// so the blocks they request do not grow with the rows: a matching's
/// buffers are sized once per side, and a duplicate count's are a fixed
/// handful per call.

namespace amalur {
namespace {

using allocation::CountAllocations;
using allocation::Counts;

/// `rows` rows cycling through `keys` distinct ones: an int64 key and a
/// double feature.
rel::Table KeyedTable(const std::string& name, size_t rows, size_t keys) {
  std::vector<int64_t> key(rows);
  std::vector<double> feature(rows);
  for (size_t i = 0; i < rows; ++i) {
    key[i] = static_cast<int64_t>(i % keys);
    feature[i] = static_cast<double>(i % keys) * 0.5;
  }
  rel::Table table(name);
  AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s("k", key)));
  AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromDoubles("x", feature)));
  return table;
}

TEST(RowMatchingAllocationTest, MatchingAllocatesNoBlockPerRow) {
  const rel::Table fact = KeyedTable("fact", 16000, 1000);
  const rel::Table dimension = KeyedTable("dimension", 1000, 1000);
  size_t pairs = 0;
  const Counts counts = CountAllocations([&] {
    auto matching = rel::MatchRowsOnKeys(fact, dimension, {"k"}, {"k"});
    ASSERT_TRUE(matching.ok()) << matching.status();
    pairs = matching->matched.size();
  });
  EXPECT_EQ(pairs, 16000u);
  EXPECT_LT(counts.blocks, 64u);
}

TEST(RowMatchingAllocationTest, DuplicateRatioAllocatesAlikeAtAnySize) {
  // Half the rows repeat an earlier one, so the distinct rows grow with
  // the table too.
  const rel::Table small = KeyedTable("small", 1000, 500);
  const rel::Table large = KeyedTable("large", 16000, 8000);
  const std::vector<size_t> columns = {0, 1};
  double small_ratio = 0.0;
  double large_ratio = 0.0;
  const Counts small_counts = CountAllocations(
      [&] { small_ratio = integration::DuplicateRatio(small, columns); });
  const Counts large_counts = CountAllocations(
      [&] { large_ratio = integration::DuplicateRatio(large, columns); });
  EXPECT_DOUBLE_EQ(small_ratio, 0.5);
  EXPECT_DOUBLE_EQ(large_ratio, 0.5);
  EXPECT_EQ(small_counts.blocks, large_counts.blocks);
}

}  // namespace
}  // namespace amalur
