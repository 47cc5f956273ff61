#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/amalur.h"
#include "counting_allocator.h"

/// What a repeated facade `Integrate` builds. A repeat of the last graph
/// hands back a copy of the remembered integration: it copies the handle's
/// column matches, mapping and row matchings (16 bytes per matched pair)
/// and shares the derived metadata. So it requests as many blocks at
/// 16,000 fact rows as at 1,000, and no block as large as the fact's D_0
/// (rows × features × 8 bytes), which a re-derivation builds through
/// `Table::ToMatrix`. The fact has four features and a label, as the
/// facade benchmark's star does.

namespace amalur {
namespace core {
namespace {

using allocation::CountAllocations;
using allocation::Counts;

rel::Table Dimension(const std::string& name, const std::string& key,
                     size_t rows, size_t features, Rng* rng) {
  rel::Table table(name);
  std::vector<int64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
  AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s(key, keys)));
  for (size_t f = 0; f < features; ++f) {
    std::vector<double> values(rows);
    for (double& v : values) v = rng->NextGaussian();
    AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromDoubles(
        name.substr(0, 3) + "_" + std::to_string(f), values)));
  }
  return table;
}

/// Registers a fact table of `fact_rows` rows referencing three keyed
/// dimensions that grow with it, in the facade benchmark's proportions,
/// and returns the spec that left-joins them. Every dimension row is
/// referenced and only the keys match, so the handle holds the same vectors
/// at every size.
IntegrationSpec RegisterStar(Amalur* amalur, size_t fact_rows) {
  Rng rng(2701);
  IntegrationSpec spec;
  spec.sources = {"sales"};
  spec.relationships = {rel::JoinKind::kLeftJoin};
  rel::Table fact("sales");
  for (const auto& [name, rows] :
       std::vector<std::pair<std::string, size_t>>{{"customers", fact_rows / 20},
                                                   {"products", fact_rows / 100},
                                                   {"stores", fact_rows / 250}}) {
    const std::string key = name + "_id";
    AMALUR_CHECK_OK(amalur->catalog()->RegisterSource(
        {name, Dimension(name, key, rows, 3, &rng), "", false}));
    std::vector<int64_t> refs(fact_rows);
    for (size_t i = 0; i < fact_rows; ++i) {
      refs[i] = static_cast<int64_t>(i < rows ? i : rng.NextUint64(rows));
    }
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s(key, refs)));
    spec.sources.push_back(name);
  }
  std::vector<double> label(fact_rows, 0.0);
  for (size_t f = 0; f < 4; ++f) {
    std::vector<double> values(fact_rows);
    for (size_t i = 0; i < fact_rows; ++i) {
      values[i] = rng.NextGaussian();
      label[i] += values[i];
    }
    AMALUR_CHECK_OK(fact.AddColumn(
        rel::Column::FromDoubles("x" + std::to_string(f), values)));
  }
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("revenue", label)));
  AMALUR_CHECK_OK(amalur->catalog()->RegisterSource({"sales", fact, "", false}));
  return spec;
}

struct Repeat {
  Counts counts;
  size_t d0_bytes = 0;
};

/// Integrates the star twice and counts what the second call requests.
Repeat CountRepeatedIntegrate(size_t fact_rows) {
  AmalurOptions options;
  options.matcher.threshold = 0.75;  // generic feature names match nothing
  Amalur amalur(options);
  const IntegrationSpec spec = RegisterStar(&amalur, fact_rows);
  auto first = amalur.Integrate(spec);
  AMALUR_CHECK(first.ok()) << first.status();
  Repeat repeat;
  repeat.d0_bytes = first->metadata.source(0).data.size() * sizeof(double);
  std::optional<Result<IntegrationHandle>> second;
  repeat.counts =
      CountAllocations([&] { second.emplace(amalur.Integrate(spec)); });
  EXPECT_TRUE(second->ok()) << second->status();
  return repeat;
}

TEST(IntegrateAllocationTest, ARepeatedIntegrateRederivesNothing) {
  const Repeat small = CountRepeatedIntegrate(1000);
  const Repeat large = CountRepeatedIntegrate(16000);
  ASSERT_EQ(large.d0_bytes, 16000u * 5 * sizeof(double));
  EXPECT_EQ(small.counts.blocks, large.counts.blocks)
      << "a repeated Integrate requested " << small.counts.blocks
      << " blocks at 1,000 fact rows and " << large.counts.blocks
      << " at 16,000";
  for (const Repeat* repeat : {&small, &large}) {
    EXPECT_LT(repeat->counts.largest, repeat->d0_bytes)
        << "a repeated Integrate requested a block of "
        << repeat->counts.largest << " bytes; D_0 takes " << repeat->d0_bytes;
  }
}

}  // namespace
}  // namespace core
}  // namespace amalur
