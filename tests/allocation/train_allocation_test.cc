#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/amalur.h"
#include "counting_allocator.h"
#include "serving/model_registry.h"
#include "testing/generator.h"

/// What a facade `Train` builds. The integration's row-slot index (rT ×
/// sources × 4 bytes) is built once per integration and shared by every
/// view of it, so a second `Amalur::Train` on one handle, and a later
/// `Predict()` or `Deploy`, request no block that large. Handles share the
/// derived metadata instead of copying it, so a federated `Train` copies no
/// D_k; it builds no index either.

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

/// A fact table referencing three keyed dimensions, integrated through the
/// facade under left joins.
IntegrationHandle IntegrateStar(Amalur* amalur, size_t fact_rows) {
  Rng rng(2601);
  const std::vector<std::pair<std::string, size_t>> dims = {
      {"stores", 40}, {"items", 120}, {"days", 30}};
  std::vector<std::string> sources = {"sales"};
  rel::Table fact("sales");
  for (const auto& [name, rows] : dims) {
    const std::string key = name + "_id";
    AMALUR_CHECK_OK(amalur->catalog()->RegisterSource(
        {name, Dimension(name, key, rows, 3, &rng), "", false}));
    std::vector<int64_t> refs(fact_rows);
    for (int64_t& ref : refs) ref = static_cast<int64_t>(rng.NextUint64(rows));
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s(key, refs)));
    sources.push_back(name);
  }
  std::vector<double> quantity(fact_rows), amount(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    quantity[i] = rng.NextGaussian();
    amount[i] = 0.8 * quantity[i] + 0.1 * rng.NextGaussian();
  }
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("quantity", quantity)));
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("amount", amount)));
  AMALUR_CHECK_OK(amalur->catalog()->RegisterSource({"sales", fact, "", false}));

  IntegrationSpec spec;
  spec.sources = sources;
  spec.relationships = {rel::JoinKind::kLeftJoin};
  auto integration = amalur->Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  return *std::move(integration);
}

size_t IndexBytes(const metadata::DiMetadata& metadata) {
  return metadata.target_rows() * metadata.num_sources() *
         sizeof(metadata::RowId);
}

TEST(TrainAllocationTest, SecondTrainPredictAndDeployBuildNoIndex) {
  Amalur amalur;
  const IntegrationHandle integration = IntegrateStar(&amalur, 3000);
  ASSERT_EQ(integration.metadata.num_sources(), 4u);
  const size_t index_bytes = IndexBytes(integration.metadata);

  TrainRequest request;
  request.label_column = "amount";
  request.gd.iterations = 30;
  request.gd.learning_rate = 0.05;
  request.num_threads = 1;
  request.force_strategy = ExecutionStrategy::kFactorize;
  std::optional<Result<ModelHandle>> first, second;
  const Counts first_counts = CountAllocations(
      [&] { first.emplace(amalur.Train(integration, request)); });
  ASSERT_TRUE(first->ok()) << first->status();
  // The first `Train` builds the index, so the bound can see it.
  EXPECT_GE(first_counts.largest, index_bytes);

  request.gd.learning_rate = 0.1;
  const Counts second_counts = CountAllocations(
      [&] { second.emplace(amalur.Train(integration, request)); });
  ASSERT_TRUE(second->ok()) << second->status();
  EXPECT_LT(second_counts.largest, index_bytes)
      << "the second Train requested a block of " << second_counts.largest
      << " bytes; the slot index takes " << index_bytes;

  const ModelHandle& model = **second;
  std::optional<Result<la::DenseMatrix>> predictions;
  const Counts predict_counts =
      CountAllocations([&] { predictions.emplace(model.Predict()); });
  ASSERT_TRUE(predictions->ok()) << predictions->status();
  EXPECT_LT(predict_counts.largest, index_bytes);

  serving::ModelRegistry registry;
  std::optional<Result<std::shared_ptr<const serving::DeployedModel>>> deployed;
  const Counts deploy_counts = CountAllocations(
      [&] { deployed.emplace(model.Deploy(&registry, "sales-model")); });
  ASSERT_TRUE(deployed->ok()) << deployed->status();
  EXPECT_LT(deploy_counts.largest, index_bytes);
}

TEST(TrainAllocationTest, FederatedTrainCopiesNoSourceAndBuildsNoIndex) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 600;
  spec.other_rows = 600;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.match_fraction = 0.6;
  spec.seed = 2602;
  const rel::SiloPair pair = rel::GenerateSiloPair(spec);
  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"a", pair.base, "bank-a", true}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"b", pair.other, "bank-b", true}).ok());
  auto integration = amalur.Integrate("a", "b", rel::JoinKind::kInnerJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();
  ASSERT_TRUE(integration->privacy_constrained);
  const metadata::DiMetadata& md = integration->metadata;
  size_t smallest_source = SIZE_MAX;
  for (size_t k = 0; k < md.num_sources(); ++k) {
    smallest_source =
        std::min(smallest_source, md.source(k).data.size() * sizeof(double));
  }

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 10;
  request.gd.learning_rate = 0.05;
  request.num_threads = 1;
  ASSERT_TRUE(amalur.Train(*integration, request).ok());
  std::optional<Result<ModelHandle>> model;
  const Counts counts = CountAllocations(
      [&] { model.emplace(amalur.Train(*integration, request)); });
  ASSERT_TRUE(model->ok()) << model->status();
  ASSERT_EQ((*model)->outcome().strategy_used, ExecutionStrategy::kFederate);
  EXPECT_LT(counts.largest, smallest_source)
      << "the federated Train requested a block of " << counts.largest
      << " bytes; the smallest D_k takes " << smallest_source;
  // The model reads the integration's own D_k.
  for (size_t k = 0; k < md.num_sources(); ++k) {
    EXPECT_EQ(&(*model)->metadata()->source(k).data, &md.source(k).data)
        << "source " << k;
  }
  // Neither `Train` built the index: its first reader still builds it.
  const Counts index_counts = CountAllocations([&] { md.slot_index(); });
  EXPECT_GE(index_counts.largest, IndexBytes(md));
}

}  // namespace
}  // namespace core
}  // namespace amalur
