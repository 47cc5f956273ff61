#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/parallel_for.h"
#include "core/amalur.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"
#include "testing/generator.h"
#include "testing/running_example.h"

namespace amalur {
namespace serving {
namespace {

/// Trains a linear-regression model over a fan-out left join (the classic
/// feature-augmentation star) under a forced strategy; the fixture every
/// serving test deploys from.
struct TrainedFixture {
  std::unique_ptr<core::Amalur> system;
  core::IntegrationHandle integration;
  core::ModelHandle model;
};

TrainedFixture TrainLeftJoinModel(core::ExecutionStrategy strategy,
                                  const std::string& model_name = "") {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 200;
  spec.other_rows = 40;
  spec.base_features = 2;
  spec.other_features = 4;
  spec.seed = 61;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  TrainedFixture fixture;
  fixture.system = std::make_unique<core::Amalur>();
  AMALUR_CHECK_OK(fixture.system->catalog()->RegisterSource(
      {"S1", pair.base, "silo-1", false}));
  AMALUR_CHECK_OK(fixture.system->catalog()->RegisterSource(
      {"S2", pair.other, "silo-2", false}));
  auto integration =
      fixture.system->Integrate("S1", "S2", rel::JoinKind::kLeftJoin);
  AMALUR_CHECK(integration.ok()) << integration.status();
  fixture.integration = *std::move(integration);

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;
  request.force_strategy = strategy;
  auto model = fixture.system->Train(fixture.integration, request, model_name);
  AMALUR_CHECK(model.ok()) << model.status();
  fixture.model = *std::move(model);
  return fixture;
}

std::vector<RowRef> AllRows(size_t n) {
  std::vector<RowRef> batch(n);
  for (size_t i = 0; i < n; ++i) batch[i].row = i;
  return batch;
}

TEST(ModelRegistryTest, DeployResolveRedeployUndeployLifecycle) {
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  ModelRegistry registry;

  auto v1 = fixture.model.Deploy(&registry, "scorer");
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ((*v1)->name(), "scorer");
  EXPECT_EQ((*v1)->version(), 1u);
  EXPECT_EQ((*v1)->label_column(), "y");
  EXPECT_EQ((*v1)->feature_names(), fixture.model.feature_names());
  EXPECT_EQ((*v1)->source_names(),
            (std::vector<std::string>{"S1", "S2"}));
  EXPECT_EQ((*v1)->rows(), fixture.integration.metadata.target_rows());
  EXPECT_TRUE(registry.Has("scorer"));
  EXPECT_EQ(registry.DeployedNames(), (std::vector<std::string>{"scorer"}));

  // A live name never gets silently overwritten.
  EXPECT_TRUE(
      registry.Deploy("scorer", fixture.model).status().IsAlreadyExists());

  // Redeploy bumps the per-name version; the old snapshot keeps serving.
  auto v2 = registry.Redeploy("scorer", fixture.model);
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ((*v2)->version(), 2u);
  EXPECT_EQ((*v1)->version(), 1u);
  auto resolved = registry.Get("scorer");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ((*resolved)->version(), 2u);

  // The retired snapshot still scores — it is immune to registry mutation.
  const std::vector<RowRef> batch = AllRows((*v1)->rows());
  auto old_scores = (*v1)->PredictBatch(batch);
  auto new_scores = (*v2)->PredictBatch(batch);
  ASSERT_TRUE(old_scores.ok()) << old_scores.status();
  ASSERT_TRUE(new_scores.ok()) << new_scores.status();
  EXPECT_EQ(*old_scores, *new_scores);  // same weights → bit-equal scores

  EXPECT_TRUE(registry.Undeploy("scorer").ok());
  EXPECT_FALSE(registry.Has("scorer"));
  EXPECT_TRUE(registry.Undeploy("scorer").IsNotFound());
  EXPECT_TRUE(registry.Get("scorer").status().IsNotFound());
  EXPECT_TRUE(
      registry.Redeploy("scorer", fixture.model).status().IsNotFound());
}

TEST(ModelRegistryTest, DeployNameDefaultsAndValidation) {
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize, "churn-v1");
  ModelRegistry registry;

  // The empty deployment name is rejected outright...
  EXPECT_TRUE(registry.Deploy("", fixture.model).status().IsInvalidArgument());
  // ...but ModelHandle::Deploy defaults it to the model's catalog name.
  auto deployed = fixture.model.Deploy(&registry);
  ASSERT_TRUE(deployed.ok()) << deployed.status();
  EXPECT_EQ((*deployed)->name(), "churn-v1");
  EXPECT_TRUE(registry.Has("churn-v1"));

  // A handle with no integration data cannot be snapshotted.
  core::ModelHandle untrained;
  EXPECT_TRUE(
      registry.Deploy("ghost", untrained).status().IsFailedPrecondition());

  // A null registry is the caller's error, not a crash.
  EXPECT_TRUE(fixture.model.Deploy(nullptr).status().IsInvalidArgument());
}

TEST(ModelRegistryTest, SnapshotIsImmuneToLaterMutations) {
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Deploy("a", fixture.model).ok());

  std::shared_ptr<const ModelRegistry::DeploymentMap> before =
      registry.Snapshot();
  ASSERT_TRUE(registry.Deploy("b", fixture.model).ok());
  ASSERT_TRUE(registry.Undeploy("a").ok());

  // The old map pointer still shows the world as of its read.
  EXPECT_EQ(before->size(), 1u);
  EXPECT_EQ(before->count("a"), 1u);
  std::shared_ptr<const ModelRegistry::DeploymentMap> after =
      registry.Snapshot();
  EXPECT_EQ(after->size(), 1u);
  EXPECT_EQ(after->count("b"), 1u);
}

TEST(DeployedModelTest, BatchScoresMatchTrainingPredictionsBitForBit) {
  // For a factorized-plan model the snapshot shares the exact view training
  // ran over, and the partial-score cache reproduces the training-time
  // in-sample predictions bit for bit.
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  ModelRegistry registry;
  auto deployed = fixture.model.Deploy(&registry, "scorer");
  ASSERT_TRUE(deployed.ok()) << deployed.status();

  auto in_sample = fixture.model.Predict();
  ASSERT_TRUE(in_sample.ok()) << in_sample.status();

  const std::vector<RowRef> batch = AllRows((*deployed)->rows());
  auto scores = (*deployed)->PredictBatch(batch);
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_EQ(*scores, *in_sample);  // bitwise

  // A gathered subset scores the same rows to the same bits, in request
  // order (including duplicates and reversals).
  std::vector<RowRef> subset = {{17}, {3}, {17}, {0}};
  auto gathered = (*deployed)->PredictBatch(subset);
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  ASSERT_EQ(gathered->rows(), 4u);
  EXPECT_EQ(gathered->At(0, 0), in_sample->At(17, 0));
  EXPECT_EQ(gathered->At(1, 0), in_sample->At(3, 0));
  EXPECT_EQ(gathered->At(2, 0), gathered->At(0, 0));
  EXPECT_EQ(gathered->At(3, 0), in_sample->At(0, 0));
}

TEST(DeployedModelTest, MaterializedPlanModelsDeployThroughTheSameCache) {
  // Models whose executed plan materialized keep only the metadata copy;
  // deploy builds the factorized view from it, and both strategies' models
  // must serve identical scores (same weights to 1e-8, same view).
  TrainedFixture fact = TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  TrainedFixture mat =
      TrainLeftJoinModel(core::ExecutionStrategy::kMaterialize);
  ASSERT_EQ(fact.model.factorized_table() == nullptr, false);
  ASSERT_NE(mat.model.factorized_table(), nullptr);
  ASSERT_NE(mat.model.metadata(), nullptr);

  ModelRegistry registry;
  auto from_fact = fact.model.Deploy(&registry, "fact");
  auto from_mat = mat.model.Deploy(&registry, "mat");
  ASSERT_TRUE(from_fact.ok()) << from_fact.status();
  ASSERT_TRUE(from_mat.ok()) << from_mat.status();

  const std::vector<RowRef> batch = AllRows((*from_fact)->rows());
  auto a = (*from_fact)->PredictBatch(batch);
  auto b = (*from_mat)->PredictBatch(batch);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_LT(a->MaxAbsDiff(*b), 1e-7);  // weights differ by GD rounding only
}

TEST(DeployedModelTest, BatchValidationAndEmptyBatchContracts) {
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  ModelRegistry registry;
  auto deployed = registry.Deploy("scorer", fixture.model);
  ASSERT_TRUE(deployed.ok()) << deployed.status();
  const size_t rows = (*deployed)->rows();

  // An empty predict batch is fine (an empty answer, not an error)...
  auto empty = (*deployed)->PredictBatch({});
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->rows(), 0u);
  EXPECT_EQ(empty->cols(), 1u);
  // ...but an empty evaluation is rejected: its all-zero report would read
  // as a perfect model.
  EXPECT_TRUE((*deployed)->EvaluateBatch({}).status().IsInvalidArgument());

  // Any out-of-range reference fails the whole batch before scoring starts.
  std::vector<RowRef> bad = {{0}, {rows}};
  EXPECT_TRUE((*deployed)->PredictBatch(bad).status().IsInvalidArgument());
  EXPECT_TRUE((*deployed)->EvaluateBatch(bad).status().IsInvalidArgument());
}

TEST(DeployedModelTest, BatchScoringIsThreadCountInvariant) {
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  ModelRegistry registry;
  auto deployed = registry.Deploy("scorer", fixture.model);
  ASSERT_TRUE(deployed.ok()) << deployed.status();
  const std::vector<RowRef> batch = AllRows((*deployed)->rows());

  la::DenseMatrix serial;
  {
    common::ScopedNumThreads one(1);
    auto scores = (*deployed)->PredictBatch(batch);
    ASSERT_TRUE(scores.ok()) << scores.status();
    serial = *std::move(scores);
  }
  for (size_t threads : {2, 3, 8}) {
    common::ScopedNumThreads scope(threads);
    auto scores = (*deployed)->PredictBatch(batch);
    ASSERT_TRUE(scores.ok()) << scores.status();
    EXPECT_EQ(*scores, serial) << "thread count " << threads;
  }
}

TEST(DeployedModelTest, EvaluateBatchScoresAgainstDeployTimeLabels) {
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  ModelRegistry registry;
  auto deployed = registry.Deploy("scorer", fixture.model);
  ASSERT_TRUE(deployed.ok()) << deployed.status();

  const std::vector<RowRef> batch = AllRows((*deployed)->rows());
  auto report = (*deployed)->EvaluateBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rows, (*deployed)->rows());
  // Full-batch evaluation equals the handle's in-sample evaluation.
  auto in_sample = fixture.model.Evaluate();
  ASSERT_TRUE(in_sample.ok()) << in_sample.status();
  EXPECT_DOUBLE_EQ(report->mse, in_sample->mse);
  EXPECT_DOUBLE_EQ(report->primary, report->mse);
}

TEST(DeployedModelTest, LogisticDeploymentsServeProbabilities) {
  integration::RunningExample ex = integration::MakeRunningExample();
  core::Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S1", ex.s1, "er", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S2", ex.s2, "pulmonary", false}).ok());
  auto integration =
      amalur.Integrate("S1", "S2", rel::JoinKind::kFullOuterJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  core::TrainRequest request;
  request.task = core::TrainingTask::kLogisticRegression;
  request.label_column = "m";
  request.gd.iterations = 50;
  request.gd.learning_rate = 0.01;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto model = amalur.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();

  ModelRegistry registry;
  auto deployed = registry.Deploy("mortality", *model);
  ASSERT_TRUE(deployed.ok()) << deployed.status();
  EXPECT_EQ((*deployed)->task(), core::TrainingTask::kLogisticRegression);

  const std::vector<RowRef> batch = AllRows((*deployed)->rows());
  auto scores = (*deployed)->PredictBatch(batch);
  ASSERT_TRUE(scores.ok()) << scores.status();
  for (size_t i = 0; i < scores->rows(); ++i) {
    EXPECT_GE(scores->At(i, 0), 0.0);
    EXPECT_LE(scores->At(i, 0), 1.0);
  }
  auto in_sample = model->Predict();
  ASSERT_TRUE(in_sample.ok()) << in_sample.status();
  EXPECT_EQ(*scores, *in_sample);  // sigmoid is elementwise → still bitwise

  auto report = (*deployed)->EvaluateBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->log_loss, 0.0);
  EXPECT_DOUBLE_EQ(report->primary, report->accuracy);
  // The full batch evaluates exactly like the handle, field by field.
  auto in_sample_report = model->Evaluate();
  ASSERT_TRUE(in_sample_report.ok()) << in_sample_report.status();
  EXPECT_EQ(report->rows, in_sample_report->rows);
  EXPECT_EQ(report->mse, in_sample_report->mse);
  EXPECT_EQ(report->log_loss, in_sample_report->log_loss);
  EXPECT_EQ(report->accuracy, in_sample_report->accuracy);
  EXPECT_EQ(report->primary, in_sample_report->primary);
}

TEST(DeployedModelTest, StatsCountRequestsRowsAndCacheHits) {
  TrainedFixture fixture =
      TrainLeftJoinModel(core::ExecutionStrategy::kFactorize);
  ModelRegistry registry;
  auto deployed = registry.Deploy("scorer", fixture.model);
  ASSERT_TRUE(deployed.ok()) << deployed.status();

  ServingStats fresh = (*deployed)->stats();
  EXPECT_EQ(fresh.requests, 0u);
  EXPECT_EQ(fresh.rows, 0u);
  EXPECT_EQ(fresh.cache_hits, 0u);

  const std::vector<RowRef> batch = AllRows((*deployed)->rows());
  ASSERT_TRUE((*deployed)->PredictBatch(batch).ok());
  ServingStats after = (*deployed)->stats();
  EXPECT_EQ(after.requests, 1u);
  EXPECT_EQ(after.rows, batch.size());
  // Every row touches the base silo's cache at least once, so the
  // factorized path served >= one lookup per row.
  EXPECT_GE(after.cache_hits, batch.size());

  // A failed batch never counts.
  std::vector<RowRef> bad = {{(*deployed)->rows()}};
  ASSERT_FALSE((*deployed)->PredictBatch(bad).ok());
  EXPECT_EQ((*deployed)->stats().requests, 1u);
}

}  // namespace
}  // namespace serving
}  // namespace amalur
