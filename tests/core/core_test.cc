#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/amalur.h"
#include "cost/calibrator.h"
#include "relational/csv.h"
#include "testing/generator.h"
#include "testing/running_example.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace core {
namespace {

TEST(CatalogTest, SourceCrud) {
  Catalog catalog;
  integration::RunningExample ex = integration::MakeRunningExample();
  EXPECT_TRUE(catalog.RegisterSource({"S1", ex.s1, "er", false}).ok());
  EXPECT_TRUE(
      catalog.RegisterSource({"S1", ex.s1, "er", false}).IsAlreadyExists());
  EXPECT_TRUE(catalog.RegisterSource({"", ex.s1, "", false}).IsInvalidArgument());
  EXPECT_TRUE(catalog.HasSource("S1"));
  EXPECT_FALSE(catalog.HasSource("S9"));
  auto entry = catalog.GetSource("S1");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->silo_location, "er");
  EXPECT_TRUE(catalog.GetSource("S9").status().IsNotFound());
  EXPECT_EQ(catalog.SourceNames(), (std::vector<std::string>{"S1"}));
}

TEST(CatalogTest, IntegrationRegistry) {
  Catalog catalog;
  IntegrationHandle handle;
  handle.name = "star-1";
  handle.source_names = {"fact", "dim"};
  EXPECT_TRUE(catalog.RegisterIntegration(handle).ok());
  // Duplicate names are rejected, never silently overwritten.
  EXPECT_TRUE(catalog.RegisterIntegration(handle).IsAlreadyExists());
  IntegrationHandle unnamed;
  EXPECT_TRUE(catalog.RegisterIntegration(unnamed).IsInvalidArgument());
  EXPECT_TRUE(catalog.HasIntegration("star-1"));
  EXPECT_FALSE(catalog.HasIntegration("star-2"));
  auto fetched = catalog.GetIntegration("star-1");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->source_names,
            (std::vector<std::string>{"fact", "dim"}));
  EXPECT_TRUE(catalog.GetIntegration("star-2").status().IsNotFound());
  EXPECT_EQ(catalog.IntegrationNames(), (std::vector<std::string>{"star-1"}));
}

TEST(CatalogTest, ModelRegistry) {
  Catalog catalog;
  ModelEntry model;
  model.name = "m1";
  model.task = "linear_regression";
  model.metric = 0.25;
  EXPECT_TRUE(catalog.RegisterModel(model).ok());
  EXPECT_TRUE(catalog.RegisterModel(model).IsAlreadyExists());
  auto fetched = catalog.GetModel("m1");
  ASSERT_TRUE(fetched.ok());
  EXPECT_DOUBLE_EQ((*fetched)->metric, 0.25);
  EXPECT_EQ(catalog.ModelNames(), (std::vector<std::string>{"m1"}));
}

TEST(OptimizerTest, PrivacyForcesFederation) {
  integration::RunningExample ex = integration::MakeRunningExample();
  auto metadata =
      metadata::DiMetadata::Derive(ex.mapping, {&ex.s1, &ex.s2}, ex.matching);
  ASSERT_TRUE(metadata.ok());
  Optimizer optimizer;
  Plan plan = optimizer.Choose(*metadata, /*privacy_constrained=*/true);
  EXPECT_EQ(plan.strategy, ExecutionStrategy::kFederate);
  EXPECT_NE(plan.explanation.find("privacy"), std::string::npos);
  Plan free_plan = optimizer.Choose(*metadata, false);
  EXPECT_NE(free_plan.strategy, ExecutionStrategy::kFederate);
  EXPECT_FALSE(free_plan.explanation.empty());
}

/// End-to-end: the running example through the full automatic pipeline.
TEST(AmalurTest, RunningExampleEndToEnd) {
  integration::RunningExample ex = integration::MakeRunningExample();
  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S1", ex.s1, "er", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S2", ex.s2, "pulmonary", false}).ok());

  IntegrationSpec spec;
  spec.name = "er-pulmonary";
  spec.sources = {"S1", "S2"};
  spec.relationships = {rel::JoinKind::kFullOuterJoin};
  auto integration = amalur.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();
  // Target schema synthesized as T(m, a, hr, o) — the paper's mediated schema.
  EXPECT_EQ(integration->mapping.target_schema().Names(),
            (std::vector<std::string>{"m", "a", "hr", "o"}));
  // ER recovered Jane.
  ASSERT_EQ(integration->matchings.size(), 1u);
  ASSERT_EQ(integration->matchings[0].matched.size(), 1u);
  EXPECT_EQ(integration->matchings[0].matched[0],
            (std::pair<size_t, size_t>{3, 2}));
  // The materialized matrix matches Figure 4.
  EXPECT_TRUE(integration->metadata.MaterializeTargetMatrix().ApproxEquals(
      integration::RunningExampleTargetMatrix()));
  // The named handle became a first-class catalog object.
  ASSERT_TRUE(amalur.catalog()->GetIntegration("er-pulmonary").ok());
  // Re-integrating under the same name is rejected.
  EXPECT_TRUE(amalur.Integrate(spec).status().IsAlreadyExists());

  // Train mortality prediction; strategy is the optimizer's choice.
  TrainRequest request;
  request.task = TrainingTask::kLogisticRegression;
  request.label_column = "m";
  request.gd.iterations = 50;
  request.gd.learning_rate = 0.01;
  auto model = amalur.Train(*integration, request, "mortality");
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->weights().rows(), 3u);  // a, hr, o
  EXPECT_EQ(model->feature_names(),
            (std::vector<std::string>{"a", "hr", "o"}));
  EXPECT_FALSE(model->outcome().loss_history.empty());
  // Explain reproduces the executed plan.
  EXPECT_EQ(amalur.Explain(*model).strategy, model->outcome().strategy_used);
  // The model landed in the catalog.
  auto entry = amalur.catalog()->GetModel("mortality");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->task, "logistic_regression");
  EXPECT_EQ((*entry)->training_sources,
            (std::vector<std::string>{"S1", "S2"}));
}

TEST(AmalurTest, FactorizedAndMaterializedAgreeEndToEnd) {
  // Same integration, both strategies forced through the facade's
  // `force_strategy` override: identical weights — the paper's
  // "factorization does not affect accuracy".
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 150;
  spec.other_rows = 30;
  spec.base_features = 2;
  spec.other_features = 5;
  spec.seed = 77;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S1", pair.base, "silo1", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S2", pair.other, "silo2", false}).ok());
  auto integration = amalur.Integrate("S1", "S2", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 30;
  request.gd.learning_rate = 0.05;

  request.force_strategy = ExecutionStrategy::kFactorize;
  auto fact = amalur.Train(*integration, request);
  request.force_strategy = ExecutionStrategy::kMaterialize;
  auto mat = amalur.Train(*integration, request);
  ASSERT_TRUE(fact.ok()) << fact.status();
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_LT(fact->weights().MaxAbsDiff(mat->weights()), 1e-8);
  EXPECT_EQ(fact->outcome().strategy_used, ExecutionStrategy::kFactorize);
  EXPECT_EQ(mat->outcome().strategy_used, ExecutionStrategy::kMaterialize);
  // The forced plan records both the override and the optimizer's estimate.
  EXPECT_NE(amalur.Explain(*fact).explanation.find("forced"),
            std::string::npos);
}

TEST(AmalurTest, TrainRequestCalibrationFileDrivesThePlan) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 150;
  spec.other_rows = 30;
  spec.base_features = 2;
  spec.other_features = 5;
  spec.seed = 78;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  // A calibration that prices factorization out entirely: its constants,
  // resolved from the file into `AmalurOptions::cost`, must flip the plan
  // to materialize and disclose the file's provenance in the explanation.
  cost::Calibration calibration;
  calibration.calibrated = true;
  calibration.source = "calibration-file-constants";
  calibration.options.flop_cost = 1e-9;
  calibration.options.factorized_cell_cost = 1e6;
  calibration.options.materialize_cell_cost = 1e-12;
  calibration.options.factorized_row_overhead = 0.0;
  const std::string path = ::testing::TempDir() + "facade_calibration.json";
  ASSERT_TRUE(cost::WriteCalibrationFile(path, calibration).ok());

  AmalurOptions options;
  options.cost = cost::ResolveCalibration({}, path).options;
  Amalur amalur(options);
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S1", pair.base, "silo1", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S2", pair.other, "silo2", false}).ok());
  auto integration = amalur.Integrate("S1", "S2", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 10;
  request.gd.learning_rate = 0.05;
  auto model = amalur.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->outcome().strategy_used, ExecutionStrategy::kMaterialize);
  const Plan plan = amalur.Explain(*model);
  EXPECT_NE(plan.explanation.find("calibrated"), std::string::npos)
      << plan.explanation;
  EXPECT_NE(plan.explanation.find("calibration-file-constants"),
            std::string::npos)
      << plan.explanation;

  // An unreadable calibration file never breaks training: the plan falls
  // back to the analytic defaults and says why.
  AmalurOptions fallback_options;
  fallback_options.cost = cost::ResolveCalibration(
      {}, ::testing::TempDir() + "no_such_calibration.json").options;
  Amalur fallback_system(fallback_options);
  auto fallback = fallback_system.Train(*integration, request);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_NE(fallback_system.Explain(*fallback).explanation.find(
                "analytic defaults"),
            std::string::npos);
}

TEST(AmalurTest, ForceStrategyAllThreeAgreeOnRedundancyFreeScenario) {
  // A 1:1 inner join duplicates nothing, so every strategy sees the same
  // training matrix and must learn the same weights.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 90;
  spec.other_rows = 90;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.seed = 31;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  AmalurOptions options;
  options.matcher.threshold = 0.75;  // generic x0/z0 names need evidence
  Amalur amalur(options);
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"a", pair.base, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"b", pair.other, "", false}).ok());
  auto integration = amalur.Integrate("a", "b", rel::JoinKind::kInnerJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;

  std::vector<la::DenseMatrix> weights;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kFactorize, ExecutionStrategy::kMaterialize,
        ExecutionStrategy::kFederate}) {
    request.force_strategy = strategy;
    auto model = amalur.Train(*integration, request);
    ASSERT_TRUE(model.ok())
        << ExecutionStrategyToString(strategy) << ": " << model.status();
    EXPECT_EQ(model->outcome().strategy_used, strategy);
    weights.push_back(model->weights());
  }
  EXPECT_LT(weights[0].MaxAbsDiff(weights[1]), 1e-8);  // fact == mat
  EXPECT_LT(weights[0].MaxAbsDiff(weights[2]), 1e-8);  // fact == federated
}

TEST(AmalurTest, DivergingTrainingFailsInsteadOfReturningNanWeights) {
  // A learning rate far too large for the data overflows gradient descent
  // to Inf/NaN. Whatever the strategy, Train must say so with a Status that
  // names the strategy and the iteration, not hand back non-finite weights.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 200;
  spec.other_rows = 40;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.seed = 33;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  AmalurOptions options;
  options.matcher.threshold = 0.75;  // generic x0/z0 names need evidence
  Amalur amalur(options);
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"a", pair.base, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"b", pair.other, "", false}).ok());
  auto integration = amalur.Integrate("a", "b", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 200;
  request.gd.learning_rate = 50;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kFactorize, ExecutionStrategy::kMaterialize,
        ExecutionStrategy::kFederate}) {
    request.force_strategy = strategy;
    auto model = amalur.Train(*integration, request);
    ASSERT_FALSE(model.ok()) << ExecutionStrategyToString(strategy);
    EXPECT_TRUE(model.status().IsFailedPrecondition()) << model.status();
    const std::string message = model.status().message();
    EXPECT_EQ(message.rfind(ExecutionStrategyToString(strategy), 0), 0u)
        << message;
    EXPECT_NE(message.find("diverged: the loss of iteration "),
              std::string::npos)
        << message;
  }
}

/// A silo export as CSV text: an int64 key `pid` (0..rows-1) and the given
/// double columns, drawn from N(0,1), except that row `bad_row` of column
/// `bad_column` reads `bad_cell` verbatim.
std::string SiloCsv(const std::vector<std::string>& columns, size_t rows,
                    uint64_t seed, const std::string& bad_column = "",
                    size_t bad_row = 0, const std::string& bad_cell = "") {
  Rng rng(seed);
  std::string csv = "pid";
  for (const std::string& column : columns) csv += "," + column;
  csv += "\n";
  for (size_t i = 0; i < rows; ++i) {
    csv += std::to_string(i);
    for (const std::string& column : columns) {
      const double value = rng.NextGaussian();
      csv += ",";
      csv += column == bad_column && i == bad_row ? bad_cell
                                                  : std::to_string(value);
    }
    csv += "\n";
  }
  return csv;
}

/// Registers two privacy-sensitive silos read from CSV and integrates them.
Result<IntegrationHandle> IntegrateSecretSilos(Amalur* amalur,
                                               const std::string& a_csv,
                                               const std::string& b_csv,
                                               rel::JoinKind kind) {
  for (const auto& [name, csv] : {std::pair<std::string, std::string>{"a", a_csv},
                                  {"b", b_csv}}) {
    std::istringstream input(csv);
    AMALUR_ASSIGN_OR_RETURN(rel::Table table, rel::ReadCsv(input, name));
    AMALUR_RETURN_NOT_OK(amalur->catalog()->RegisterSource(
        {name, std::move(table), "silo-" + name, true}));
  }
  return amalur->Integrate("a", "b", kind);
}

TEST(AmalurTest, SecureFederatedTrainRejectsValuesOutsideTheFixedPointRange) {
  // NaN, Inf and 1e300 parse as doubles, but neither Paillier nor the
  // secret-sharing encoder can represent them: a join (Paillier VFL) and a
  // union (FedAvg with secure aggregation) must both name the silo and the
  // column instead of aborting inside the encoder.
  AmalurOptions options;
  options.matcher.threshold = 0.75;  // generic x0/z0 names need evidence
  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 3;
  request.privacy = federated::VflPrivacy::kPaillier;
  for (const std::string& bad : {"nan", "inf", "-inf", "1e300"}) {
    SCOPED_TRACE(bad);
    {
      Amalur amalur(options);
      auto integration = IntegrateSecretSilos(
          &amalur, SiloCsv({"y", "x0", "x1"}, 60, 1),
          SiloCsv({"z0", "z1"}, 60, 2, "z1", 17, bad),
          rel::JoinKind::kInnerJoin);
      ASSERT_TRUE(integration.ok()) << integration.status();
      const size_t z1 = *integration->mapping.target_schema().IndexOf("z1");
      auto model = amalur.Train(*integration, request);
      ASSERT_FALSE(model.ok());
      EXPECT_TRUE(model.status().IsInvalidArgument()) << model.status();
      EXPECT_NE(model.status().message().find(
                    "party P1 holds " + std::string(bad == "1e300" ? "1e+300"
                                                                   : bad) +
                    " in feature column " + std::to_string(z1) + " (row 17)"),
                std::string::npos)
          << model.status();
    }
    {
      Amalur amalur(options);
      auto integration = IntegrateSecretSilos(
          &amalur, SiloCsv({"y", "x0", "x1"}, 60, 3),
          SiloCsv({"y", "x0", "x1"}, 40, 4, "x1", 9, bad),
          rel::JoinKind::kUnion);
      ASSERT_TRUE(integration.ok()) << integration.status();
      auto model = amalur.Train(*integration, request);
      ASSERT_FALSE(model.ok());
      EXPECT_TRUE(model.status().IsInvalidArgument()) << model.status();
      EXPECT_NE(model.status().message().find("party P1 holds "),
                std::string::npos)
          << model.status();
      EXPECT_NE(model.status().message().find("(row 9)"), std::string::npos)
          << model.status();
    }
  }
}

TEST(AmalurTest, SecureFederatedTrainThatLeavesTheFixedPointRangeDiverges) {
  // 1e10 is inside both encoders' ranges, so the inputs pass; gradient
  // descent then drives a partial prediction (Paillier VFL) or a local
  // model (secure FedAvg) out of the range, which is divergence.
  AmalurOptions options;
  options.matcher.threshold = 0.75;
  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 20;
  request.privacy = federated::VflPrivacy::kPaillier;
  for (rel::JoinKind kind : {rel::JoinKind::kInnerJoin, rel::JoinKind::kUnion}) {
    SCOPED_TRACE(rel::JoinKindToString(kind));
    Amalur amalur(options);
    const bool join = kind == rel::JoinKind::kInnerJoin;
    auto integration = IntegrateSecretSilos(
        &amalur, SiloCsv({"y", "x0", "x1"}, 60, 5),
        join ? SiloCsv({"z0", "z1"}, 60, 6, "z1", 4, "1e10")
             : SiloCsv({"y", "x0", "x1"}, 40, 6, "x1", 4, "1e10"),
        kind);
    ASSERT_TRUE(integration.ok()) << integration.status();
    auto model = amalur.Train(*integration, request);
    ASSERT_FALSE(model.ok());
    EXPECT_TRUE(model.status().IsFailedPrecondition()) << model.status();
    EXPECT_EQ(model.status().message().rfind("federate training diverged: ", 0),
              0u)
        << model.status();
    EXPECT_NE(model.status().message().find("fixed-point range"),
              std::string::npos)
        << model.status();
  }
}

TEST(AmalurTest, SecureFederatedTrainWhoseGradientWouldWrapDiverges) {
  // In-range inputs at a learning rate far too large: the plaintext run
  // diverges at iteration 85. Under Paillier the homomorphic gradient
  // Σ_i x_ij·d_i outgrows the plaintext range first; unchecked, it wraps
  // modulo n, C decrypts garbage and training ends OK with a loss near
  // 1e22. The gradient check must report divergence instead.
  AmalurOptions options;
  options.matcher.threshold = 0.75;
  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 200;
  request.gd.learning_rate = 50;
  for (federated::VflPrivacy privacy :
       {federated::VflPrivacy::kPlaintext, federated::VflPrivacy::kPaillier}) {
    SCOPED_TRACE(privacy == federated::VflPrivacy::kPaillier ? "paillier"
                                                             : "plaintext");
    request.privacy = privacy;
    Amalur amalur(options);
    auto integration = IntegrateSecretSilos(
        &amalur, SiloCsv({"y", "x0", "x1"}, 60, 1), SiloCsv({"z0", "z1"}, 60, 2),
        rel::JoinKind::kInnerJoin);
    ASSERT_TRUE(integration.ok()) << integration.status();
    auto model = amalur.Train(*integration, request);
    ASSERT_FALSE(model.ok()) << "final loss "
                             << model->outcome().loss_history.back();
    EXPECT_TRUE(model.status().IsFailedPrecondition()) << model.status();
    EXPECT_EQ(model.status().message().rfind("federate training diverged: ", 0),
              0u)
        << model.status();
    if (privacy == federated::VflPrivacy::kPaillier) {
      EXPECT_NE(model.status().message().find("fixed-point range"),
                std::string::npos)
          << model.status();
    }
  }
}

TEST(AmalurTest, EmptyTargetIsAnInvalidIntegrationForEveryStrategy) {
  // An inner join whose keys never match leaves no target rows. Every path
  // (the optimizer's choice, forced factorize and materialize, federated)
  // must report the empty target as kInvalidArgument before planning, not
  // as divergence from 1/n with n = 0 or as a protocol error.
  Rng rng(37);
  std::vector<int64_t> left_ids, right_ids;
  std::vector<double> heart_rate, outcome, weight;
  for (int64_t i = 0; i < 60; ++i) {
    left_ids.push_back(2 * i);  // even ids only
    heart_rate.push_back(70.0 + 8.0 * rng.NextGaussian());
    outcome.push_back(rng.NextGaussian());
  }
  for (int64_t i = 0; i < 60; ++i) {
    right_ids.push_back(2 * i + 1);  // odd ids only: no visit's patient
    weight.push_back(75.0 + 10.0 * rng.NextGaussian());
  }
  rel::Table visits("visits");
  ASSERT_TRUE(
      visits.AddColumn(rel::Column::FromInt64s("patient_id", left_ids)).ok());
  ASSERT_TRUE(visits.AddColumn(rel::Column::FromDoubles("heart_rate", heart_rate))
                  .ok());
  ASSERT_TRUE(
      visits.AddColumn(rel::Column::FromDoubles("outcome", outcome)).ok());
  rel::Table scales("scales");
  ASSERT_TRUE(
      scales.AddColumn(rel::Column::FromInt64s("patient_id", right_ids)).ok());
  ASSERT_TRUE(
      scales.AddColumn(rel::Column::FromDoubles("weight", weight)).ok());

  TrainRequest request;
  request.label_column = "outcome";
  request.gd.iterations = 10;
  request.gd.learning_rate = 0.05;
  const auto expect_empty_target = [](const Result<ModelHandle>& model,
                                      const std::string& path) {
    ASSERT_FALSE(model.ok()) << path;
    EXPECT_TRUE(model.status().IsInvalidArgument())
        << path << ": " << model.status();
    EXPECT_NE(model.status().message().find("empty target table"),
              std::string::npos)
        << path << ": " << model.status();
  };

  for (bool privacy_constrained : {false, true}) {
    Amalur amalur;
    ASSERT_TRUE(
        amalur.catalog()->RegisterSource({"a", visits, "", false}).ok());
    ASSERT_TRUE(amalur.catalog()
                    ->RegisterSource({"b", scales, "", privacy_constrained})
                    .ok());
    auto integration = amalur.Integrate("a", "b", rel::JoinKind::kInnerJoin);
    ASSERT_TRUE(integration.ok()) << integration.status();
    ASSERT_EQ(integration->metadata.target_rows(), 0u);
    ASSERT_EQ(integration->privacy_constrained, privacy_constrained);

    request.force_strategy.reset();
    if (privacy_constrained) {
      expect_empty_target(amalur.Train(*integration, request), "federated");
      continue;
    }
    expect_empty_target(amalur.Train(*integration, request), "optimizer");
    request.force_strategy = ExecutionStrategy::kFactorize;
    expect_empty_target(amalur.Train(*integration, request), "factorize");
    request.force_strategy = ExecutionStrategy::kMaterialize;
    expect_empty_target(amalur.Train(*integration, request), "materialize");
  }
}

TEST(AmalurTest, ModelHandlePredictsAndEvaluatesRelationalData) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 120;
  spec.other_rows = 40;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.seed = 91;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"a", pair.base, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"b", pair.other, "", false}).ok());
  auto integration = amalur.Integrate("a", "b", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 80;
  request.gd.learning_rate = 0.05;
  auto model = amalur.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();

  // Score the materialized target as a relational table.
  const metadata::DiMetadata& md = integration->metadata;
  rel::Table target = rel::Table::FromMatrix(
      "target", md.MaterializeTargetMatrix(), md.target_schema().Names());
  auto predictions = model->Predict(target);
  ASSERT_TRUE(predictions.ok()) << predictions.status();
  EXPECT_EQ(predictions->rows(), md.target_rows());
  EXPECT_EQ(predictions->cols(), 1u);

  auto report = model->Evaluate(target);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rows, md.target_rows());
  // In-sample MSE of the final weights matches the last training loss.
  EXPECT_NEAR(report->mse, model->outcome().loss_history.back(), 0.05);
  EXPECT_DOUBLE_EQ(report->primary, report->mse);

  // Missing feature columns are the caller's data problem: the serving
  // contract is kInvalidArgument, naming the training-schema column.
  rel::Table incomplete("incomplete");
  AMALUR_CHECK_OK(
      incomplete.AddColumn(rel::Column::FromDoubles("y", {1.0, 2.0})));
  EXPECT_TRUE(model->Predict(incomplete).status().IsInvalidArgument());
  EXPECT_TRUE(model->Evaluate(incomplete).status().IsInvalidArgument());

  // A column with the right name but a string payload is equally invalid.
  rel::Table mistyped("mistyped");
  for (const std::string& name : model->feature_names()) {
    AMALUR_CHECK_OK(mistyped.AddColumn(
        name == model->feature_names().front()
            ? rel::Column::FromStrings(name, {"a", "b"})
            : rel::Column::FromDoubles(name, {1.0, 2.0})));
  }
  EXPECT_TRUE(model->Predict(mistyped).status().IsInvalidArgument());
}

TEST(AmalurTest, ServingAlignsShuffledHoldoutColumnsByName) {
  // Regression: out-of-sample serving must align holdout columns to the
  // training schema by NAME. A holdout table with the same columns in a
  // different (here: reversed) order must score identically — positional
  // trust would silently pair features with the wrong weights.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 100;
  spec.other_rows = 25;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.seed = 92;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"a", pair.base, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"b", pair.other, "", false}).ok());
  auto integration = amalur.Integrate("a", "b", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();
  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 60;
  request.gd.learning_rate = 0.05;
  auto model = amalur.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();

  const metadata::DiMetadata& md = integration->metadata;
  rel::Table target = rel::Table::FromMatrix(
      "target", md.MaterializeTargetMatrix(), md.target_schema().Names());
  std::vector<size_t> reversed(target.NumColumns());
  for (size_t j = 0; j < target.NumColumns(); ++j) {
    reversed[j] = target.NumColumns() - 1 - j;
  }
  rel::Table shuffled = target.Project(reversed);

  auto in_order = model->Predict(target);
  auto out_of_order = model->Predict(shuffled);
  ASSERT_TRUE(in_order.ok()) << in_order.status();
  ASSERT_TRUE(out_of_order.ok()) << out_of_order.status();
  EXPECT_EQ(in_order->MaxAbsDiff(*out_of_order), 0.0);

  auto report_in_order = model->Evaluate(target);
  auto report_shuffled = model->Evaluate(shuffled);
  ASSERT_TRUE(report_in_order.ok()) << report_in_order.status();
  ASSERT_TRUE(report_shuffled.ok()) << report_shuffled.status();
  EXPECT_DOUBLE_EQ(report_in_order->mse, report_shuffled->mse);
}

TEST(AmalurTest, IntegrationSpecValidation) {
  integration::RunningExample ex = integration::MakeRunningExample();
  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S1", ex.s1, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S2", ex.s2, "", false}).ok());

  IntegrationSpec spec;
  spec.sources = {"S1"};
  EXPECT_TRUE(amalur.Integrate(spec).status().IsInvalidArgument());

  spec.sources = {"S1", "S1"};
  EXPECT_TRUE(amalur.Integrate(spec).status().IsInvalidArgument());

  spec.sources = {"S1", "S9"};
  EXPECT_TRUE(amalur.Integrate(spec).status().IsNotFound());

  spec.sources = {"S1", "S2"};
  spec.relationships = {rel::JoinKind::kInnerJoin, rel::JoinKind::kLeftJoin};
  EXPECT_TRUE(amalur.Integrate(spec).status().IsInvalidArgument());

  // Star scenarios demand the left-join relationship on every edge.
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S3", ex.s2, "", false}).ok());
  spec.sources = {"S1", "S2", "S3"};
  spec.relationships = {rel::JoinKind::kInnerJoin};
  EXPECT_TRUE(amalur.Integrate(spec).status().IsInvalidArgument());
}

TEST(AmalurTest, GraphSpecValidationReportsPreciseErrors) {
  // Malformed edge-list specs fail fast in the graph planner with messages
  // that name the offending edge or source — no catalog access needed.
  Amalur amalur;
  const auto integrate_message = [&](IntegrationSpec spec) {
    auto result = amalur.Integrate(spec);
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
    return result.status().message();
  };

  IntegrationSpec spec;
  // Unknown source in an edge (the spec declares its participants).
  spec.sources = {"a", "b"};
  spec.edges = {{"a", "mystery", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(integrate_message(spec).find(
                "references source 'mystery', which is not among the spec's "
                "sources"),
            std::string::npos);

  // Duplicate edge (either orientation).
  spec.sources.clear();
  spec.edges = {{"a", "b", rel::JoinKind::kLeftJoin},
                {"b", "a", rel::JoinKind::kUnion}};
  EXPECT_NE(integrate_message(spec).find("duplicate edge between 'b' and 'a'"),
            std::string::npos);

  // Self-loop.
  spec.edges = {{"a", "a", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(integrate_message(spec).find("joins source 'a' to itself"),
            std::string::npos);

  // Cycle: every node has a parent, so no root exists.
  spec.edges = {{"a", "b", rel::JoinKind::kLeftJoin},
                {"b", "c", rel::JoinKind::kLeftJoin},
                {"c", "a", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(integrate_message(spec).find("contains a cycle"),
            std::string::npos);

  // Cycle component unreachable from the root.
  spec.edges = {{"a", "b", rel::JoinKind::kLeftJoin},
                {"c", "d", rel::JoinKind::kLeftJoin},
                {"d", "e", rel::JoinKind::kLeftJoin},
                {"e", "c", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(integrate_message(spec).find("cycle"), std::string::npos);

  // Disconnected forest: two roots.
  spec.edges = {{"a", "b", rel::JoinKind::kLeftJoin},
                {"c", "d", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(integrate_message(spec).find("disconnected"), std::string::npos);

  // Declared source reached by no edge.
  spec.sources = {"a", "b", "ghost"};
  spec.edges = {{"a", "b", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(
      integrate_message(spec).find("source 'ghost' appears in no edge"),
      std::string::npos);

  // Two parents of a *fact shard* (a union-edge child). A diamond over a
  // dimension — a conformed dimension — is legal since the DAG
  // generalization; a multi-parent fact is not.
  spec.sources.clear();
  spec.edges = {{"a", "b", rel::JoinKind::kUnion},
                {"a", "c", rel::JoinKind::kLeftJoin},
                {"c", "b", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(integrate_message(spec).find(
                "source 'b' is a fact shard (a union-edge child) with "
                "several parent edges"),
            std::string::npos);

  // Union edges may only stack fact shards, not hang off dimensions.
  spec.edges = {{"a", "b", rel::JoinKind::kLeftJoin},
                {"b", "c", rel::JoinKind::kUnion}};
  EXPECT_NE(integrate_message(spec).find("union edges stack fact shards only"),
            std::string::npos);

  // Full-outer joins exist only in pairwise specs (inner joins are graph
  // edges since the conformed-dimension generalization).
  spec.edges = {{"a", "b", rel::JoinKind::kFullOuterJoin},
                {"a", "c", rel::JoinKind::kLeftJoin}};
  EXPECT_NE(integrate_message(spec).find(
                "only valid on single-edge (pairwise) specs"),
            std::string::npos);

  // Edge endpoints that pass validation but are not registered sources
  // surface as NotFound from the catalog.
  spec.edges = {{"a", "b", rel::JoinKind::kLeftJoin}};
  EXPECT_TRUE(amalur.Integrate(spec).status().IsNotFound());
}

TEST(AmalurTest, EdgeListPairwiseSpecMatchesLegacyForm) {
  rel::SiloPairSpec pair_spec;
  pair_spec.kind = rel::JoinKind::kLeftJoin;
  pair_spec.base_rows = 80;
  pair_spec.other_rows = 20;
  pair_spec.base_features = 2;
  pair_spec.other_features = 3;
  pair_spec.seed = 21;
  rel::SiloPair pair = rel::GenerateSiloPair(pair_spec);

  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S1", pair.base, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S2", pair.other, "", false}).ok());

  IntegrationSpec legacy;
  legacy.sources = {"S1", "S2"};
  legacy.relationships = {rel::JoinKind::kLeftJoin};
  auto from_legacy = amalur.Integrate(legacy);
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status();

  IntegrationSpec edge_form;
  edge_form.edges = {{"S1", "S2", rel::JoinKind::kLeftJoin}};
  auto from_edges = amalur.Integrate(edge_form);
  ASSERT_TRUE(from_edges.ok()) << from_edges.status();

  // Both forms lower to the same normalized graph and derive identically.
  EXPECT_EQ(from_legacy->shape, metadata::IntegrationShape::kPairwise);
  EXPECT_EQ(from_edges->shape, from_legacy->shape);
  ASSERT_EQ(from_legacy->edges.size(), 1u);
  EXPECT_EQ(from_legacy->edges[0].left, "S1");
  EXPECT_EQ(from_legacy->edges[0].right, "S2");
  EXPECT_EQ(from_legacy->edges[0].kind, rel::JoinKind::kLeftJoin);
  EXPECT_EQ(from_edges->source_names, from_legacy->source_names);
  EXPECT_EQ(from_edges->metadata.MaterializeTargetMatrix().MaxAbsDiff(
                from_legacy->metadata.MaterializeTargetMatrix()),
            0.0);
  // Explain leads with the graph shape.
  EXPECT_NE(amalur.Explain(*from_edges).explanation.find(
                "graph shape: pairwise"),
            std::string::npos);
}

TEST(AmalurTest, InSampleServingRoutesThroughFactorizedRuntime) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 120;
  spec.other_rows = 30;
  spec.base_features = 2;
  spec.other_features = 4;
  spec.seed = 55;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"a", pair.base, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"b", pair.other, "", false}).ok());
  auto integration = amalur.Integrate("a", "b", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;
  request.force_strategy = ExecutionStrategy::kFactorize;
  auto fact = amalur.Train(*integration, request);
  ASSERT_TRUE(fact.ok()) << fact.status();
  request.force_strategy = ExecutionStrategy::kMaterialize;
  auto mat = amalur.Train(*integration, request);
  ASSERT_TRUE(mat.ok()) << mat.status();

  // The factorized model serves in-sample predictions straight off the silo
  // matrices; the result must equal scoring the materialized target as a
  // relational table through the explicit-data path.
  const metadata::DiMetadata& md = integration->metadata;
  rel::Table target = rel::Table::FromMatrix(
      "target", md.MaterializeTargetMatrix(), md.target_schema().Names());
  auto in_sample_fact = fact->Predict();
  ASSERT_TRUE(in_sample_fact.ok()) << in_sample_fact.status();
  EXPECT_EQ(in_sample_fact->rows(), md.target_rows());
  auto explicit_fact = fact->Predict(target);
  ASSERT_TRUE(explicit_fact.ok());
  EXPECT_LT(in_sample_fact->MaxAbsDiff(*explicit_fact), 1e-9);

  // Materialized-plan models fall back to the dense path — same numbers.
  auto in_sample_mat = mat->Predict();
  ASSERT_TRUE(in_sample_mat.ok()) << in_sample_mat.status();
  EXPECT_LT(in_sample_mat->MaxAbsDiff(*in_sample_fact), 1e-6);

  // In-sample evaluation matches the explicit-table evaluation.
  auto report = fact->Evaluate();
  auto table_report = fact->Evaluate(target);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(table_report.ok());
  EXPECT_EQ(report->rows, md.target_rows());
  EXPECT_NEAR(report->mse, table_report->mse, 1e-9);

  // A default-constructed handle has no integration data attached.
  ModelHandle empty;
  EXPECT_TRUE(empty.Predict().status().IsFailedPrecondition());
  EXPECT_TRUE(empty.Evaluate().status().IsFailedPrecondition());
}

TEST(AmalurTest, PrivacySensitiveSourceTriggersFederatedRun) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 60;
  spec.other_rows = 60;
  spec.base_features = 2;
  spec.other_features = 2;
  spec.seed = 78;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S1", pair.base, "bank-a", true}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"S2", pair.other, "bank-b", true}).ok());
  auto integration = amalur.Integrate("S1", "S2", rel::JoinKind::kInnerJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();
  EXPECT_TRUE(integration->privacy_constrained);
  EXPECT_EQ(amalur.Explain(*integration).strategy, ExecutionStrategy::kFederate);

  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 25;
  request.gd.learning_rate = 0.05;
  auto model = amalur.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->outcome().strategy_used, ExecutionStrategy::kFederate);
  EXPECT_GT(model->outcome().bytes_transferred, 0u);
  EXPECT_LT(model->outcome().loss_history.back(),
            model->outcome().loss_history.front());

  // Forcing a data-moving strategy over a privacy-constrained integration
  // is rejected — the override cannot launder the privacy constraint.
  request.force_strategy = ExecutionStrategy::kMaterialize;
  EXPECT_TRUE(
      amalur.Train(*integration, request).status().IsFailedPrecondition());
}

TEST(AmalurTest, IntegrateValidation) {
  Amalur amalur;
  EXPECT_TRUE(amalur.Integrate("a", "b", rel::JoinKind::kInnerJoin)
                  .status()
                  .IsNotFound());
  // Two tables with nothing in common cannot form a join scenario.
  rel::Table left("L");
  AMALUR_CHECK_OK(left.AddColumn(rel::Column::FromDoubles("ppp", {1, 2})));
  rel::Table right("R");
  AMALUR_CHECK_OK(right.AddColumn(
      rel::Column::FromStrings("qqq", {"x", "y"})));
  ASSERT_TRUE(amalur.catalog()->RegisterSource({"L", left, "", false}).ok());
  ASSERT_TRUE(amalur.catalog()->RegisterSource({"R", right, "", false}).ok());
  EXPECT_TRUE(amalur.Integrate("L", "R", rel::JoinKind::kInnerJoin)
                  .status()
                  .IsFailedPrecondition());
  // Nor can two numeric silos without a shared column form a union: they
  // would stack into a target whose label is 0 on every row of the second.
  const auto numeric = [](const std::string& name, size_t rows,
                          const std::vector<std::string>& columns,
                          double offset) {
    rel::Table table(name);
    for (size_t c = 0; c < columns.size(); ++c) {
      std::vector<double> values(rows);
      for (size_t i = 0; i < rows; ++i) {
        values[i] = offset + 100.0 * static_cast<double>(c) + 0.5 * i;
      }
      AMALUR_CHECK_OK(
          table.AddColumn(rel::Column::FromDoubles(columns[c], values)));
    }
    return table;
  };
  ASSERT_TRUE(amalur.catalog()
                  ->RegisterSource(
                      {"A", numeric("A", 50, {"y", "x0"}, 0.0), "", false})
                  .ok());
  ASSERT_TRUE(amalur.catalog()
                  ->RegisterSource(
                      {"B", numeric("B", 40, {"z0", "z1"}, 5000.0), "", false})
                  .ok());
  EXPECT_TRUE(amalur.Integrate("A", "B", rel::JoinKind::kUnion)
                  .status()
                  .IsFailedPrecondition());
}

TEST(AmalurTest, PairwiseLeftJoinKeepsBaseRowOrder) {
  // Base rows 1 and 3 have no partner. A left-join target row i is base
  // row i all the same, so the base indicator is the identity and the
  // unmatched rows keep their places.
  rel::Table base("base");
  AMALUR_CHECK_OK(
      base.AddColumn(rel::Column::FromInt64s("pid", {0, 1, 2, 3, 4, 5})));
  AMALUR_CHECK_OK(base.AddColumn(
      rel::Column::FromDoubles("y", {1.5, 2.5, 3.5, 4.5, 5.5, 6.5})));
  rel::Table other("other");
  AMALUR_CHECK_OK(
      other.AddColumn(rel::Column::FromInt64s("pid", {5, 0, 4, 2})));
  AMALUR_CHECK_OK(other.AddColumn(
      rel::Column::FromDoubles("bmi", {250.0, 210.0, 240.0, 220.0})));
  Amalur amalur;
  ASSERT_TRUE(amalur.catalog()->RegisterSource({"base", base, "", false}).ok());
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"other", other, "", false}).ok());
  auto integration =
      amalur.Integrate("base", "other", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();
  const metadata::DiMetadata& md = integration->metadata;
  EXPECT_EQ(md.shape(), metadata::IntegrationShape::kPairwise);
  EXPECT_EQ(md.source(0).indicator.values(),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(md.source(1).indicator.values(),
            (std::vector<int64_t>{1, -1, 3, -1, 2, 0}));
}

TEST(AmalurTest, OneToManyEdgeFansOutTargetRows) {
  // patients -> visits is 1:N (a patient has one to three visits), beside
  // a functional patients -> regions edge. Each visit becomes its own
  // target row, exactly as the relational join chain lays them out.
  Rng rng(47);
  const size_t n_patients = 20, n_regions = 4;
  std::vector<int64_t> patient_ids, patient_regions, visit_patients;
  std::vector<double> age, outcome, duration;
  for (size_t p = 0; p < n_patients; ++p) {
    patient_ids.push_back(static_cast<int64_t>(p));
    patient_regions.push_back(static_cast<int64_t>(p % n_regions));
    age.push_back(rng.NextGaussian());
    outcome.push_back(rng.NextGaussian());
  }
  // Patient p has (p % 3) + 1 visits, interleaved across the table.
  for (size_t round = 0; round < 3; ++round) {
    for (size_t p = 0; p < n_patients; ++p) {
      if (round > p % 3) continue;
      visit_patients.push_back(static_cast<int64_t>(p));
      duration.push_back(0.5 + 0.5 * rng.NextGaussian());
    }
  }
  std::vector<int64_t> region_ids;
  std::vector<double> density;
  for (size_t r = 0; r < n_regions; ++r) {
    region_ids.push_back(static_cast<int64_t>(r));
    density.push_back(1.0 + rng.NextGaussian());
  }
  rel::Table patients("patients");
  AMALUR_CHECK_OK(
      patients.AddColumn(rel::Column::FromInt64s("patient_id", patient_ids)));
  AMALUR_CHECK_OK(patients.AddColumn(
      rel::Column::FromInt64s("region_id", patient_regions)));
  AMALUR_CHECK_OK(patients.AddColumn(rel::Column::FromDoubles("age", age)));
  AMALUR_CHECK_OK(
      patients.AddColumn(rel::Column::FromDoubles("outcome", outcome)));
  rel::Table visits("visits");
  AMALUR_CHECK_OK(visits.AddColumn(
      rel::Column::FromInt64s("patient_id", visit_patients)));
  AMALUR_CHECK_OK(
      visits.AddColumn(rel::Column::FromDoubles("duration", duration)));
  rel::Table regions("regions");
  AMALUR_CHECK_OK(
      regions.AddColumn(rel::Column::FromInt64s("region_id", region_ids)));
  AMALUR_CHECK_OK(
      regions.AddColumn(rel::Column::FromDoubles("density", density)));

  Amalur amalur;
  for (const rel::Table* table : {&patients, &visits, &regions}) {
    ASSERT_TRUE(amalur.catalog()
                    ->RegisterSource({table->name(), *table, "", false})
                    .ok());
  }
  IntegrationSpec spec;
  spec.edges = {{"patients", "visits", rel::JoinKind::kLeftJoin},
                {"patients", "regions", rel::JoinKind::kLeftJoin}};
  auto integration = amalur.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();
  const metadata::DiMetadata& md = integration->metadata;
  EXPECT_EQ(md.shape(), metadata::IntegrationShape::kStar);
  EXPECT_EQ(md.target_schema().Names(),
            (std::vector<std::string>{"age", "outcome", "duration", "density"}));
  EXPECT_EQ(md.target_rows(), visits.NumRows());

  // Relational reference: patients LJ visits LJ regions, projected.
  auto j1 = rel::HashJoin(patients, visits, {"patient_id"}, {"patient_id"},
                          rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j1.ok()) << j1.status();
  auto j2 = rel::HashJoin(j1->table, regions, {"region_id"}, {"region_id"},
                          rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j2.ok()) << j2.status();
  auto projected = j2->table.ProjectNames(md.target_schema().Names());
  ASSERT_TRUE(projected.ok()) << projected.status();
  auto expected = projected->ToMatrix();
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(md.MaterializeTargetMatrix().ApproxEquals(*expected, 1e-12));

  TrainRequest request;
  request.label_column = "outcome";
  request.gd.iterations = 50;
  request.gd.learning_rate = 0.05;
  request.force_strategy = ExecutionStrategy::kFactorize;
  auto factorized = amalur.Train(*integration, request);
  ASSERT_TRUE(factorized.ok()) << factorized.status();
  request.force_strategy = ExecutionStrategy::kMaterialize;
  auto materialized = amalur.Train(*integration, request);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_LT(factorized->weights().MaxAbsDiff(materialized->weights()), 1e-8);
}

TEST(AmalurTest, IdSuffixedMeasurementStaysAFeature) {
  // `lipid` ends in "id" and its values are distinct, but it is a double
  // measurement, not a surrogate key: it must stay a feature and must not
  // join the rows (its readings differ slightly between the silos).
  const size_t rows = 50;
  std::vector<int64_t> ids;
  std::vector<double> lipid_a, lipid_b, outcome, glucose;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(static_cast<int64_t>(i));
    lipid_a.push_back(120.0 + 1.25 * static_cast<double>(i));
    lipid_b.push_back(120.1 + 1.25 * static_cast<double>(i));
    outcome.push_back(static_cast<double>(i % 2));
    glucose.push_back(80.0 + 0.5 * static_cast<double>(i));
  }
  rel::Table patients("patients");
  AMALUR_CHECK_OK(
      patients.AddColumn(rel::Column::FromInt64s("patient_id", ids)));
  AMALUR_CHECK_OK(
      patients.AddColumn(rel::Column::FromDoubles("lipid", lipid_a)));
  AMALUR_CHECK_OK(
      patients.AddColumn(rel::Column::FromDoubles("outcome", outcome)));
  rel::Table labs("labs");
  AMALUR_CHECK_OK(labs.AddColumn(rel::Column::FromInt64s("patient_id", ids)));
  AMALUR_CHECK_OK(labs.AddColumn(rel::Column::FromDoubles("lipid", lipid_b)));
  AMALUR_CHECK_OK(
      labs.AddColumn(rel::Column::FromDoubles("glucose", glucose)));
  Amalur amalur;
  ASSERT_TRUE(
      amalur.catalog()->RegisterSource({"patients", patients, "", false}).ok());
  ASSERT_TRUE(amalur.catalog()->RegisterSource({"labs", labs, "", false}).ok());
  auto integration =
      amalur.Integrate("patients", "labs", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();
  EXPECT_TRUE(integration->mapping.target_schema().Contains("lipid"));
  ASSERT_EQ(integration->matchings.size(), 1u);
  EXPECT_EQ(integration->matchings[0].matched.size(), rows);
}

TEST(ExecutorTest, UnknownLabelColumnRejected) {
  integration::RunningExample ex = integration::MakeRunningExample();
  auto metadata =
      metadata::DiMetadata::Derive(ex.mapping, {&ex.s1, &ex.s2}, ex.matching);
  ASSERT_TRUE(metadata.ok());
  Executor executor;
  TrainRequest request;
  request.label_column = "nope";
  Plan plan{ExecutionStrategy::kFactorize, {}, ""};
  EXPECT_TRUE(executor.Run(*metadata, plan, request).status().IsNotFound());
}

TEST(ExecutorTest, FederatedLogisticUnimplemented) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 20;
  spec.other_rows = 20;
  spec.seed = 79;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  ASSERT_TRUE(metadata.ok());
  Executor executor;
  TrainRequest request;
  request.task = TrainingTask::kLogisticRegression;
  request.label_column = "y";
  Plan plan{ExecutionStrategy::kFederate, {}, ""};
  EXPECT_TRUE(
      executor.Run(*metadata, plan, request).status().IsUnimplemented());
}

TEST(StrategyNamesTest, AllRender) {
  EXPECT_STREQ(ExecutionStrategyToString(ExecutionStrategy::kFactorize),
               "factorize");
  EXPECT_STREQ(ExecutionStrategyToString(ExecutionStrategy::kMaterialize),
               "materialize");
  EXPECT_STREQ(ExecutionStrategyToString(ExecutionStrategy::kFederate),
               "federate");
  EXPECT_STREQ(TrainingTaskToString(TrainingTask::kLinearRegression),
               "linear_regression");
}

}  // namespace
}  // namespace core
}  // namespace amalur
