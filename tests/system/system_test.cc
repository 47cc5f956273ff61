// Cross-module integration tests: the full journey a downstream user takes —
// silo data on disk as CSV, loaded, integrated automatically, trained under
// every execution strategy — verifying that all paths through the system
// agree with each other and with first-principles references.

#include <gtest/gtest.h>

#include <fstream>

#include "common/rng.h"
#include "core/amalur.h"
#include "factorized/scenario_builder.h"
#include "integration/running_example.h"
#include "relational/csv.h"
#include "relational/generator.h"

namespace amalur {
namespace {

/// Index of the handle's edge `left` -> `right` (edges.size() if absent).
size_t EdgeIndex(const core::IntegrationHandle& handle,
                 const std::string& left, const std::string& right) {
  size_t e = 0;
  while (e < handle.edges.size() &&
         (handle.edges[e].left != left || handle.edges[e].right != right)) {
    ++e;
  }
  return e;
}

TEST(SystemTest, CsvRoundTripThroughFullPipeline) {
  // Write the running example to disk, read it back, integrate, train.
  integration::RunningExample ex = integration::MakeRunningExample();
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(rel::WriteCsvFile(ex.s1, dir + "/er_department.csv").ok());
  ASSERT_TRUE(rel::WriteCsvFile(ex.s2, dir + "/pulmonary.csv").ok());

  auto s1 = rel::ReadCsvFile(dir + "/er_department.csv");
  auto s2 = rel::ReadCsvFile(dir + "/pulmonary.csv");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->NumRows(), 4u);
  EXPECT_EQ(s2->NumRows(), 3u);

  core::Amalur system;
  ASSERT_TRUE(system.catalog()
                  ->RegisterSource({"er", *s1, "disk", false})
                  .ok());
  ASSERT_TRUE(system.catalog()
                  ->RegisterSource({"pulmonary", *s2, "disk", false})
                  .ok());
  auto integration =
      system.Integrate("er", "pulmonary", rel::JoinKind::kFullOuterJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();
  // The CSV round trip preserves everything the pipeline needs: the derived
  // matrices match the in-memory fixture's golden values.
  EXPECT_TRUE(integration->metadata.MaterializeTargetMatrix().ApproxEquals(
      integration::RunningExampleTargetMatrix()));
}

TEST(SystemTest, AllThreeStrategiesAgreeOnOneScenario) {
  // An inner-join scenario is VFL-compatible, so all three strategies can
  // run — and must produce the same linear model. All three are forced
  // through the facade's TrainRequest::force_strategy override.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 90;
  spec.other_rows = 90;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.seed = 31;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur system(options);
  ASSERT_TRUE(
      system.catalog()->RegisterSource({"a", pair.base, "", false}).ok());
  ASSERT_TRUE(
      system.catalog()->RegisterSource({"b", pair.other, "", false}).ok());
  core::IntegrationSpec integration_spec;
  integration_spec.sources = {"a", "b"};
  integration_spec.relationships = {rel::JoinKind::kInnerJoin};
  auto integration = system.Integrate(integration_spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;

  std::vector<la::DenseMatrix> weights;
  for (core::ExecutionStrategy strategy :
       {core::ExecutionStrategy::kFactorize,
        core::ExecutionStrategy::kMaterialize,
        core::ExecutionStrategy::kFederate}) {
    request.force_strategy = strategy;
    auto model = system.Train(*integration, request);
    ASSERT_TRUE(model.ok())
        << core::ExecutionStrategyToString(strategy) << ": " << model.status();
    EXPECT_EQ(model->outcome().strategy_used, strategy);
    weights.push_back(model->weights());
  }
  EXPECT_LT(weights[0].MaxAbsDiff(weights[1]), 1e-8);  // fact == mat
  EXPECT_LT(weights[0].MaxAbsDiff(weights[2]), 1e-8);  // fact == federated
}

TEST(SystemTest, CatalogAccumulatesModelsAcrossIntegrations) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 60;
  spec.other_rows = 20;
  spec.base_features = 2;
  spec.other_features = 2;
  spec.seed = 32;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  core::Amalur system;
  ASSERT_TRUE(
      system.catalog()->RegisterSource({"a", pair.base, "", false}).ok());
  ASSERT_TRUE(
      system.catalog()->RegisterSource({"b", pair.other, "", false}).ok());
  auto integration = system.Integrate("a", "b", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 10;
  request.gd.learning_rate = 0.05;
  ASSERT_TRUE(system.Train(*integration, request, "model-v1").status().ok());
  request.gd.iterations = 20;
  ASSERT_TRUE(system.Train(*integration, request, "model-v2").status().ok());
  // Same name twice is rejected.
  EXPECT_TRUE(
      system.Train(*integration, request, "model-v1").status()
          .IsAlreadyExists());
  EXPECT_EQ(system.catalog()->ModelNames(),
            (std::vector<std::string>{"model-v1", "model-v2"}));
  // The handle kept the DI metadata of the integration run.
  const size_t ab = EdgeIndex(*integration, "a", "b");
  ASSERT_LT(ab, integration->edges.size());
  EXPECT_FALSE(integration->edge_matches[ab].empty());
  EXPECT_FALSE(integration->matchings[ab].matched.empty());
}

TEST(SystemTest, MalformedCsvSurfacesCleanErrors) {
  const std::string path = ::testing::TempDir() + "/broken.csv";
  std::ofstream out(path);
  out << "a,b\n1,2\n3\n";  // ragged row
  out.close();
  auto table = rel::ReadCsvFile(path);
  EXPECT_TRUE(table.status().IsInvalidArgument());
  EXPECT_NE(table.status().message().find("fields"), std::string::npos);
}

TEST(SystemTest, UnionIntegrationEndToEnd) {
  // Horizontal case through the facade: two branches with identical
  // schemas, union integration, then training over the stacked rows.
  rel::Table branch_a = rel::GenerateTable("branch_a", 60, 3, 41);
  rel::Table branch_b = rel::GenerateTable("branch_b", 40, 3, 42);
  core::Amalur system;
  ASSERT_TRUE(
      system.catalog()->RegisterSource({"a", branch_a, "", false}).ok());
  ASSERT_TRUE(
      system.catalog()->RegisterSource({"b", branch_b, "", false}).ok());
  auto integration = system.Integrate("a", "b", rel::JoinKind::kUnion);
  ASSERT_TRUE(integration.ok()) << integration.status();
  EXPECT_EQ(integration->metadata.target_rows(), 100u);

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 60;
  request.gd.learning_rate = 0.1;
  auto model = system.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_LT(model->outcome().loss_history.back(),
            model->outcome().loss_history.front());
}

namespace star {

/// A small three-source star: a fact table referencing two keyed dimensions.
struct StarFixture {
  rel::Table fact{"visits"};
  rel::Table patients;
  rel::Table clinics;
};

rel::Table MakeDimension(const std::string& name, const std::string& key,
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

StarFixture MakeStar(size_t fact_rows, uint64_t seed) {
  Rng rng(seed);
  StarFixture fixture;
  fixture.patients = MakeDimension("patients", "patient_id", 40, 3, &rng);
  fixture.clinics = MakeDimension("clinics", "clinic_id", 10, 2, &rng);
  std::vector<int64_t> pid(fact_rows), cid(fact_rows);
  std::vector<double> charge(fact_rows), visits(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    pid[i] = static_cast<int64_t>(rng.NextUint64(40));
    cid[i] = static_cast<int64_t>(rng.NextUint64(10));
    visits[i] = rng.NextGaussian();
    charge[i] = 1.3 * visits[i] + 0.2 * rng.NextGaussian();
  }
  AMALUR_CHECK_OK(
      fixture.fact.AddColumn(rel::Column::FromInt64s("patient_id", pid)));
  AMALUR_CHECK_OK(
      fixture.fact.AddColumn(rel::Column::FromInt64s("clinic_id", cid)));
  AMALUR_CHECK_OK(
      fixture.fact.AddColumn(rel::Column::FromDoubles("charge", charge)));
  AMALUR_CHECK_OK(
      fixture.fact.AddColumn(rel::Column::FromDoubles("visits", visits)));
  return fixture;
}

/// The hand-built derivation the facade must reproduce: explicit schema
/// mapping, key-equality row matchings, DeriveStar — exactly what
/// examples/star_schema.cpp did before the facade grew the n-ary path.
metadata::DiMetadata HandBuiltMetadata(const StarFixture& fixture) {
  std::vector<std::string> target_names{"charge", "visits"};
  std::vector<integration::ColumnCorrespondence> fact_corr{
      {"charge", "charge"}, {"visits", "visits"}};
  auto dimension_corr = [&target_names](const rel::Table& dim) {
    std::vector<integration::ColumnCorrespondence> corr;
    for (size_t j = 1; j < dim.NumColumns(); ++j) {  // skip the key
      corr.push_back({dim.column(j).name(), dim.column(j).name()});
      target_names.push_back(dim.column(j).name());
    }
    return corr;
  };
  auto patients_corr = dimension_corr(fixture.patients);
  auto clinics_corr = dimension_corr(fixture.clinics);

  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{"visits", fixture.fact.schema(),
                                              fact_corr},
       integration::SchemaMapping::SourceSpec{
           "patients", fixture.patients.schema(), patients_corr},
       integration::SchemaMapping::SourceSpec{
           "clinics", fixture.clinics.schema(), clinics_corr}},
      rel::Schema::AllDouble(target_names),
      {{0, "patient_id", 1, "patient_id"}, {0, "clinic_id", 2, "clinic_id"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();

  std::vector<rel::RowMatching> matchings;
  for (const auto& [dim, key] :
       std::vector<std::pair<const rel::Table*, std::string>>{
           {&fixture.patients, "patient_id"}, {&fixture.clinics, "clinic_id"}}) {
    auto matching = rel::MatchRowsOnKeys(fixture.fact, *dim, {key}, {key});
    AMALUR_CHECK(matching.ok()) << matching.status();
    matchings.push_back(std::move(matching).ValueOrDie());
  }
  auto metadata = metadata::DiMetadata::DeriveStar(
      *mapping, {&fixture.fact, &fixture.patients, &fixture.clinics},
      matchings);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::move(metadata).ValueOrDie();
}

// Registers the star's sources into a caller-owned system (Amalur is
// non-copyable: its catalog holds a reader/writer lock).
void RegisterStarSources(core::Amalur* system, const StarFixture& fixture) {
  AMALUR_CHECK_OK(system->catalog()->RegisterSource(
      {"visits", fixture.fact, "clinic-dept", false}));
  AMALUR_CHECK_OK(system->catalog()->RegisterSource(
      {"patients", fixture.patients, "registry", false}));
  AMALUR_CHECK_OK(system->catalog()->RegisterSource(
      {"clinics", fixture.clinics, "geo", false}));
}

}  // namespace star

TEST(SystemTest, StarFacadeMatchesHandBuiltDerivation) {
  // The automatic n-ary pipeline must reproduce the hand-built star
  // derivation: same target schema, same per-silo shapes, same materialized
  // target matrix.
  star::StarFixture fixture = star::MakeStar(300, 606);
  const metadata::DiMetadata reference = star::HandBuiltMetadata(fixture);

  core::Amalur system;
  star::RegisterStarSources(&system, fixture);
  core::IntegrationSpec spec;
  spec.name = "visits-star";
  spec.sources = {"visits", "patients", "clinics"};
  spec.relationships = {rel::JoinKind::kLeftJoin};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  const metadata::DiMetadata& derived = integration->metadata;
  ASSERT_EQ(derived.num_sources(), reference.num_sources());
  EXPECT_EQ(derived.target_schema().Names(), reference.target_schema().Names());
  EXPECT_EQ(derived.target_rows(), reference.target_rows());
  for (size_t k = 0; k < derived.num_sources(); ++k) {
    EXPECT_EQ(derived.source(k).data.rows(), reference.source(k).data.rows());
    EXPECT_EQ(derived.source(k).data.cols(), reference.source(k).data.cols());
  }
  EXPECT_TRUE(derived.MaterializeTargetMatrix().ApproxEquals(
      reference.MaterializeTargetMatrix()));
  // The named handle is reusable from the catalog, and it carries the
  // per-edge DI metadata.
  EXPECT_TRUE(system.catalog()->GetIntegration("visits-star").ok());
  const size_t patients = EdgeIndex(*integration, "visits", "patients");
  const size_t clinics = EdgeIndex(*integration, "visits", "clinics");
  ASSERT_LT(patients, integration->edges.size());
  ASSERT_LT(clinics, integration->edges.size());
  EXPECT_FALSE(integration->edge_matches[patients].empty());
  EXPECT_FALSE(integration->matchings[clinics].matched.empty());
}

TEST(SystemTest, StarFacadeMergesOverlappingDimensionFeature) {
  // A dimension column sharing a base feature's name schema-matches it and
  // merges into ONE target column (the base value wins under a left join)
  // instead of appearing twice — and both strategies still agree.
  star::StarFixture fixture = star::MakeStar(200, 808);
  {
    Rng rng(909);
    std::vector<double> values(fixture.patients.NumRows());
    for (double& v : values) v = rng.NextGaussian();
    AMALUR_CHECK_OK(fixture.patients.AddColumn(
        rel::Column::FromDoubles("visits", values)));  // overlaps the fact's
  }
  core::Amalur system;
  star::RegisterStarSources(&system, fixture);
  core::IntegrationSpec spec;
  spec.sources = {"visits", "patients", "clinics"};
  spec.relationships = {rel::JoinKind::kLeftJoin};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  size_t visits_columns = 0;
  for (const std::string& name : integration->metadata.target_schema().Names()) {
    if (name.rfind("visits", 0) == 0) ++visits_columns;
  }
  EXPECT_EQ(visits_columns, 1u);  // merged, not duplicated or suffixed

  core::TrainRequest request;
  request.label_column = "charge";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto fact = system.Train(*integration, request);
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto mat = system.Train(*integration, request);
  ASSERT_TRUE(fact.ok()) << fact.status();
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_LT(fact->weights().MaxAbsDiff(mat->weights()), 1e-7);
}

TEST(SystemTest, StarFacadeTrainsPredictsEvaluatesUnderBothStrategies) {
  // Acceptance scenario: a 3-source star through the facade, trained under
  // both the factorized and the materialized strategy — same weights, and
  // matching evaluation metrics on the materialized target table.
  star::StarFixture fixture = star::MakeStar(400, 707);
  core::Amalur system;
  star::RegisterStarSources(&system, fixture);

  core::IntegrationSpec spec;
  spec.sources = {"visits", "patients", "clinics"};
  spec.relationships = {rel::JoinKind::kLeftJoin};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  core::TrainRequest request;
  request.label_column = "charge";
  request.gd.iterations = 60;
  request.gd.learning_rate = 0.05;

  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto factorized = system.Train(*integration, request, "star-fact");
  ASSERT_TRUE(factorized.ok()) << factorized.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto materialized = system.Train(*integration, request, "star-mat");
  ASSERT_TRUE(materialized.ok()) << materialized.status();

  EXPECT_EQ(factorized->outcome().strategy_used,
            core::ExecutionStrategy::kFactorize);
  EXPECT_EQ(materialized->outcome().strategy_used,
            core::ExecutionStrategy::kMaterialize);
  EXPECT_LT(factorized->weights().MaxAbsDiff(materialized->weights()), 1e-8);

  // Serve both models over the same relational table; metrics must match.
  const metadata::DiMetadata& md = integration->metadata;
  rel::Table target = rel::Table::FromMatrix(
      "target", md.MaterializeTargetMatrix(), md.target_schema().Names());
  auto predictions = factorized->Predict(target);
  ASSERT_TRUE(predictions.ok()) << predictions.status();
  EXPECT_EQ(predictions->rows(), md.target_rows());

  auto fact_report = factorized->Evaluate(target);
  auto mat_report = materialized->Evaluate(target);
  ASSERT_TRUE(fact_report.ok()) << fact_report.status();
  ASSERT_TRUE(mat_report.ok()) << mat_report.status();
  EXPECT_EQ(fact_report->rows, md.target_rows());
  EXPECT_NEAR(fact_report->mse, mat_report->mse, 1e-10);
  // The model learned the planted relationship charge ~ 1.3 * visits.
  EXPECT_LT(fact_report->mse, 0.1);

  // Explain exposes both the forced strategy and the optimizer's estimate.
  const core::Plan& plan = system.Explain(*factorized);
  EXPECT_EQ(plan.strategy, core::ExecutionStrategy::kFactorize);
  EXPECT_NE(plan.explanation.find("forced"), std::string::npos);
  // Both trained models are in the catalog model zoo.
  EXPECT_EQ(system.catalog()->ModelNames(),
            (std::vector<std::string>{"star-fact", "star-mat"}));
}

TEST(SystemTest, StarEdgeListSpecMatchesLegacyForm) {
  // The same star, described once with the flat sources list and once with
  // an explicit edge list, derives identical metadata and reports the star
  // shape either way.
  star::StarFixture fixture = star::MakeStar(250, 505);
  core::Amalur legacy_system;
  star::RegisterStarSources(&legacy_system, fixture);
  core::Amalur edge_system;
  star::RegisterStarSources(&edge_system, fixture);

  core::IntegrationSpec legacy;
  legacy.sources = {"visits", "patients", "clinics"};
  legacy.relationships = {rel::JoinKind::kLeftJoin};
  auto from_legacy = legacy_system.Integrate(legacy);
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status();

  core::IntegrationSpec edge_form;
  edge_form.edges = {{"visits", "patients", rel::JoinKind::kLeftJoin},
                     {"visits", "clinics", rel::JoinKind::kLeftJoin}};
  auto from_edges = edge_system.Integrate(edge_form);
  ASSERT_TRUE(from_edges.ok()) << from_edges.status();

  EXPECT_EQ(from_edges->shape, metadata::IntegrationShape::kStar);
  EXPECT_EQ(from_edges->source_names, from_legacy->source_names);
  EXPECT_EQ(from_edges->metadata.target_schema().Names(),
            from_legacy->metadata.target_schema().Names());
  EXPECT_EQ(from_edges->metadata.MaterializeTargetMatrix().MaxAbsDiff(
                from_legacy->metadata.MaterializeTargetMatrix()),
            0.0);
  EXPECT_NE(
      edge_system.Explain(*from_edges).explanation.find("graph shape: star"),
      std::string::npos);
}

TEST(SystemTest, SnowflakeEdgeListEndToEnd) {
  // Acceptance scenario: a 3-level snowflake (fact -> dim -> sub-dim)
  // integrated through an edge-list spec — automatic key discovery down the
  // chain, composed fan-out metadata, matching weights under both forced
  // strategies, and a shape-aware Explain.
  rel::SnowflakeSpec snow_spec;
  snow_spec.fact_rows = 400;
  snow_spec.fact_features = 2;
  snow_spec.level_rows = {40, 8};
  snow_spec.level_features = {3, 2};
  snow_spec.seed = 17;
  rel::Snowflake snowflake = rel::GenerateSnowflake(snow_spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;  // generic short names need evidence
  core::Amalur system(options);
  for (const rel::Table& table : snowflake.tables) {
    ASSERT_TRUE(
        system.catalog()->RegisterSource({table.name(), table, "", false}).ok());
  }

  core::IntegrationSpec spec;
  spec.name = "sales-snowflake";
  spec.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  EXPECT_EQ(integration->shape, metadata::IntegrationShape::kSnowflake);
  EXPECT_EQ(integration->source_names,
            (std::vector<std::string>{"fact", "dim0", "dim1"}));
  // Keys discovered along the chain stay out of the feature space.
  EXPECT_EQ(integration->metadata.target_schema().Names(),
            (std::vector<std::string>{"y", "x0", "x1", "u0", "u1", "u2", "v0",
                                      "v1"}));
  // The automatic pipeline reproduces the hand-built graph derivation.
  auto reference = factorized::DeriveSnowflakeMetadata(snowflake);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(integration->metadata.MaterializeTargetMatrix().ApproxEquals(
      reference->MaterializeTargetMatrix()));

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 50;
  request.gd.learning_rate = 0.05;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto fact = system.Train(*integration, request, "snow-fact");
  ASSERT_TRUE(fact.ok()) << fact.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto mat = system.Train(*integration, request, "snow-mat");
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_LT(fact->weights().MaxAbsDiff(mat->weights()), 1e-8);
  // Training genuinely learned the planted chain signal.
  EXPECT_LT(fact->outcome().loss_history.back(),
            fact->outcome().loss_history.front());

  // Explain reports the graph shape for the integration and both models.
  EXPECT_NE(system.Explain(*integration).explanation.find(
                "graph shape: snowflake"),
            std::string::npos);
  EXPECT_NE(system.Explain(*fact).explanation.find("graph shape: snowflake"),
            std::string::npos);

  // In-sample factorized serving agrees with the dense fallback.
  auto fact_scores = fact->Predict();
  auto mat_scores = mat->Predict();
  ASSERT_TRUE(fact_scores.ok()) << fact_scores.status();
  ASSERT_TRUE(mat_scores.ok()) << mat_scores.status();
  EXPECT_EQ(fact_scores->rows(), integration->metadata.target_rows());
  EXPECT_LT(fact_scores->MaxAbsDiff(*mat_scores), 1e-6);
}

TEST(SystemTest, ConformedDimensionEdgeListEndToEnd) {
  // Acceptance scenario: a DAG — one shared ("conformed") dimension
  // referenced through two intermediate dimensions — integrated through an
  // edge-list spec. Automatic key discovery runs per edge (the shared
  // dimension is matched against BOTH parents), the shared columns appear
  // exactly once in the target schema, and training matches a materialized
  // run at 1e-8 under both forced strategies.
  rel::ConformedSnowflakeSpec conformed_spec;
  conformed_spec.fact_rows = 400;
  conformed_spec.fact_features = 2;
  conformed_spec.branches = 2;
  conformed_spec.branch_rows = 40;
  conformed_spec.branch_features = 2;
  conformed_spec.shared_rows = 8;
  conformed_spec.shared_features = 2;
  conformed_spec.seed = 43;
  rel::ConformedSnowflake scenario =
      rel::GenerateConformedSnowflake(conformed_spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur system(options);
  for (const rel::Table& table : scenario.tables) {
    ASSERT_TRUE(
        system.catalog()->RegisterSource({table.name(), table, "", false}).ok());
  }

  core::IntegrationSpec spec;
  spec.name = "sales-conformed";
  spec.edges = {{"fact", "branch0", rel::JoinKind::kLeftJoin},
                {"fact", "branch1", rel::JoinKind::kLeftJoin},
                {"branch0", "shared", rel::JoinKind::kLeftJoin},
                {"branch1", "shared", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  EXPECT_EQ(integration->shape,
            metadata::IntegrationShape::kConformedSnowflake);
  EXPECT_EQ(integration->metadata.num_shared_dimensions(), 1u);
  // The shared dimension is visited once, after its last parent.
  EXPECT_EQ(integration->source_names,
            (std::vector<std::string>{"fact", "branch0", "branch1", "shared"}));
  // Keys stay out of the feature space; the shared dimension's features
  // appear exactly once.
  EXPECT_EQ(integration->metadata.target_schema().Names(),
            (std::vector<std::string>{"y", "x0", "x1", "u0", "u1", "v0", "v1",
                                      "w0", "w1"}));
  // The automatic pipeline reproduces the hand-built DAG derivation.
  auto reference = factorized::DeriveConformedSnowflakeMetadata(scenario);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(integration->metadata.MaterializeTargetMatrix().ApproxEquals(
      reference->MaterializeTargetMatrix()));

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 50;
  request.gd.learning_rate = 0.05;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto fact = system.Train(*integration, request, "conformed-fact");
  ASSERT_TRUE(fact.ok()) << fact.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto mat = system.Train(*integration, request, "conformed-mat");
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_LT(fact->weights().MaxAbsDiff(mat->weights()), 1e-8);
  EXPECT_LT(fact->outcome().loss_history.back(),
            fact->outcome().loss_history.front());

  // Explain names the conformed shape and the shared-dimension count.
  EXPECT_NE(system.Explain(*integration)
                .explanation.find(
                    "graph shape: conformed-snowflake (1 shared dimension)"),
            std::string::npos)
      << system.Explain(*integration).explanation;

  // In-sample factorized serving agrees with the dense fallback.
  auto fact_scores = fact->Predict();
  auto mat_scores = mat->Predict();
  ASSERT_TRUE(fact_scores.ok()) << fact_scores.status();
  ASSERT_TRUE(mat_scores.ok()) << mat_scores.status();
  EXPECT_LT(fact_scores->MaxAbsDiff(*mat_scores), 1e-6);

  // Per-edge artifacts cover BOTH parents of the shared dimension.
  for (const char* branch : {"branch0", "branch1"}) {
    const size_t e = EdgeIndex(*integration, branch, "shared");
    ASSERT_LT(e, integration->edges.size()) << branch;
    EXPECT_FALSE(integration->matchings[e].matched.empty()) << branch;
  }
}

TEST(SystemTest, InnerJoinEdgeEndToEnd) {
  // An inner-join edge inside a graph restricts the target to rows where
  // the dimension matched — the row set the relational inner join
  // materializes — and the restricted scenario still trains identically
  // under both strategies.
  rel::ConformedSnowflakeSpec conformed_spec;
  conformed_spec.fact_rows = 300;
  conformed_spec.fact_features = 2;
  conformed_spec.branches = 2;
  conformed_spec.branch_rows = 30;
  conformed_spec.branch_features = 2;
  conformed_spec.shared_rows = 6;
  conformed_spec.shared_features = 1;
  conformed_spec.match_fraction = 0.8;  // 60 rows carry dangling references
  conformed_spec.seed = 47;
  rel::ConformedSnowflake scenario =
      rel::GenerateConformedSnowflake(conformed_spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur system(options);
  for (const rel::Table& table : scenario.tables) {
    ASSERT_TRUE(
        system.catalog()->RegisterSource({table.name(), table, "", false}).ok());
  }

  core::IntegrationSpec spec;
  spec.edges = {{"fact", "branch0", rel::JoinKind::kInnerJoin},
                {"fact", "branch1", rel::JoinKind::kLeftJoin},
                {"branch0", "shared", rel::JoinKind::kLeftJoin},
                {"branch1", "shared", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  // The inner edge drops exactly the relational inner join's complement.
  auto joined = rel::HashJoin(scenario.tables[0], scenario.tables[1],
                              {"branch0_id"}, {"branch0_id"},
                              rel::JoinKind::kInnerJoin);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(integration->metadata.target_rows(), joined->table.NumRows());
  EXPECT_EQ(integration->metadata.target_rows(), 240u);

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto fact = system.Train(*integration, request);
  ASSERT_TRUE(fact.ok()) << fact.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto mat = system.Train(*integration, request);
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_LT(fact->weights().MaxAbsDiff(mat->weights()), 1e-8);

  // Regression: a DEPTH-1 graph with an inner edge keeps the star shape,
  // and the inner restriction applies there too.
  core::IntegrationSpec star_spec;
  star_spec.edges = {{"fact", "branch0", rel::JoinKind::kInnerJoin},
                     {"fact", "branch1", rel::JoinKind::kLeftJoin}};
  auto star_integration = system.Integrate(star_spec);
  ASSERT_TRUE(star_integration.ok()) << star_integration.status();
  EXPECT_EQ(star_integration->shape, metadata::IntegrationShape::kStar);
  EXPECT_EQ(star_integration->metadata.target_rows(), 240u);
}

TEST(SystemTest, UnionOfStarsEdgeListEndToEnd) {
  // Acceptance scenario: two horizontally partitioned fact shards, each
  // with a private dimension, stacked through a union edge — Table I's
  // union relationship between silos that are themselves stars.
  rel::UnionOfStarsSpec union_spec;
  union_spec.shards = 2;
  union_spec.fact_rows = 300;
  union_spec.fact_features = 2;
  union_spec.dim_rows = 30;
  union_spec.dim_features = 3;
  union_spec.seed = 19;
  rel::UnionOfStars scenario = rel::GenerateUnionOfStars(union_spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur system(options);
  for (const rel::Table& table : scenario.tables) {
    ASSERT_TRUE(
        system.catalog()->RegisterSource({table.name(), table, "", false}).ok());
  }

  core::IntegrationSpec spec;
  spec.name = "claims-shards";
  spec.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                {"fact0", "fact1", rel::JoinKind::kUnion},
                {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();

  EXPECT_EQ(integration->shape, metadata::IntegrationShape::kUnionOfStars);
  // Shard-major topological order: each fact precedes its dimensions.
  EXPECT_EQ(integration->source_names,
            (std::vector<std::string>{"fact0", "dim0", "fact1", "dim1"}));
  EXPECT_EQ(integration->metadata.target_rows(), 2 * union_spec.fact_rows);
  EXPECT_EQ(integration->metadata.num_shards(), 2u);
  // Shared fact columns merged into one target column each; shard keys out.
  EXPECT_EQ(integration->metadata.target_schema().Names(),
            (std::vector<std::string>{"y", "x0", "x1", "u0", "u1", "u2", "v0",
                                      "v1", "v2"}));
  auto reference = factorized::DeriveUnionOfStarsMetadata(scenario);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(integration->metadata.MaterializeTargetMatrix().ApproxEquals(
      reference->MaterializeTargetMatrix()));

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 50;
  request.gd.learning_rate = 0.05;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto fact = system.Train(*integration, request);
  ASSERT_TRUE(fact.ok()) << fact.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto mat = system.Train(*integration, request);
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_LT(fact->weights().MaxAbsDiff(mat->weights()), 1e-8);
  EXPECT_LT(fact->outcome().loss_history.back(),
            fact->outcome().loss_history.front());

  EXPECT_NE(system.Explain(*integration).explanation.find(
                "graph shape: union-of-stars"),
            std::string::npos);
  EXPECT_NE(
      system.Explain(*fact).explanation.find("graph shape: union-of-stars"),
      std::string::npos);

  // In-sample serving across the stacked blocks, both routes agreeing.
  auto fact_scores = fact->Predict();
  auto mat_scores = mat->Predict();
  ASSERT_TRUE(fact_scores.ok()) << fact_scores.status();
  ASSERT_TRUE(mat_scores.ok()) << mat_scores.status();
  EXPECT_EQ(fact_scores->rows(), 2 * union_spec.fact_rows);
  EXPECT_LT(fact_scores->MaxAbsDiff(*mat_scores), 1e-6);

  // The named handle landed in the catalog, and it carries the per-edge
  // artifacts.
  EXPECT_TRUE(system.catalog()->GetIntegration("claims-shards").ok());
  const size_t shards = EdgeIndex(*integration, "fact0", "fact1");
  const size_t dim1 = EdgeIndex(*integration, "fact1", "dim1");
  ASSERT_LT(shards, integration->edges.size());
  ASSERT_LT(dim1, integration->edges.size());
  EXPECT_FALSE(integration->edge_matches[shards].empty());
  EXPECT_FALSE(integration->matchings[dim1].matched.empty());
}

TEST(SystemTest, PrivacyConstrainedStarTrainsNarySilos) {
  // Acceptance scenario: a 3-silo star whose sources may not move. The
  // optimizer federates, the executor runs the n-ary vertical protocol with
  // one party per silo, and the weights equal centralized training on the
  // materialized join — computed by a second, unconstrained system over the
  // same tables.
  star::StarFixture fixture = star::MakeStar(300, 1001);

  core::Amalur constrained;
  AMALUR_CHECK_OK(constrained.catalog()->RegisterSource(
      {"visits", fixture.fact, "clinic-dept", /*privacy_sensitive=*/true}));
  AMALUR_CHECK_OK(constrained.catalog()->RegisterSource(
      {"patients", fixture.patients, "registry", /*privacy_sensitive=*/true}));
  AMALUR_CHECK_OK(constrained.catalog()->RegisterSource(
      {"clinics", fixture.clinics, "geo", /*privacy_sensitive=*/true}));
  core::IntegrationSpec spec;
  spec.sources = {"visits", "patients", "clinics"};
  spec.relationships = {rel::JoinKind::kLeftJoin};
  auto integration = constrained.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();
  EXPECT_TRUE(integration->privacy_constrained);

  const core::Plan plan = constrained.Explain(*integration);
  EXPECT_EQ(plan.strategy, core::ExecutionStrategy::kFederate);
  EXPECT_NE(plan.explanation.find("vertical n-ary FLR over 3 silos"),
            std::string::npos)
      << plan.explanation;

  core::TrainRequest request;
  request.label_column = "charge";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;
  auto model = constrained.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->outcome().strategy_used, core::ExecutionStrategy::kFederate);
  EXPECT_EQ(model->outcome().federated_silos, 3u);
  EXPECT_EQ(model->outcome().federated_rounds, 40u);
  EXPECT_GT(model->outcome().bytes_transferred, 0u);
  EXPECT_NE(model->plan().explanation.find("federated: 3 silos, 40 rounds"),
            std::string::npos)
      << model->plan().explanation;

  // Forcing a data-moving strategy over the constrained integration is
  // still refused.
  for (core::ExecutionStrategy strategy :
       {core::ExecutionStrategy::kFactorize,
        core::ExecutionStrategy::kMaterialize}) {
    request.force_strategy = strategy;
    EXPECT_TRUE(constrained.Train(*integration, request)
                    .status()
                    .IsFailedPrecondition());
  }
  request.force_strategy.reset();

  // Equivalence: an unconstrained system over the same silos, trained
  // centralized (materialized), produces the same model.
  core::Amalur open;
  star::RegisterStarSources(&open, fixture);
  auto open_integration = open.Integrate(spec);
  ASSERT_TRUE(open_integration.ok()) << open_integration.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto central = open.Train(*open_integration, request);
  ASSERT_TRUE(central.ok()) << central.status();
  EXPECT_LT(model->weights().MaxAbsDiff(central->weights()), 1e-8);

  // The federated model serves in-sample predictions without the caller
  // materializing anything.
  auto scores = model->Predict();
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_EQ(scores->rows(), integration->metadata.target_rows());
}

TEST(SystemTest, PrivacyConstrainedSnowflakeFederatesComposedSilos) {
  // A privacy-constrained snowflake: the leaf dimension only reaches the
  // fact through the chain, so its federated party block is built from the
  // composed indicator the graph derivation assigned — and n-ary VFL still
  // equals centralized training.
  rel::SnowflakeSpec snow_spec;
  snow_spec.fact_rows = 300;
  snow_spec.fact_features = 2;
  snow_spec.level_rows = {30, 6};
  snow_spec.level_features = {3, 2};
  snow_spec.seed = 23;
  rel::Snowflake snowflake = rel::GenerateSnowflake(snow_spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur constrained(options);
  core::Amalur open(options);
  for (const rel::Table& table : snowflake.tables) {
    ASSERT_TRUE(constrained.catalog()
                    ->RegisterSource({table.name(), table, "silo", true})
                    .ok());
    ASSERT_TRUE(
        open.catalog()->RegisterSource({table.name(), table, "", false}).ok());
  }
  core::IntegrationSpec spec;
  spec.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
  auto integration = constrained.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();
  EXPECT_EQ(integration->shape, metadata::IntegrationShape::kSnowflake);
  EXPECT_TRUE(integration->privacy_constrained);
  EXPECT_NE(constrained.Explain(*integration)
                .explanation.find("vertical n-ary FLR over 3 silos"),
            std::string::npos);

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;
  auto model = constrained.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->outcome().strategy_used, core::ExecutionStrategy::kFederate);
  EXPECT_EQ(model->outcome().federated_silos, 3u);
  EXPECT_LT(model->outcome().loss_history.back(),
            model->outcome().loss_history.front());

  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  EXPECT_TRUE(
      constrained.Train(*integration, request).status().IsFailedPrecondition());

  auto open_integration = open.Integrate(spec);
  ASSERT_TRUE(open_integration.ok()) << open_integration.status();
  auto central = open.Train(*open_integration, request);
  ASSERT_TRUE(central.ok()) << central.status();
  EXPECT_LT(model->weights().MaxAbsDiff(central->weights()), 1e-8);
}

TEST(SystemTest, PrivacyConstrainedConformedDimensionFederates) {
  // A privacy-constrained conformed snowflake: the shared dimension's silo
  // joins the vertical protocol ONCE — one masked contribution block,
  // reached through several parents' composed indicator chains — and still
  // owns its feature columns exclusively. N-ary VFL equals centralized
  // training on the materialized DAG.
  rel::ConformedSnowflakeSpec conformed_spec;
  conformed_spec.fact_rows = 240;
  conformed_spec.fact_features = 2;
  conformed_spec.branches = 2;
  conformed_spec.branch_rows = 24;
  conformed_spec.branch_features = 2;
  conformed_spec.shared_rows = 6;
  conformed_spec.shared_features = 2;
  conformed_spec.seed = 53;
  rel::ConformedSnowflake scenario =
      rel::GenerateConformedSnowflake(conformed_spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur constrained(options);
  core::Amalur open(options);
  for (const rel::Table& table : scenario.tables) {
    ASSERT_TRUE(constrained.catalog()
                    ->RegisterSource({table.name(), table, "silo", true})
                    .ok());
    ASSERT_TRUE(
        open.catalog()->RegisterSource({table.name(), table, "", false}).ok());
  }
  core::IntegrationSpec spec;
  spec.edges = {{"fact", "branch0", rel::JoinKind::kLeftJoin},
                {"fact", "branch1", rel::JoinKind::kLeftJoin},
                {"branch0", "shared", rel::JoinKind::kLeftJoin},
                {"branch1", "shared", rel::JoinKind::kLeftJoin}};
  auto integration = constrained.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();
  EXPECT_EQ(integration->shape,
            metadata::IntegrationShape::kConformedSnowflake);
  EXPECT_TRUE(integration->privacy_constrained);
  const core::Plan plan = constrained.Explain(*integration);
  EXPECT_NE(plan.explanation.find("conformed-snowflake"), std::string::npos)
      << plan.explanation;
  EXPECT_NE(plan.explanation.find("vertical n-ary FLR over 4 silos"),
            std::string::npos)
      << plan.explanation;

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 40;
  request.gd.learning_rate = 0.05;
  auto model = constrained.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->outcome().strategy_used, core::ExecutionStrategy::kFederate);
  EXPECT_EQ(model->outcome().federated_silos, 4u);  // shared silo counted once

  auto open_integration = open.Integrate(spec);
  ASSERT_TRUE(open_integration.ok()) << open_integration.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto central = open.Train(*open_integration, request);
  ASSERT_TRUE(central.ok()) << central.status();
  EXPECT_LT(model->weights().MaxAbsDiff(central->weights()), 1e-8);
}

TEST(SystemTest, PrivacyConstrainedUnionOfStarsRunsPerShardFedAvg) {
  // Union-of-stars silos are horizontally partitioned, so the federated
  // strategy routes to FedAvg with one participant per fact shard. With one
  // local epoch per round the weighted average IS the centralized gradient
  // step, so the global model equals centralized training over the stacked
  // target.
  rel::UnionOfStarsSpec union_spec;
  union_spec.shards = 2;
  union_spec.fact_rows = 200;
  union_spec.fact_features = 2;
  union_spec.dim_rows = 20;
  union_spec.dim_features = 3;
  union_spec.seed = 29;
  rel::UnionOfStars scenario = rel::GenerateUnionOfStars(union_spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur constrained(options);
  core::Amalur open(options);
  for (const rel::Table& table : scenario.tables) {
    ASSERT_TRUE(constrained.catalog()
                    ->RegisterSource({table.name(), table, "silo", true})
                    .ok());
    ASSERT_TRUE(
        open.catalog()->RegisterSource({table.name(), table, "", false}).ok());
  }
  core::IntegrationSpec spec;
  spec.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                {"fact0", "fact1", rel::JoinKind::kUnion},
                {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
  auto integration = constrained.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();
  EXPECT_EQ(integration->shape, metadata::IntegrationShape::kUnionOfStars);
  EXPECT_TRUE(integration->privacy_constrained);
  EXPECT_NE(constrained.Explain(*integration)
                .explanation.find("horizontal FedAvg over 2 fact shards"),
            std::string::npos);

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 50;
  request.gd.learning_rate = 0.05;
  request.gd.l2 = 0.01;  // regularization reaches the shards' local steps
  auto model = constrained.Train(*integration, request);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->outcome().strategy_used, core::ExecutionStrategy::kFederate);
  EXPECT_EQ(model->outcome().federated_silos, 2u);  // one per shard
  EXPECT_EQ(model->outcome().federated_rounds, 50u);
  EXPECT_GT(model->outcome().bytes_transferred, 0u);

  request.force_strategy = core::ExecutionStrategy::kFactorize;
  EXPECT_TRUE(
      constrained.Train(*integration, request).status().IsFailedPrecondition());

  auto open_integration = open.Integrate(spec);
  ASSERT_TRUE(open_integration.ok()) << open_integration.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto central = open.Train(*open_integration, request);
  ASSERT_TRUE(central.ok()) << central.status();
  EXPECT_LT(model->weights().MaxAbsDiff(central->weights()), 1e-8);

  // The federated model serves the stacked target in-sample.
  auto scores = model->Predict();
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_EQ(scores->rows(), 2 * union_spec.fact_rows);
}

}  // namespace
}  // namespace amalur
