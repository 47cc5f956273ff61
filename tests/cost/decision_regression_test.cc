// Pins the calibrated optimizer's decision map over the 7 standard Table-1
// scenarios (bench/bench_table1_scenarios.cc, full scale) against the
// measured winners of full-scale bench runs on the reference machine:
// materialize for the inner join and the union, factorize for the five
// redundancy-amplifying shapes. The analytic defaults historically lost the
// union (ROADMAP: predicted factorize at a measured 0.79x–0.94x); the
// pinned calibration must get all seven right, and any cost-model change
// that flips a decision fails here instead of silently degrading plans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/optimizer.h"
#include "cost/calibrator.h"
#include "cost/cost_features.h"
#include "metadata/di_metadata.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace cost {
namespace {

/// Constants fitted by `Calibrator` from a full-scale
/// bench_table1_scenarios run (dual-horizon observation log, 14
/// observations). Decisions compare cost ratios, so the absolute scale —
/// seconds per FLOP on the fitting machine — is irrelevant; what this pins
/// is the decision map. `training_iterations` matches the Table-1 workload.
Calibration PinnedCalibration() {
  Calibration calibration;
  calibration.calibrated = true;
  calibration.source = "pinned Table-1 fit";
  calibration.observations_used = 14;
  calibration.options.training_iterations = 20.0;
  calibration.options.flop_cost = 1.65e-9;
  calibration.options.factorized_cell_cost = 1.33;
  calibration.options.materialize_cell_cost = 1.50e-8;
  calibration.options.factorized_row_overhead = 5.3e-9;
  calibration.options.calibrated = true;
  calibration.options.constants_source = calibration.source;
  return calibration;
}

struct ScenarioCase {
  std::string name;
  metadata::DiMetadata metadata;
  Strategy measured;  // winner of full-scale bench runs
};

metadata::DiMetadata Derive(const rel::SiloPairSpec& spec) {
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return *std::move(metadata);
}

/// Scenario 1: full outer join — partial row/column overlap.
ScenarioCase FullOuterJoinCase() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kFullOuterJoin;
  spec.base_rows = 20000;
  spec.other_rows = 8000;
  spec.base_features = 4;
  spec.other_features = 40;
  spec.shared_features = 2;
  spec.match_fraction = 0.5;
  spec.row_overlap = 0.5;
  spec.seed = 11;
  return {"full_outer_join", Derive(spec), Strategy::kFactorize};
}

/// Scenario 2: inner join, shared sample space (1:1, no fan-out).
ScenarioCase InnerJoinCase() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 20000;
  spec.other_rows = 20000;
  spec.base_features = 4;
  spec.other_features = 40;
  spec.match_fraction = 1.0;
  spec.row_overlap = 1.0;
  spec.seed = 12;
  return {"inner_join", Derive(spec), Strategy::kMaterialize};
}

/// Scenario 3: left join with fan-out 10 (star schema).
ScenarioCase LeftJoinCase() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 40000;
  spec.other_rows = 4000;
  spec.base_features = 2;
  spec.other_features = 60;
  spec.seed = 13;
  return {"left_join", Derive(spec), Strategy::kFactorize};
}

/// Scenario 4: union — shared feature space, disjoint rows.
ScenarioCase UnionCase() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kUnion;
  spec.base_rows = 20000;
  spec.other_rows = 20000;
  spec.base_features = 0;
  spec.other_features = 0;
  spec.shared_features = 30;
  spec.match_fraction = 0.0;
  spec.row_overlap = 0.0;
  spec.other_has_label = true;
  spec.seed = 14;
  return {"union", Derive(spec), Strategy::kMaterialize};
}

/// Scenario 5: snowflake — fact -> dim -> sub-dim chain.
ScenarioCase SnowflakeCase() {
  rel::SnowflakeSpec spec;
  spec.fact_rows = 40000;
  spec.fact_features = 2;
  spec.level_rows = {2000, 50};
  spec.level_features = {30, 20};
  spec.seed = 15;
  rel::Snowflake snowflake = rel::GenerateSnowflake(spec);
  auto metadata = factorized::DeriveSnowflakeMetadata(snowflake);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return {"snowflake", *std::move(metadata), Strategy::kFactorize};
}

/// Scenario 6: union-of-stars — two fact shards, each with a dimension.
ScenarioCase UnionOfStarsCase() {
  rel::UnionOfStarsSpec spec;
  spec.shards = 2;
  spec.fact_rows = 20000;
  spec.fact_features = 2;
  spec.dim_rows = 1000;
  spec.dim_features = 30;
  spec.seed = 16;
  rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);
  auto metadata = factorized::DeriveUnionOfStarsMetadata(scenario);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return {"union_of_stars", *std::move(metadata), Strategy::kFactorize};
}

/// Scenario 7: conformed snowflake — shared dimension through two branches.
ScenarioCase ConformedSnowflakeCase() {
  rel::ConformedSnowflakeSpec spec;
  spec.fact_rows = 40000;
  spec.fact_features = 2;
  spec.branches = 2;
  spec.branch_rows = 1000;
  spec.branch_features = 20;
  spec.shared_rows = 50;
  spec.shared_features = 20;
  spec.seed = 17;
  rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);
  auto metadata = factorized::DeriveConformedSnowflakeMetadata(scenario);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return {"conformed_snowflake", *std::move(metadata), Strategy::kFactorize};
}

core::ExecutionStrategy Expected(Strategy measured) {
  return measured == Strategy::kFactorize ? core::ExecutionStrategy::kFactorize
                                          : core::ExecutionStrategy::kMaterialize;
}

// Headline case 1: the 1:1 inner join measured materialize (0.77x–0.87x
// across full-scale runs) and must stay materialize.
TEST(DecisionRegressionTest, InnerJoinMaterializes) {
  const ScenarioCase c = InnerJoinCase();
  const core::Plan plan =
      core::Optimizer(PinnedCalibration().options).Choose(c.metadata, false);
  EXPECT_EQ(plan.strategy, core::ExecutionStrategy::kMaterialize)
      << plan.explanation;
}

// Headline case 2: the union measured materialize (0.79x–0.94x) and the
// analytic defaults historically predicted factorize; the calibration must
// recover it.
TEST(DecisionRegressionTest, UnionMaterializes) {
  const ScenarioCase c = UnionCase();
  const core::Plan plan =
      core::Optimizer(PinnedCalibration().options).Choose(c.metadata, false);
  EXPECT_EQ(plan.strategy, core::ExecutionStrategy::kMaterialize)
      << plan.explanation;
}

// The full invariant: zero mispredictions over all 7 standard scenarios.
TEST(DecisionRegressionTest, ZeroMispredictionsOnTableOneScenarios) {
  const std::vector<ScenarioCase> cases = {
      FullOuterJoinCase(), InnerJoinCase(),    LeftJoinCase(),
      UnionCase(),         SnowflakeCase(),    UnionOfStarsCase(),
      ConformedSnowflakeCase()};
  const core::Optimizer optimizer{PinnedCalibration().options};
  for (const ScenarioCase& c : cases) {
    const core::Plan plan = optimizer.Choose(c.metadata, false);
    EXPECT_EQ(plan.strategy, Expected(c.measured))
        << c.name << ": " << plan.explanation;
  }
}

// The plan must disclose that calibrated constants made the decision.
TEST(DecisionRegressionTest, ExplanationReportsCalibratedConstants) {
  const core::Plan plan = core::Optimizer(PinnedCalibration().options)
                              .Choose(LeftJoinCase().metadata, false);
  EXPECT_NE(plan.explanation.find("calibrated"), std::string::npos)
      << plan.explanation;
  EXPECT_NE(plan.explanation.find("pinned Table-1 fit"), std::string::npos)
      << plan.explanation;
}

// With no calibration resolved, the same plan discloses the analytic
// defaults — the provenance string always states which constants decided.
TEST(DecisionRegressionTest, ExplanationReportsDefaultConstants) {
  const core::Plan plan =
      core::Optimizer().Choose(LeftJoinCase().metadata, false);
  EXPECT_NE(plan.explanation.find("analytic defaults"), std::string::npos)
      << plan.explanation;
}

}  // namespace
}  // namespace cost
}  // namespace amalur
