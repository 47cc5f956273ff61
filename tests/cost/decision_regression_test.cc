// Pins the calibrated optimizer's decision map over the seven Table I
// scenarios (testing/table1_scenarios.h, full scale), integrated through
// `Amalur::Integrate` exactly as bench_table1_scenarios integrates them,
// against the measured winners of full-scale bench runs on the reference
// machine: materialize for the inner join and the union, factorize for the
// five redundancy-amplifying shapes. On these integrations the analytic
// defaults predict factorize for the union (measured 0.79x–0.94x); the
// pinned calibration must get all seven right, and any cost-model change
// that flips a decision fails here instead of silently degrading plans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/amalur.h"
#include "core/optimizer.h"
#include "cost/calibrator.h"
#include "metadata/di_metadata.h"
#include "testing/table1_scenarios.h"

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
  std::string slug;
  metadata::DiMetadata metadata;
  core::ExecutionStrategy measured;  // winner of full-scale bench runs
};

/// The seven scenarios at full scale, integrated once per test binary as
/// the benches integrate them: registered under their table names and
/// integrated through `Amalur::Integrate` at matcher threshold 0.75.
const std::vector<ScenarioCase>& Cases() {
  static const std::vector<ScenarioCase> cases = [] {
    std::vector<ScenarioCase> out;
    for (const rel::Table1Scenario& scenario : rel::MakeTable1Scenarios()) {
      core::AmalurOptions options;
      options.matcher.threshold = 0.75;
      core::Amalur system(options);
      for (const rel::Table& table : scenario.tables) {
        AMALUR_CHECK_OK(
            system.catalog()->RegisterSource({table.name(), table, "", false}));
      }
      core::IntegrationSpec spec;
      for (const rel::ScenarioEdge& edge : scenario.edges) {
        spec.edges.push_back({edge.left, edge.right, edge.kind});
      }
      auto integration = system.Integrate(spec);
      AMALUR_CHECK(integration.ok()) << integration.status();
      // The 1:1 inner join and the union measured materialize; the five
      // redundancy-amplifying shapes measured factorize.
      const bool materializes =
          scenario.slug == "inner_join" || scenario.slug == "union";
      out.push_back({scenario.slug, integration->metadata,
                     materializes ? core::ExecutionStrategy::kMaterialize
                                  : core::ExecutionStrategy::kFactorize});
    }
    return out;
  }();
  return cases;
}

const ScenarioCase& Case(const std::string& slug) {
  for (const ScenarioCase& c : Cases()) {
    if (c.slug == slug) return c;
  }
  AMALUR_CHECK(false) << "no scenario " << slug;
  return Cases().front();
}

// Headline case 1: the 1:1 inner join measured materialize (0.77x–0.87x
// across full-scale runs) and must stay materialize.
TEST(DecisionRegressionTest, InnerJoinMaterializes) {
  const ScenarioCase& c = Case("inner_join");
  const core::Plan plan =
      core::Optimizer(PinnedCalibration().options).Choose(c.metadata, false);
  EXPECT_EQ(plan.strategy, core::ExecutionStrategy::kMaterialize)
      << plan.explanation;
}

// Headline case 2: the union measured materialize (0.79x–0.94x) and the
// analytic defaults predict factorize on it; the calibration must recover
// it.
TEST(DecisionRegressionTest, UnionMaterializes) {
  const ScenarioCase& c = Case("union");
  const core::Plan plan =
      core::Optimizer(PinnedCalibration().options).Choose(c.metadata, false);
  EXPECT_EQ(plan.strategy, core::ExecutionStrategy::kMaterialize)
      << plan.explanation;
}

// The full invariant: zero mispredictions over all 7 standard scenarios.
TEST(DecisionRegressionTest, ZeroMispredictionsOnTableOneScenarios) {
  ASSERT_EQ(Cases().size(), 7u);
  const core::Optimizer optimizer{PinnedCalibration().options};
  for (const ScenarioCase& c : Cases()) {
    const core::Plan plan = optimizer.Choose(c.metadata, false);
    EXPECT_EQ(plan.strategy, c.measured)
        << c.slug << ": " << plan.explanation;
  }
}

// The plan must disclose that calibrated constants made the decision.
TEST(DecisionRegressionTest, ExplanationReportsCalibratedConstants) {
  const core::Plan plan = core::Optimizer(PinnedCalibration().options)
                              .Choose(Case("left_join").metadata, false);
  EXPECT_NE(plan.explanation.find("calibrated"), std::string::npos)
      << plan.explanation;
  EXPECT_NE(plan.explanation.find("pinned Table-1 fit"), std::string::npos)
      << plan.explanation;
}

// With no calibration resolved, the same plan discloses the analytic
// defaults — the provenance string always states which constants decided.
TEST(DecisionRegressionTest, ExplanationReportsDefaultConstants) {
  const core::Plan plan =
      core::Optimizer().Choose(Case("left_join").metadata, false);
  EXPECT_NE(plan.explanation.find("analytic defaults"), std::string::npos)
      << plan.explanation;
}

}  // namespace
}  // namespace cost
}  // namespace amalur
