#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/amalur.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"
#include "testing/table1_scenarios.h"

/// Regression suite for the serving rewrite: on each of the seven Table I
/// scenarios (testing/table1_scenarios.h, rows / 40), for models trained
/// under forced factorize and forced materialize, the batched factorized
/// scorer (partial-score cache) must agree with a dense product over the
/// materialized target to 1e-12, and must reproduce the model's in-sample
/// predictions bit for bit. This pins
/// the serving tier to the paper's core equivalence claim — factorization
/// never changes the answer.

namespace amalur {
namespace serving {
namespace {

TEST(ServingEquivalenceTest, BatchedFactorizedMatchesDenseOnAllScenarios) {
  for (const rel::Table1Scenario& scenario : rel::MakeTable1Scenarios(40)) {
    SCOPED_TRACE(scenario.slug);
    // Integrated as the benches do: generic short column names need the
    // stricter matcher threshold.
    core::AmalurOptions options;
    options.matcher.threshold = 0.75;
    core::Amalur system(options);
    for (const rel::Table& table : scenario.tables) {
      ASSERT_TRUE(
          system.catalog()->RegisterSource({table.name(), table, "", false})
              .ok());
    }
    core::IntegrationSpec spec;
    for (const rel::ScenarioEdge& edge : scenario.edges) {
      spec.edges.push_back({edge.left, edge.right, edge.kind});
    }
    auto integration = system.Integrate(spec);
    ASSERT_TRUE(integration.ok()) << integration.status();
    const la::DenseMatrix target =
        integration->metadata.MaterializeTargetMatrix();
    for (core::ExecutionStrategy strategy :
         {core::ExecutionStrategy::kFactorize,
          core::ExecutionStrategy::kMaterialize}) {
      SCOPED_TRACE(std::string("trained with ") +
                   core::ExecutionStrategyToString(strategy));

      core::TrainRequest request;
      request.label_column = "y";
      request.gd.iterations = 20;
      request.gd.learning_rate = 0.05;
      request.force_strategy = strategy;
      auto model = system.Train(*integration, request);
      ASSERT_TRUE(model.ok()) << model.status();

      ModelRegistry registry;
      auto deployed = model->Deploy(&registry, "scorer");
      ASSERT_TRUE(deployed.ok()) << deployed.status();
      ASSERT_EQ((*deployed)->rows(), target.rows());

      std::vector<RowRef> batch((*deployed)->rows());
      for (size_t i = 0; i < batch.size(); ++i) batch[i].row = i;
      auto factorized = (*deployed)->PredictBatch(batch);
      ASSERT_TRUE(factorized.ok()) << factorized.status();

      // The paper's equivalence claim, serving edition: the partial-score
      // cache and a dense dot product over the materialized target differ
      // by summation order only.
      la::DenseMatrix dense(target.rows(), 1);
      for (size_t i = 0; i < target.rows(); ++i) {
        for (size_t j = 0, f = 0; j < target.cols(); ++j) {
          if (j == model->label_index()) continue;
          dense.At(i, 0) += target.At(i, j) * model->weights().At(f++, 0);
        }
      }
      EXPECT_LT(factorized->MaxAbsDiff(dense), 1e-12);

      // And the cache reproduces the in-sample predictions bit for bit,
      // whatever plan trained the model (same factorized view, same
      // mapped-pair order).
      auto in_sample = model->Predict();
      ASSERT_TRUE(in_sample.ok()) << in_sample.status();
      EXPECT_EQ(*factorized, *in_sample);
    }
  }
}

}  // namespace
}  // namespace serving
}  // namespace amalur
