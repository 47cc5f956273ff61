#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/training_matrix.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace ml {
namespace {

/// Builds both backends over the same scenario: factorized features+labels
/// and the equivalent materialized slice. Target column 0 is the label.
struct BothBackends {
  std::shared_ptr<const factorized::FactorizedTable> table;
  std::unique_ptr<FactorizedFeatures> factorized;
  std::unique_ptr<MaterializedMatrix> materialized;
  la::DenseMatrix labels;
};

BothBackends MakeBackends(Result<metadata::DiMetadata> metadata) {
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  BothBackends both;
  both.table = std::make_shared<factorized::FactorizedTable>(
      std::move(metadata).ValueOrDie());
  both.factorized = std::make_unique<FactorizedFeatures>(both.table, 0);
  la::DenseMatrix t = both.table->Materialize();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < t.cols(); ++j) feature_cols.push_back(j);
  both.materialized =
      std::make_unique<MaterializedMatrix>(t.SelectColumns(feature_cols));
  both.labels = both.factorized->Labels();
  return both;
}

Result<metadata::DiMetadata> PairMetadata(rel::JoinKind kind, uint64_t seed) {
  rel::SiloPairSpec spec;
  spec.kind = kind;
  spec.base_rows = 120;
  spec.other_rows = 40;
  spec.base_features = 2;
  spec.other_features = 4;
  spec.shared_features = kind == rel::JoinKind::kUnion ? 3 : 1;
  if (kind == rel::JoinKind::kUnion) {
    spec.base_features = 0;
    spec.other_features = 0;
    spec.match_fraction = 0.0;
    spec.row_overlap = 0.0;
    spec.other_has_label = true;
  }
  spec.seed = seed;
  return factorized::DerivePairMetadata(rel::GenerateSiloPair(spec));
}

/// One integration the two backends must train identically on. The pair
/// joins draw from the test's seed; the rest are fixed fixtures.
struct Scenario {
  std::string name;
  std::function<Result<metadata::DiMetadata>(uint64_t seed)> derive;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;
  for (rel::JoinKind kind :
       {rel::JoinKind::kInnerJoin, rel::JoinKind::kLeftJoin,
        rel::JoinKind::kFullOuterJoin, rel::JoinKind::kUnion}) {
    std::string name = rel::JoinKindToString(kind);
    std::replace(name.begin(), name.end(), ' ', '_');
    scenarios.push_back(
        {name, [kind](uint64_t seed) { return PairMetadata(kind, seed); }});
  }
  // A full outer join padded mostly with NULLs: few matched rows.
  scenarios.push_back({"sparse_full_outer_join", [](uint64_t) {
                         rel::SiloPairSpec spec;
                         spec.kind = rel::JoinKind::kFullOuterJoin;
                         spec.base_rows = 80;
                         spec.other_rows = 80;
                         spec.base_features = 3;
                         spec.other_features = 3;
                         spec.match_fraction = 0.2;
                         spec.row_overlap = 0.2;
                         spec.seed = 4;
                         return factorized::DerivePairMetadata(
                             rel::GenerateSiloPair(spec));
                       }});
  scenarios.push_back({"snowflake", [](uint64_t) {
                         rel::SnowflakeSpec spec;
                         spec.fact_rows = 90;
                         spec.level_rows = {18, 6};
                         spec.level_features = {2, 2};
                         spec.seed = 23;
                         return factorized::DeriveSnowflakeMetadata(
                             rel::GenerateSnowflake(spec));
                       }});
  scenarios.push_back({"union_of_stars", [](uint64_t) {
                         rel::UnionOfStarsSpec spec;
                         spec.shards = 2;
                         spec.fact_rows = 60;
                         spec.dim_rows = 12;
                         spec.dim_features = 2;
                         spec.seed = 24;
                         return factorized::DeriveUnionOfStarsMetadata(
                             rel::GenerateUnionOfStars(spec));
                       }});
  scenarios.push_back({"conformed_snowflake", [](uint64_t) {
                         rel::ConformedSnowflakeSpec spec;
                         spec.fact_rows = 80;
                         spec.branches = 2;
                         spec.branch_rows = 16;
                         spec.shared_rows = 4;
                         spec.seed = 25;
                         return factorized::DeriveConformedSnowflakeMetadata(
                             rel::GenerateConformedSnowflake(spec));
                       }});
  return scenarios;
}

class BackendEquivalenceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(BackendEquivalenceTest, LinearRegressionWeightsAgree) {
  BothBackends both = MakeBackends(GetParam().derive(100));
  GradientDescentOptions options;
  options.iterations = 40;
  options.learning_rate = 0.05;
  LinearModel fact = TrainLinearRegression(*both.factorized, both.labels, options);
  LinearModel mat =
      TrainLinearRegression(*both.materialized, both.labels, options);
  EXPECT_LT(fact.weights.MaxAbsDiff(mat.weights), 1e-9);
  ASSERT_EQ(fact.loss_history.size(), mat.loss_history.size());
  for (size_t i = 0; i < fact.loss_history.size(); ++i) {
    EXPECT_NEAR(fact.loss_history[i], mat.loss_history[i], 1e-8);
  }
}

TEST_P(BackendEquivalenceTest, LogisticRegressionWeightsAgree) {
  BothBackends both = MakeBackends(GetParam().derive(200));
  // Binarize labels for logistic regression.
  la::DenseMatrix binary = both.labels;
  binary.TransformInPlace([](double v) { return v > 0 ? 1.0 : 0.0; });
  GradientDescentOptions options;
  options.iterations = 30;
  options.learning_rate = 0.2;
  options.l2 = 0.01;
  LinearModel fact = TrainLogisticRegression(*both.factorized, binary, options);
  LinearModel mat = TrainLogisticRegression(*both.materialized, binary, options);
  EXPECT_LT(fact.weights.MaxAbsDiff(mat.weights), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, BackendEquivalenceTest, ::testing::ValuesIn(Scenarios()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

TEST(LinearRegressionTest, RecoversPlantedWeightsOnDenseData) {
  // y = Xw* exactly; GD must drive MSE to ~0 and recover w*.
  Rng rng(42);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(200, 3, &rng);
  la::DenseMatrix w_true({{1.5}, {-2.0}, {0.5}});
  la::DenseMatrix y = x.Multiply(w_true);
  MaterializedMatrix features(x);
  GradientDescentOptions options;
  options.iterations = 500;
  options.learning_rate = 0.1;
  LinearModel model = TrainLinearRegression(features, y, options);
  EXPECT_LT(model.weights.MaxAbsDiff(w_true), 1e-3);
  EXPECT_LT(model.loss_history.back(), 1e-5);
  // Loss is monotically non-increasing for a well-conditioned problem.
  for (size_t i = 1; i < model.loss_history.size(); ++i) {
    EXPECT_LE(model.loss_history[i], model.loss_history[i - 1] + 1e-12);
  }
}

TEST(LogisticRegressionTest, SeparatesLinearlySeparableData) {
  Rng rng(43);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(300, 2, &rng);
  la::DenseMatrix y(300, 1);
  for (size_t i = 0; i < 300; ++i) {
    y.At(i, 0) = (x.At(i, 0) + 2.0 * x.At(i, 1)) > 0 ? 1.0 : 0.0;
  }
  MaterializedMatrix features(x);
  GradientDescentOptions options;
  options.iterations = 300;
  options.learning_rate = 0.5;
  LinearModel model = TrainLogisticRegression(features, y, options);
  la::DenseMatrix p = PredictLogistic(features, model.weights);
  EXPECT_GT(BinaryAccuracy(p, y), 0.97);
  EXPECT_LT(model.loss_history.back(), model.loss_history.front());
}

TEST(MetricsTest, KnownValues) {
  la::DenseMatrix p({{0.9}, {0.1}, {0.8}});
  la::DenseMatrix y({{1.0}, {0.0}, {0.0}});
  EXPECT_NEAR(BinaryAccuracy(p, y), 2.0 / 3.0, 1e-12);
  EXPECT_GT(LogLoss(p, y), 0.0);
  la::DenseMatrix pred({{1.0}, {2.0}});
  la::DenseMatrix truth({{0.0}, {4.0}});
  EXPECT_DOUBLE_EQ(MeanSquaredError(pred, truth), (1.0 + 4.0) / 2.0);
}

TEST(MetricsTest, SigmoidProperties) {
  la::DenseMatrix x({{0.0, 1000.0, -1000.0}});
  la::DenseMatrix s = Sigmoid(x);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.5);
  EXPECT_NEAR(s.At(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(s.At(0, 2), 0.0, 1e-12);
  // Symmetry: σ(-x) = 1 - σ(x).
  la::DenseMatrix v({{0.7}});
  EXPECT_NEAR(Sigmoid(v.Scale(-1.0)).At(0, 0), 1.0 - Sigmoid(v).At(0, 0), 1e-12);
}

}  // namespace
}  // namespace ml
}  // namespace amalur
