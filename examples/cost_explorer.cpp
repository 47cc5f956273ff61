// Cost explorer: walks the tuple-ratio × feature-ratio plane of Figure 5
// and prints, for every cell, what each estimator decides — the Morpheus
// shape heuristic [27] vs Amalur's DI-metadata cost model — next to the
// measured winner. A compact way to see Areas I/II/III and where the two
// estimators part ways.

#include <cstdio>

#include "common/stopwatch.h"
#include "cost/amalur_cost_model.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "testing/generator.h"
#include "testing/morpheus_heuristic.h"
#include "testing/scenario_builder.h"

namespace {

using namespace amalur;

/// Measures both strategies on one scenario and returns the winner.
cost::Strategy MeasureWinner(const metadata::DiMetadata& metadata,
                             size_t iterations) {
  ml::GradientDescentOptions gd;
  gd.iterations = iterations;
  gd.learning_rate = 0.05;

  Stopwatch watch;
  auto table = std::make_shared<factorized::FactorizedTable>(metadata);
  ml::FactorizedFeatures fact_features(table, 0);
  la::DenseMatrix labels = fact_features.Labels();
  ml::TrainLinearRegression(fact_features, labels, gd);
  const double factorized_seconds = watch.ElapsedSeconds();

  watch.Restart();
  la::DenseMatrix target = metadata.MaterializeTargetMatrix();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < target.cols(); ++j) feature_cols.push_back(j);
  ml::MaterializedMatrix mat_features(target.SelectColumns(feature_cols));
  ml::TrainLinearRegression(mat_features, labels, gd);
  const double materialized_seconds = watch.ElapsedSeconds();

  return factorized_seconds < materialized_seconds
             ? cost::Strategy::kFactorize
             : cost::Strategy::kMaterialize;
}

char Letter(cost::Strategy s) {
  return s == cost::Strategy::kFactorize ? 'F' : 'M';
}

}  // namespace

int main() {
  const size_t kIterations = 20;
  const size_t kOtherRows = 400;
  const double tuple_ratios[] = {1, 2, 4, 8, 16};
  const double feature_ratios[] = {1, 2, 5, 10, 25};

  cost::MorpheusHeuristic morpheus;
  cost::AmalurCostModelOptions options;
  options.training_iterations = static_cast<double>(kIterations);
  cost::AmalurCostModel amalur_model(options);

  std::printf("Each cell: measured / morpheus / amalur  (F = factorize, "
              "M = materialize)\n\n");
  std::printf("%8s |", "TR \\ FR");
  for (double fr : feature_ratios) std::printf("  %5.0f  |", fr);
  std::printf("\n---------+");
  for (size_t i = 0; i < std::size(feature_ratios); ++i) std::printf("---------+");
  std::printf("\n");

  for (double tr : tuple_ratios) {
    std::printf("%8.0f |", tr);
    for (double fr : feature_ratios) {
      rel::SiloPairSpec spec;
      spec.kind = rel::JoinKind::kLeftJoin;
      spec.other_rows = kOtherRows;
      spec.base_rows = static_cast<size_t>(tr * kOtherRows);
      spec.base_features = 2;
      spec.other_features = static_cast<size_t>(fr * 2);
      spec.seed = static_cast<uint64_t>(tr * 1000 + fr);
      rel::SiloPair pair = rel::GenerateSiloPair(spec);
      auto metadata = factorized::DerivePairMetadata(pair);
      AMALUR_CHECK(metadata.ok()) << metadata.status();
      const cost::CostFeatures features =
          cost::CostFeatures::FromMetadata(*metadata);

      const char measured = Letter(MeasureWinner(*metadata, kIterations));
      const char m = Letter(morpheus.Decide(features));
      const char a = Letter(amalur_model.Decide(features));
      std::printf("  %c/%c/%c  |", measured, m, a);
    }
    std::printf("\n");
  }
  std::printf("\nRead: where the middle letter (Morpheus) disagrees with the "
              "first (measured)\nbut the last (Amalur) agrees, the DI-metadata "
              "cost model recovered an Area III case.\n");
  return 0;
}
