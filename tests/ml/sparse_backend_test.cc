#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace ml {
namespace {

TEST(SparseBackendTest, OpsMatchDense) {
  Rng rng(1);
  la::DenseMatrix dense = la::DenseMatrix::RandomGaussian(8, 5, &rng);
  // Punch some exact zeros so the CSR structure is non-trivial.
  for (size_t i = 0; i < 8; ++i) dense.At(i, i % 5) = 0.0;
  SparseMaterializedMatrix sparse = SparseMaterializedMatrix::FromDense(dense);
  MaterializedMatrix reference(dense);

  EXPECT_EQ(sparse.rows(), 8u);
  EXPECT_EQ(sparse.cols(), 5u);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(5, 3, &rng);
  EXPECT_LT(sparse.LeftMultiply(x).MaxAbsDiff(reference.LeftMultiply(x)),
            1e-12);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(8, 2, &rng);
  EXPECT_LT(sparse.TransposeLeftMultiply(y).MaxAbsDiff(
                reference.TransposeLeftMultiply(y)),
            1e-12);
  EXPECT_LT(sparse.RowSquaredNorms().MaxAbsDiff(reference.RowSquaredNorms()),
            1e-12);
  EXPECT_LT(sparse.ColSums().MaxAbsDiff(reference.ColSums()), 1e-12);
}

TEST(SparseBackendTest, TrainingMatchesDenseBackendOnNullPaddedTarget) {
  // Outer-join target with heavy NULL padding: all three backends must
  // produce identical models.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kFullOuterJoin;
  spec.base_rows = 80;
  spec.other_rows = 80;
  spec.base_features = 3;
  spec.other_features = 3;
  spec.match_fraction = 0.2;
  spec.row_overlap = 0.2;
  spec.seed = 4;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  ASSERT_TRUE(metadata.ok());

  la::DenseMatrix target = metadata->MaterializeTargetMatrix();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < target.cols(); ++j) feature_cols.push_back(j);
  la::DenseMatrix features_dense = target.SelectColumns(feature_cols);
  la::DenseMatrix labels = target.SelectColumns({0});

  MaterializedMatrix dense(features_dense);
  SparseMaterializedMatrix sparse =
      SparseMaterializedMatrix::FromDense(features_dense);
  auto table = std::make_shared<factorized::FactorizedTable>(
      std::move(*metadata));
  FactorizedFeatures factorized_features(table, 0);

  GradientDescentOptions gd;
  gd.iterations = 30;
  gd.learning_rate = 0.05;
  LinearModel from_dense = TrainLinearRegression(dense, labels, gd);
  LinearModel from_sparse = TrainLinearRegression(sparse, labels, gd);
  LinearModel from_factorized =
      TrainLinearRegression(factorized_features, labels, gd);
  EXPECT_LT(from_sparse.weights.MaxAbsDiff(from_dense.weights), 1e-9);
  EXPECT_LT(from_factorized.weights.MaxAbsDiff(from_dense.weights), 1e-9);
}

TEST(SparseBackendTest, GraphScenariosAgreeAcrossAllThreeBackends) {
  // Snowflake, union-of-stars and conformed-snowflake metadata trained
  // under all three training backends — factorized pushdown, dense
  // materialized, CSR materialized — must produce the same model as the
  // dense baseline.
  auto snowflake = [] {
    rel::SnowflakeSpec spec;
    spec.fact_rows = 90;
    spec.level_rows = {18, 6};
    spec.level_features = {2, 2};
    spec.seed = 23;
    return factorized::DeriveSnowflakeMetadata(rel::GenerateSnowflake(spec));
  }();
  auto union_of_stars = [] {
    rel::UnionOfStarsSpec spec;
    spec.shards = 2;
    spec.fact_rows = 60;
    spec.dim_rows = 12;
    spec.dim_features = 2;
    spec.seed = 24;
    return factorized::DeriveUnionOfStarsMetadata(
        rel::GenerateUnionOfStars(spec));
  }();
  auto conformed = [] {
    rel::ConformedSnowflakeSpec spec;
    spec.fact_rows = 80;
    spec.branches = 2;
    spec.branch_rows = 16;
    spec.shared_rows = 4;
    spec.seed = 25;
    return factorized::DeriveConformedSnowflakeMetadata(
        rel::GenerateConformedSnowflake(spec));
  }();
  ASSERT_TRUE(snowflake.ok()) << snowflake.status();
  ASSERT_TRUE(union_of_stars.ok()) << union_of_stars.status();
  ASSERT_TRUE(conformed.ok()) << conformed.status();

  for (auto* metadata : {&*snowflake, &*union_of_stars, &*conformed}) {
    // Label is target column 0 ("y") in both scenario builders.
    la::DenseMatrix target = metadata->MaterializeTargetMatrix();
    std::vector<size_t> feature_cols;
    for (size_t j = 1; j < target.cols(); ++j) feature_cols.push_back(j);
    la::DenseMatrix features_dense = target.SelectColumns(feature_cols);
    la::DenseMatrix labels = target.SelectColumns({0});

    MaterializedMatrix dense(features_dense);
    SparseMaterializedMatrix sparse =
        SparseMaterializedMatrix::FromDense(features_dense);
    auto table = std::make_shared<factorized::FactorizedTable>(*metadata);
    FactorizedFeatures factorized_features(table, 0);

    GradientDescentOptions gd;
    gd.iterations = 30;
    gd.learning_rate = 0.05;
    LinearModel from_dense = TrainLinearRegression(dense, labels, gd);
    LinearModel from_sparse = TrainLinearRegression(sparse, labels, gd);
    LinearModel from_factorized =
        TrainLinearRegression(factorized_features, labels, gd);
    EXPECT_LT(from_sparse.weights.MaxAbsDiff(from_dense.weights), 1e-9);
    EXPECT_LT(from_factorized.weights.MaxAbsDiff(from_dense.weights), 1e-9);
  }
}

TEST(SparseBackendTest, EmptyMatrixSafe) {
  SparseMaterializedMatrix sparse =
      SparseMaterializedMatrix::FromDense(la::DenseMatrix::Zeros(3, 2));
  EXPECT_EQ(sparse.data().nnz(), 0u);
  la::DenseMatrix x(2, 1);
  EXPECT_TRUE(sparse.LeftMultiply(x).ApproxEquals(la::DenseMatrix(3, 1)));
  EXPECT_TRUE(sparse.RowSquaredNorms().ApproxEquals(la::DenseMatrix(3, 1)));
}

}  // namespace
}  // namespace ml
}  // namespace amalur
