#include "ml/training_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "integration/schema_mapping.h"
#include "metadata/di_metadata.h"
#include "relational/join.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace ml {
namespace {

/// A left-join scenario with label at target column 0.
std::shared_ptr<const factorized::FactorizedTable> MakeTable(uint64_t seed) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 50;
  spec.other_rows = 25;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.match_fraction = 0.8;
  spec.seed = seed;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::make_shared<factorized::FactorizedTable>(
      std::move(metadata).ValueOrDie());
}

TEST(MaterializedMatrixTest, OpsMatchDense) {
  Rng rng(1);
  la::DenseMatrix d = la::DenseMatrix::RandomGaussian(6, 4, &rng);
  MaterializedMatrix m(d);
  EXPECT_EQ(m.rows(), 6u);
  EXPECT_EQ(m.cols(), 4u);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(4, 2, &rng);
  EXPECT_TRUE(m.LeftMultiply(x).ApproxEquals(d.Multiply(x), 1e-12));
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(6, 2, &rng);
  EXPECT_TRUE(
      m.TransposeLeftMultiply(y).ApproxEquals(d.TransposeMultiply(y), 1e-12));
  la::DenseMatrix squared = d.Hadamard(d);
  EXPECT_TRUE(m.RowSquaredNorms().ApproxEquals(squared.RowSums(), 1e-12));
  EXPECT_TRUE(m.ColSums().ApproxEquals(d.ColSums(), 1e-12));
}

TEST(FactorizedFeaturesTest, ShapeExcludesLabel) {
  auto table = MakeTable(3);
  FactorizedFeatures features(table, 0);
  EXPECT_EQ(features.rows(), table->rows());
  EXPECT_EQ(features.cols(), table->cols() - 1);
}

TEST(FactorizedFeaturesTest, OpsMatchMaterializedFeatureSlice) {
  auto table = MakeTable(4);
  FactorizedFeatures features(table, 0);
  // Reference: dense T without column 0.
  la::DenseMatrix t = table->Materialize();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < t.cols(); ++j) feature_cols.push_back(j);
  la::DenseMatrix f = t.SelectColumns(feature_cols);

  Rng rng(9);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(features.cols(), 3, &rng);
  EXPECT_LT(features.LeftMultiply(x).MaxAbsDiff(f.Multiply(x)), 1e-10);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(features.rows(), 3, &rng);
  EXPECT_LT(features.TransposeLeftMultiply(y).MaxAbsDiff(
                f.TransposeMultiply(y)),
            1e-10);
  la::DenseMatrix squared = f.Hadamard(f);
  EXPECT_LT(features.RowSquaredNorms().MaxAbsDiff(squared.RowSums()), 1e-9);
  EXPECT_LT(features.ColSums().MaxAbsDiff(f.ColSums()), 1e-10);
}

TEST(FactorizedFeaturesTest, LabelsMatchTargetColumn) {
  auto table = MakeTable(5);
  FactorizedFeatures features(table, 0);
  la::DenseMatrix t = table->Materialize();
  la::DenseMatrix labels = features.Labels();
  ASSERT_EQ(labels.rows(), t.rows());
  for (size_t i = 0; i < t.rows(); ++i) {
    EXPECT_DOUBLE_EQ(labels.At(i, 0), t.At(i, 0));
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
/// The label column y of `LabeledPairWithNonFiniteCells`.
const std::vector<double> kLabelCells = {1.5, -0.0, 2.0, -3.25, 0.0, 4.0, -0.5};

/// A left-joined pair whose target is (y, x, a, b): the base holds the label
/// y (with a −0.0 cell) and x, the other silo a and b; ±inf and NaN cells
/// sit in x and in the other rows that base rows 0–2 and 4–5 reference, and
/// base row 6 references no row.
std::shared_ptr<const factorized::FactorizedTable>
LabeledPairWithNonFiniteCells() {
  rel::Table base("base"), other("other");
  AMALUR_CHECK_OK(base.AddColumn(
      rel::Column::FromInt64s("k", {0, 1, 2, 3, 0, 1, 9})));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("y", kLabelCells)));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles(
      "x", {0.5, 1.0, -2.0, 0.0, 3.0, kInf, kNaN})));
  AMALUR_CHECK_OK(other.AddColumn(rel::Column::FromInt64s("k", {0, 1, 2, 3})));
  AMALUR_CHECK_OK(other.AddColumn(
      rel::Column::FromDoubles("a", {kInf, -kInf, kNaN, 1.0})));
  AMALUR_CHECK_OK(
      other.AddColumn(rel::Column::FromDoubles("b", {kNaN, 2.0, 0.0, -0.0})));
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {{"base", base.schema(), {{"y", "y"}, {"x", "x"}}},
       {"other", other.schema(), {{"a", "a"}, {"b", "b"}}}},
      rel::Schema::AllDouble({"y", "x", "a", "b"}), {{0, "k", 1, "k"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  auto matching = rel::MatchRowsOnKeys(base, other, {"k"}, {"k"});
  AMALUR_CHECK(matching.ok()) << matching.status();
  auto metadata = metadata::DiMetadata::DeriveGraph(
      *mapping, {&base, &other}, {{0, 1, rel::JoinKind::kLeftJoin}},
      {*matching});
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::make_shared<factorized::FactorizedTable>(
      std::move(metadata).ValueOrDie());
}

TEST(FactorizedFeaturesTest, LabelsAreTheLabelCellsBitForBit) {
  // Each row's label is its label cell. Non-finite feature cells on the row,
  // in the base or in the row it references, must not reach it (a product
  // with a one-hot selector makes NaN of 0 · inf), and a −0.0 label cell
  // reads −0.0, not +0.0.
  const la::DenseMatrix labels =
      FactorizedFeatures(LabeledPairWithNonFiniteCells(), 0).Labels();
  ASSERT_EQ(labels.rows(), kLabelCells.size());
  for (size_t i = 0; i < kLabelCells.size(); ++i) {
    EXPECT_EQ(Bits(labels.At(i, 0)), Bits(kLabelCells[i]))
        << "row " << i << ": label " << labels.At(i, 0) << ", cell "
        << kLabelCells[i];
  }
}

TEST(FactorizedFeaturesTest, TargetColumnGathersCellsThroughTheSlots) {
  // A column only the other silo holds reads its cells bit for bit, and
  // +0.0 on the row whose key dangles.
  const la::DenseMatrix a = LabeledPairWithNonFiniteCells()->TargetColumn(2);
  const std::vector<double> expected = {kInf, -kInf, kNaN, 1.0,
                                        kInf, -kInf, 0.0};
  ASSERT_EQ(a.rows(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(Bits(a.At(i, 0)), Bits(expected[i])) << "row " << i;
  }
}

TEST(FactorizedFeaturesTest, MiddleLabelColumnHandled) {
  auto table = MakeTable(7);
  const size_t label = 2;  // not the first column
  FactorizedFeatures features(table, label);
  la::DenseMatrix t = table->Materialize();
  std::vector<size_t> cols;
  for (size_t j = 0; j < t.cols(); ++j) {
    if (j != label) cols.push_back(j);
  }
  la::DenseMatrix f = t.SelectColumns(cols);
  Rng rng(3);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(features.cols(), 2, &rng);
  EXPECT_LT(features.LeftMultiply(x).MaxAbsDiff(f.Multiply(x)), 1e-10);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(features.rows(), 2, &rng);
  EXPECT_LT(
      features.TransposeLeftMultiply(y).MaxAbsDiff(f.TransposeMultiply(y)),
      1e-10);
}

}  // namespace
}  // namespace ml
}  // namespace amalur
