#include "factorized/factorized_table.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "factorized/scenario_builder.h"
#include "integration/running_example.h"

namespace amalur {
namespace factorized {
namespace {

using integration::MakeRunningExample;
using integration::RunningExample;
using integration::RunningExampleTargetMatrix;

FactorizedTable MakeRunningExampleTable() {
  RunningExample ex = MakeRunningExample();
  auto metadata =
      metadata::DiMetadata::Derive(ex.mapping, {&ex.s1, &ex.s2}, ex.matching);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return FactorizedTable(std::move(metadata).ValueOrDie());
}

TEST(FactorizedTableTest, MaterializeMatchesFigure4) {
  FactorizedTable t = MakeRunningExampleTable();
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_TRUE(t.Materialize().ApproxEquals(RunningExampleTargetMatrix()));
}

TEST(FactorizedTableTest, LmmRewriteMatchesPaperEquation) {
  // TX → I1 D1 M1ᵀ X + ((I2 D2 M2ᵀ) ∘ R2) X (rewrite rule 2, Figure 4c).
  FactorizedTable t = MakeRunningExampleTable();
  Rng rng(7);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(4, 2, &rng);
  la::DenseMatrix expected = RunningExampleTargetMatrix().Multiply(x);
  EXPECT_LT(t.LeftMultiply(x).MaxAbsDiff(expected), 1e-10);

  // Explicit two-term assembly from the paper: T1 X + (T2 ∘ R2) X.
  const metadata::DiMetadata& md = t.metadata();
  la::DenseMatrix t1x = md.SourceContribution(0).Multiply(x);
  la::DenseMatrix t2 = md.SourceContribution(1);
  md.source(1).redundancy.ApplyInPlace(&t2);
  la::DenseMatrix assembled = t1x.Add(t2.Multiply(x));
  EXPECT_LT(t.LeftMultiply(x).MaxAbsDiff(assembled), 1e-10);
}

TEST(FactorizedTableTest, MorpheusRuleDoubleCountsOnOverlap) {
  // The running example has overlapping columns (m, a) on the matched row;
  // Morpheus-style assembly without R double-counts them.
  RunningExample ex = MakeRunningExample();
  auto metadata =
      metadata::DiMetadata::Derive(ex.mapping, {&ex.s1, &ex.s2}, ex.matching);
  ASSERT_TRUE(metadata.ok());
  MorpheusReference morpheus(std::move(metadata).ValueOrDie());
  la::DenseMatrix x = la::DenseMatrix::Identity(4);
  la::DenseMatrix morpheus_t = morpheus.LeftMultiply(x);
  la::DenseMatrix expected = RunningExampleTargetMatrix();
  EXPECT_FALSE(morpheus_t.ApproxEquals(expected));
  EXPECT_DOUBLE_EQ(morpheus_t.At(3, 0), 2.0);   // Jane's m doubled
  EXPECT_DOUBLE_EQ(morpheus_t.At(3, 1), 74.0);  // Jane's a doubled
  EXPECT_DOUBLE_EQ(morpheus_t.At(3, 3), 92.0);  // o unaffected
}

/// Factorized == materialized over every Table I dataset relationship and a
/// sweep of shapes/overlaps — the correctness core of the whole system.
struct ScenarioParam {
  rel::JoinKind kind;
  size_t base_rows, other_rows;
  size_t base_features, other_features, shared_features;
  double match_fraction, row_overlap;
  double null_ratio;
  bool other_has_label;
};

class FactorizedEquivalenceTest : public ::testing::TestWithParam<ScenarioParam> {
 protected:
  FactorizedTable MakeTable() {
    const ScenarioParam& p = GetParam();
    rel::SiloPairSpec spec;
    spec.kind = p.kind;
    spec.base_rows = p.base_rows;
    spec.other_rows = p.other_rows;
    spec.base_features = p.base_features;
    spec.other_features = p.other_features;
    spec.shared_features = p.shared_features;
    spec.match_fraction = p.match_fraction;
    spec.row_overlap = p.row_overlap;
    spec.null_ratio = p.null_ratio;
    spec.other_has_label = p.other_has_label;
    spec.seed = 1234 + static_cast<uint64_t>(p.kind);
    rel::SiloPair pair = rel::GenerateSiloPair(spec);
    auto metadata = DerivePairMetadata(pair);
    AMALUR_CHECK(metadata.ok()) << metadata.status();
    return FactorizedTable(std::move(metadata).ValueOrDie());
  }
};

TEST_P(FactorizedEquivalenceTest, LeftMultiply) {
  FactorizedTable t = MakeTable();
  la::DenseMatrix dense = t.Materialize();
  Rng rng(1);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(t.cols(), 3, &rng);
  EXPECT_LT(t.LeftMultiply(x).MaxAbsDiff(dense.Multiply(x)), 1e-9);
}

TEST_P(FactorizedEquivalenceTest, TransposeLeftMultiply) {
  FactorizedTable t = MakeTable();
  la::DenseMatrix dense = t.Materialize();
  Rng rng(2);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(t.rows(), 3, &rng);
  EXPECT_LT(t.TransposeLeftMultiply(x).MaxAbsDiff(
                dense.TransposeMultiply(x)),
            1e-9);
}

TEST_P(FactorizedEquivalenceTest, RightMultiply) {
  FactorizedTable t = MakeTable();
  la::DenseMatrix dense = t.Materialize();
  Rng rng(3);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(2, t.rows(), &rng);
  EXPECT_LT(t.RightMultiply(x).MaxAbsDiff(x.Multiply(dense)), 1e-9);
}

TEST_P(FactorizedEquivalenceTest, Aggregates) {
  FactorizedTable t = MakeTable();
  la::DenseMatrix dense = t.Materialize();
  EXPECT_LT(t.RowSums().MaxAbsDiff(dense.RowSums()), 1e-9);
  EXPECT_LT(t.ColSums().MaxAbsDiff(dense.ColSums()), 1e-9);
  la::DenseMatrix squared = dense.Map([](double v) { return v * v; });
  EXPECT_LT(t.RowSquaredNorms().MaxAbsDiff(squared.RowSums()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    TableOneScenarios, FactorizedEquivalenceTest,
    ::testing::Values(
        // Example 1: full outer join, overlapping columns & partial rows.
        ScenarioParam{rel::JoinKind::kFullOuterJoin, 60, 40, 2, 3, 2, 0.5, 0.6,
                      0.0, true},
        // Example 2: inner join, VFL-style shared sample space.
        ScenarioParam{rel::JoinKind::kInnerJoin, 50, 30, 3, 4, 1, 0.8, 0.9,
                      0.0, true},
        // Example 3: left join, only the base holds the label.
        ScenarioParam{rel::JoinKind::kLeftJoin, 70, 25, 2, 5, 0, 0.6, 1.0,
                      0.0, false},
        // Example 4: union, shared feature space, disjoint rows.
        ScenarioParam{rel::JoinKind::kUnion, 45, 35, 0, 0, 4, 0.0, 0.0, 0.0,
                      true},
        // Fan-out: several base rows reference the same other row (target
        // redundancy, tuple ratio 5).
        ScenarioParam{rel::JoinKind::kLeftJoin, 100, 20, 1, 8, 0, 1.0, 1.0,
                      0.0, false},
        // Nulls in the features.
        ScenarioParam{rel::JoinKind::kFullOuterJoin, 40, 40, 2, 2, 2, 0.5,
                      0.5, 0.25, true},
        // Degenerate: nothing matches (outer join = disjoint union).
        ScenarioParam{rel::JoinKind::kFullOuterJoin, 30, 30, 1, 1, 1, 0.0,
                      0.0, 0.0, true},
        // Single-column sources.
        ScenarioParam{rel::JoinKind::kInnerJoin, 20, 20, 1, 1, 0, 1.0, 1.0,
                      0.0, false}));

TEST(FactorizedTableTest, MorpheusAgreesWhenNoOverlap) {
  // Morpheus's setting: disjoint feature columns, inner join, no shared
  // columns -> rule (1) and rule (2) coincide.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 40;
  spec.other_rows = 20;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.shared_features = 0;
  spec.seed = 5;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = DerivePairMetadata(pair);
  ASSERT_TRUE(metadata.ok());
  FactorizedTable amalur(*metadata);
  MorpheusReference morpheus(std::move(*metadata));
  Rng rng(6);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(amalur.cols(), 2, &rng);
  EXPECT_LT(amalur.LeftMultiply(x).MaxAbsDiff(morpheus.LeftMultiply(x)), 1e-10);
}

TEST(FactorizedTableTest, RejectsWrongShapes) {
  FactorizedTable t = MakeRunningExampleTable();
  la::DenseMatrix bad(3, 3);
  EXPECT_DEATH(t.LeftMultiply(bad), "LMM");
  EXPECT_DEATH(t.TransposeLeftMultiply(bad), "rT rows");
  EXPECT_DEATH(t.RightMultiply(bad), "rT columns");
}

}  // namespace
}  // namespace factorized
}  // namespace amalur
