#include "metadata/di_metadata.h"

#include <gtest/gtest.h>

#include "testing/generator.h"
#include "testing/running_example.h"

namespace amalur {
namespace metadata {
namespace {

using integration::MakeRunningExample;
using integration::RunningExample;
using integration::RunningExampleTargetMatrix;

DiMetadata DeriveRunningExample() {
  RunningExample ex = MakeRunningExample();
  auto metadata = DiMetadata::Derive(ex.mapping, {&ex.s1, &ex.s2}, ex.matching);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::move(metadata).ValueOrDie();
}

TEST(DiMetadataTest, RunningExampleShapes) {
  DiMetadata md = DeriveRunningExample();
  EXPECT_EQ(md.num_sources(), 2u);
  EXPECT_EQ(md.target_rows(), 6u);
  EXPECT_EQ(md.target_cols(), 4u);
  EXPECT_EQ(md.kind(), rel::JoinKind::kFullOuterJoin);
  EXPECT_EQ(md.source(0).data.rows(), 4u);
  EXPECT_EQ(md.source(0).data.cols(), 3u);
  EXPECT_EQ(md.source(1).data.rows(), 3u);
  EXPECT_EQ(md.source(1).data.cols(), 3u);
  EXPECT_EQ(md.source(0).column_names,
            (std::vector<std::string>{"m", "a", "hr"}));
  EXPECT_EQ(md.source(1).column_names,
            (std::vector<std::string>{"m", "a", "o"}));
}

TEST(DiMetadataTest, Figure4CompressedForms) {
  DiMetadata md = DeriveRunningExample();
  EXPECT_EQ(md.source(0).mapping.values(), (std::vector<int64_t>{0, 1, 2, -1}));
  EXPECT_EQ(md.source(1).mapping.values(), (std::vector<int64_t>{0, 1, -1, 2}));
  EXPECT_EQ(md.source(0).indicator.values(),
            (std::vector<int64_t>{0, 1, 2, 3, -1, -1}));
  EXPECT_EQ(md.source(1).indicator.values(),
            (std::vector<int64_t>{-1, -1, -1, 2, 0, 1}));
}

TEST(DiMetadataTest, Figure4DataMatrices) {
  DiMetadata md = DeriveRunningExample();
  EXPECT_TRUE(md.source(0).data.ApproxEquals(la::DenseMatrix({{0, 20, 60},
                                                              {0, 35, 58},
                                                              {0, 22, 65},
                                                              {1, 37, 70}})));
  EXPECT_TRUE(md.source(1).data.ApproxEquals(la::DenseMatrix({{1, 45, 95},
                                                              {0, 20, 97},
                                                              {1, 37, 92}})));
}

TEST(DiMetadataTest, Figure4SourceContributions) {
  DiMetadata md = DeriveRunningExample();
  // T1 = I1 D1 M1^T (paper Figure 4c, S1's rows in order).
  EXPECT_TRUE(md.SourceContribution(0).ApproxEquals(
      la::DenseMatrix({{0, 20, 60, 0},
                       {0, 35, 58, 0},
                       {0, 22, 65, 0},
                       {1, 37, 70, 0},
                       {0, 0, 0, 0},
                       {0, 0, 0, 0}})));
  EXPECT_TRUE(md.SourceContribution(1).ApproxEquals(
      la::DenseMatrix({{0, 0, 0, 0},
                       {0, 0, 0, 0},
                       {0, 0, 0, 0},
                       {1, 37, 0, 92},
                       {1, 45, 0, 95},
                       {0, 20, 0, 97}})));
}

TEST(DiMetadataTest, MaterializedTargetMatchesFigure4) {
  DiMetadata md = DeriveRunningExample();
  EXPECT_TRUE(
      md.MaterializeTargetMatrix().ApproxEquals(RunningExampleTargetMatrix()));
}

TEST(DiMetadataTest, NaiveAdditionWouldBeWrong) {
  // The motivation for R: T1 + T2 != T because Jane's m and a double up.
  DiMetadata md = DeriveRunningExample();
  la::DenseMatrix naive = md.SourceContribution(0).Add(md.SourceContribution(1));
  EXPECT_FALSE(naive.ApproxEquals(RunningExampleTargetMatrix()));
  EXPECT_DOUBLE_EQ(naive.At(3, 0), 2.0);    // 1 + 1
  EXPECT_DOUBLE_EQ(naive.At(3, 1), 74.0);   // 37 + 37
}

TEST(DiMetadataTest, TupleAndFeatureRatios) {
  DiMetadata md = DeriveRunningExample();
  EXPECT_DOUBLE_EQ(md.TupleRatio(0), 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(md.TupleRatio(1), 6.0 / 3.0);
  EXPECT_DOUBLE_EQ(md.FeatureRatio(0), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(md.FeatureRatio(1), 4.0 / 3.0);
}

TEST(DiMetadataTest, InnerJoinKeepsOnlyMatchedRows) {
  RunningExample ex = MakeRunningExample();
  auto inner_mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kInnerJoin,
      {integration::SchemaMapping::SourceSpec{
           "S1", ex.s1.schema(), {{"m", "m"}, {"a", "a"}, {"hr", "hr"}}},
       integration::SchemaMapping::SourceSpec{
           "S2", ex.s2.schema(), {{"m", "m"}, {"a", "a"}, {"o", "o"}}}},
      ex.target_schema, {{0, "n", 1, "n"}});
  ASSERT_TRUE(inner_mapping.ok());
  auto md = DiMetadata::Derive(*inner_mapping, {&ex.s1, &ex.s2}, ex.matching);
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->target_rows(), 1u);
  EXPECT_TRUE(md->MaterializeTargetMatrix().ApproxEquals(
      la::DenseMatrix({{1, 37, 70, 92}})));
}

TEST(DiMetadataTest, LeftJoinKeepsBaseRows) {
  RunningExample ex = MakeRunningExample();
  auto left_mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{
           "S1", ex.s1.schema(), {{"m", "m"}, {"a", "a"}, {"hr", "hr"}}},
       integration::SchemaMapping::SourceSpec{
           "S2", ex.s2.schema(), {{"a", "a"}, {"o", "o"}}}},
      ex.target_schema, {{0, "n", 1, "n"}});
  ASSERT_TRUE(left_mapping.ok());
  auto md = DiMetadata::Derive(*left_mapping, {&ex.s1, &ex.s2}, ex.matching);
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->target_rows(), 4u);  // S1's rows in order; Jane matched
  la::DenseMatrix t = md->MaterializeTargetMatrix();
  EXPECT_TRUE(t.ApproxEquals(la::DenseMatrix({{0, 20, 60, 0},
                                              {0, 35, 58, 0},
                                              {0, 22, 65, 0},
                                              {1, 37, 70, 92}})));
}

TEST(DiMetadataTest, UnionStacksAllRows) {
  RunningExample ex = MakeRunningExample();
  // Union of the two tables over the shared columns (m, a).
  rel::Schema target = rel::Schema::AllDouble({"m", "a"});
  auto union_mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kUnion,
      {integration::SchemaMapping::SourceSpec{
           "S1", ex.s1.schema(), {{"m", "m"}, {"a", "a"}}},
       integration::SchemaMapping::SourceSpec{
           "S2", ex.s2.schema(), {{"m", "m"}, {"a", "a"}}}},
      target);
  ASSERT_TRUE(union_mapping.ok());
  auto md = DiMetadata::Derive(*union_mapping, {&ex.s1, &ex.s2}, ex.matching);
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->target_rows(), 7u);
  // No redundancy: disjoint target rows.
  EXPECT_FALSE(md->source(1).redundancy.HasRedundancy());
  la::DenseMatrix t = md->MaterializeTargetMatrix();
  EXPECT_TRUE(t.ApproxEquals(la::DenseMatrix({{0, 20},
                                              {0, 35},
                                              {0, 22},
                                              {1, 37},
                                              {1, 45},
                                              {0, 20},
                                              {1, 37}})));
}

TEST(DiMetadataTest, GeneratedScenarioMatchesRelationalJoin) {
  // Matrix-level materialization must agree with the relational hash join
  // on a generated left-join scenario.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 80;
  spec.other_rows = 40;
  spec.match_fraction = 0.5;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.seed = 99;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  std::vector<std::string> target_names{"y", "x0", "x1", "z0", "z1", "z2"};
  rel::Schema target = rel::Schema::AllDouble(target_names);
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{
           "S1", pair.base.schema(),
           {{"y", "y"}, {"x0", "x0"}, {"x1", "x1"}}},
       integration::SchemaMapping::SourceSpec{
           "S2", pair.other.schema(),
           {{"z0", "z0"}, {"z1", "z1"}, {"z2", "z2"}}}},
      target, {{0, "k", 1, "k"}});
  ASSERT_TRUE(mapping.ok()) << mapping.status();

  auto matching = rel::MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  auto md = DiMetadata::Derive(*mapping, {&pair.base, &pair.other}, *matching);
  ASSERT_TRUE(md.ok()) << md.status();

  // Relational path: hash join then project to the target schema.
  auto joined = rel::HashJoin(pair.base, pair.other, {"k"}, {"k"},
                              rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(joined.ok());
  auto projected = joined->table.ProjectNames(target_names);
  ASSERT_TRUE(projected.ok());
  auto expected = projected->ToMatrix();
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(md->MaterializeTargetMatrix().ApproxEquals(*expected, 1e-12));
}

TEST(DiMetadataTest, DuplicateAndNullRatiosPopulated) {
  rel::SiloPairSpec spec;
  spec.base_rows = 50;
  spec.other_rows = 100;
  spec.other_dup_rate = 0.4;  // 40 duplicate rows appended -> 40/140 dup ratio
  spec.null_ratio = 0.0;
  spec.other_features = 4;
  spec.seed = 17;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  rel::Schema target = rel::Schema::AllDouble({"y", "x0", "z0", "z1", "z2", "z3"});
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{
           "S1", pair.base.schema(), {{"y", "y"}, {"x0", "x0"}}},
       integration::SchemaMapping::SourceSpec{
           "S2", pair.other.schema(),
           {{"z0", "z0"}, {"z1", "z1"}, {"z2", "z2"}, {"z3", "z3"}}}},
      target, {{0, "k", 1, "k"}});
  ASSERT_TRUE(mapping.ok());
  auto matching = rel::MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"});
  ASSERT_TRUE(matching.ok());
  auto md = DiMetadata::Derive(*mapping, {&pair.base, &pair.other}, *matching);
  ASSERT_TRUE(md.ok());
  EXPECT_NEAR(md->source(1).duplicate_ratio, 40.0 / 140.0, 1e-9);
  EXPECT_DOUBLE_EQ(md->source(0).duplicate_ratio, 0.0);
  EXPECT_DOUBLE_EQ(md->source(1).null_ratio, 0.0);

  // With injected nulls, the mapped-column null ratio is reflected.
  spec.other_dup_rate = 0.0;
  spec.null_ratio = 0.15;
  rel::SiloPair nulled = rel::GenerateSiloPair(spec);
  auto matching2 = rel::MatchRowsOnKeys(nulled.base, nulled.other, {"k"}, {"k"});
  ASSERT_TRUE(matching2.ok());
  auto mapping2 = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{
           "S1", nulled.base.schema(), {{"y", "y"}, {"x0", "x0"}}},
       integration::SchemaMapping::SourceSpec{
           "S2", nulled.other.schema(),
           {{"z0", "z0"}, {"z1", "z1"}, {"z2", "z2"}, {"z3", "z3"}}}},
      target, {{0, "k", 1, "k"}});
  ASSERT_TRUE(mapping2.ok());
  auto md2 =
      DiMetadata::Derive(*mapping2, {&nulled.base, &nulled.other}, *matching2);
  ASSERT_TRUE(md2.ok());
  EXPECT_NEAR(md2->source(1).null_ratio, 0.15, 0.04);
}

TEST(DiMetadataTest, DeriveValidation) {
  RunningExample ex = MakeRunningExample();
  EXPECT_TRUE(DiMetadata::Derive(ex.mapping, {&ex.s1}, ex.matching)
                  .status()
                  .IsInvalidArgument());
  rel::RowMatching bad;
  bad.matched = {{99, 0}};
  EXPECT_TRUE(DiMetadata::Derive(ex.mapping, {&ex.s1, &ex.s2}, bad)
                  .status()
                  .IsOutOfRange());
}

}  // namespace
}  // namespace metadata
}  // namespace amalur
