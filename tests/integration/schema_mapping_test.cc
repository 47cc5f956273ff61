#include "integration/schema_mapping.h"

#include <gtest/gtest.h>

#include "testing/running_example.h"

namespace amalur {
namespace integration {
namespace {

TEST(SchemaMappingTest, RunningExampleGeneratesTableOneTgds) {
  RunningExample ex = MakeRunningExample();
  const auto& tgds = ex.mapping.tgds();
  ASSERT_EQ(tgds.size(), 3u);  // full outer join: m1, m2, m3
  EXPECT_EQ(tgds[0].ToString(),
            "∀ m, n, a, hr, o, dd (S1(m, n, a, hr) ∧ S2(m, n, a, o, dd) → "
            "T(m, a, hr, o))");
  EXPECT_EQ(tgds[1].ToString(),
            "∀ m, n, a, hr (S1(m, n, a, hr) → ∃ o T(m, a, hr, o))");
  EXPECT_EQ(tgds[2].ToString(),
            "∀ m, n, a, o, dd (S2(m, n, a, o, dd) → ∃ hr T(m, a, hr, o))");
}

TEST(SchemaMappingTest, TargetToSourceColumnsMatchesFigure4a) {
  RunningExample ex = MakeRunningExample();
  // CM1 = [0, 1, 2, -1] over S1 schema (m=0, a=2? no: these are raw schema
  // indices: S1(m, n, a, hr) -> m=0, a=2, hr=3).
  EXPECT_EQ(ex.mapping.TargetToSourceColumns(0),
            (std::vector<int64_t>{0, 2, 3, -1}));
  EXPECT_EQ(ex.mapping.TargetToSourceColumns(1),
            (std::vector<int64_t>{0, 2, -1, 3}));
}

TEST(SchemaMappingTest, MappedColumnsGiveDkLayout) {
  RunningExample ex = MakeRunningExample();
  EXPECT_EQ(ex.mapping.MappedColumns(0),
            (std::vector<std::string>{"m", "a", "hr"}));
  EXPECT_EQ(ex.mapping.MappedColumns(1),
            (std::vector<std::string>{"m", "a", "o"}));
}

TEST(SchemaMappingTest, JoinColumnsIncludeNonTargetMatches) {
  RunningExample ex = MakeRunningExample();
  // Join variables are m, n, a — n via the explicit source match.
  EXPECT_EQ(ex.mapping.JoinColumns(0), (std::vector<std::string>{"m", "n", "a"}));
  EXPECT_EQ(ex.mapping.JoinColumns(1), (std::vector<std::string>{"m", "n", "a"}));
}

TEST(SchemaMappingTest, FullTgdAnalysis) {
  RunningExample ex = MakeRunningExample();
  EXPECT_FALSE(ex.mapping.AllTgdsFull());  // m2, m3 are not full

  // Example 2 of Table I (inner join) has only the full tgd m1.
  auto inner = SchemaMapping::Create(
      rel::JoinKind::kInnerJoin,
      {SchemaMapping::SourceSpec{
           "S1", ex.s1.schema(), {{"m", "m"}, {"a", "a"}, {"hr", "hr"}}},
       SchemaMapping::SourceSpec{
           "S2", ex.s2.schema(), {{"m", "m"}, {"a", "a"}, {"o", "o"}}}},
      ex.target_schema, {{0, "n", 1, "n"}});
  ASSERT_TRUE(inner.ok());
  ASSERT_EQ(inner->tgds().size(), 1u);
  EXPECT_TRUE(inner->AllTgdsFull());
}

TEST(SchemaMappingTest, ClassifyRoundTripsAllKinds) {
  RunningExample ex = MakeRunningExample();
  for (rel::JoinKind kind :
       {rel::JoinKind::kInnerJoin, rel::JoinKind::kLeftJoin,
        rel::JoinKind::kFullOuterJoin, rel::JoinKind::kUnion}) {
    auto mapping = SchemaMapping::Create(
        kind,
        {SchemaMapping::SourceSpec{
             "S1", ex.s1.schema(), {{"m", "m"}, {"a", "a"}, {"hr", "hr"}}},
         SchemaMapping::SourceSpec{
             "S2", ex.s2.schema(), {{"m", "m"}, {"a", "a"}, {"o", "o"}}}},
        ex.target_schema, {{0, "n", 1, "n"}});
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    auto classified = SchemaMapping::ClassifyTgds(mapping->tgds());
    ASSERT_TRUE(classified.ok()) << classified.status();
    EXPECT_EQ(*classified, kind) << rel::JoinKindToString(kind);
  }
}

TEST(SchemaMappingTest, UnionTgdsPerSource) {
  // Example 4: S1(m,n,a,hr,o), S2(m,n,a,hr,o,dd) → T(m,a,hr,o) by union.
  rel::Schema s1 = rel::Schema::AllDouble({"m", "n", "a", "hr", "o"});
  rel::Schema s2 = rel::Schema::AllDouble({"m", "n", "a", "hr", "o", "dd"});
  rel::Schema target = rel::Schema::AllDouble({"m", "a", "hr", "o"});
  auto mapping = SchemaMapping::Create(
      rel::JoinKind::kUnion,
      {SchemaMapping::SourceSpec{
           "S1", s1, {{"m", "m"}, {"a", "a"}, {"hr", "hr"}, {"o", "o"}}},
       SchemaMapping::SourceSpec{
           "S2", s2, {{"m", "m"}, {"a", "a"}, {"hr", "hr"}, {"o", "o"}}}},
      target);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  ASSERT_EQ(mapping->tgds().size(), 2u);
  EXPECT_FALSE(mapping->tgds()[0].IsJoint());
  EXPECT_TRUE(mapping->tgds()[0].IsFull());  // all target cols mapped
  EXPECT_TRUE(mapping->JoinColumns(0).empty());
}

TEST(SchemaMappingTest, RejectsUnknownColumns) {
  RunningExample ex = MakeRunningExample();
  auto bad_source = SchemaMapping::Create(
      rel::JoinKind::kInnerJoin,
      {SchemaMapping::SourceSpec{"S1", ex.s1.schema(), {{"zz", "m"}}},
       SchemaMapping::SourceSpec{"S2", ex.s2.schema(), {{"m", "m"}}}},
      ex.target_schema);
  EXPECT_TRUE(bad_source.status().IsNotFound());

  auto bad_target = SchemaMapping::Create(
      rel::JoinKind::kInnerJoin,
      {SchemaMapping::SourceSpec{"S1", ex.s1.schema(), {{"m", "zz"}}},
       SchemaMapping::SourceSpec{"S2", ex.s2.schema(), {{"m", "m"}}}},
      ex.target_schema);
  EXPECT_TRUE(bad_target.status().IsNotFound());
}

TEST(SchemaMappingTest, RejectsJoinWithoutSharedVariables) {
  rel::Schema s1 = rel::Schema::AllDouble({"a"});
  rel::Schema s2 = rel::Schema::AllDouble({"b"});
  rel::Schema target = rel::Schema::AllDouble({"a", "b"});
  auto mapping = SchemaMapping::Create(
      rel::JoinKind::kInnerJoin,
      {SchemaMapping::SourceSpec{"S1", s1, {{"a", "a"}}},
       SchemaMapping::SourceSpec{"S2", s2, {{"b", "b"}}}},
      target);
  EXPECT_TRUE(mapping.status().IsInvalidArgument());
}

TEST(SchemaMappingTest, RejectsSingleSource) {
  rel::Schema s1 = rel::Schema::AllDouble({"a"});
  auto mapping = SchemaMapping::Create(
      rel::JoinKind::kInnerJoin,
      {SchemaMapping::SourceSpec{"S1", s1, {{"a", "a"}}}},
      rel::Schema::AllDouble({"a"}));
  EXPECT_TRUE(mapping.status().IsInvalidArgument());
}

TEST(SchemaMappingTest, ClassifyRejectsDegenerateSets) {
  EXPECT_TRUE(SchemaMapping::ClassifyTgds({}).status().IsInvalidArgument());
  Tgd single({TgdAtom{"S1", {"a"}}}, TgdAtom{"T", {"a"}});
  EXPECT_TRUE(
      SchemaMapping::ClassifyTgds({single}).status().IsInvalidArgument());
}

TEST(SchemaMappingTest, VariableCollisionDisambiguated) {
  // Both sources have an unmapped column "dd" — the generated tgds must not
  // accidentally join them by reusing one variable name.
  rel::Schema s1 = rel::Schema::AllDouble({"k", "dd"});
  rel::Schema s2 = rel::Schema::AllDouble({"k", "dd"});
  rel::Schema target = rel::Schema::AllDouble({"k"});
  auto mapping = SchemaMapping::Create(
      rel::JoinKind::kInnerJoin,
      {SchemaMapping::SourceSpec{"S1", s1, {{"k", "k"}}},
       SchemaMapping::SourceSpec{"S2", s2, {{"k", "k"}}}},
      target);
  ASSERT_TRUE(mapping.ok());
  const Tgd& joint = mapping->tgds()[0];
  EXPECT_EQ(joint.JoinVariables(), (std::vector<std::string>{"k"}));
}

}  // namespace
}  // namespace integration
}  // namespace amalur
