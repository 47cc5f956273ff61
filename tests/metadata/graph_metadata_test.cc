// DiMetadata::DeriveGraph: the general tree derivation behind snowflake and
// union-of-stars scenarios. Star graphs must be bitwise-identical to
// DeriveStar's depth-1 lowering; snowflakes must compose matchings along the
// dimension chain; union-of-stars must stack shard blocks with no
// cross-shard redundancy — and everything must agree with first-principles
// relational references and the factorized rewrites.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "factorized/factorized_table.h"
#include "metadata/di_metadata.h"
#include "relational/join.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace metadata {
namespace {

/// A three-source star as an explicit graph: base(k1, k2, y, x0),
/// dim1(k1, z0, z1), dim2(k2, w0, w1) with fan-out.
struct StarFixture {
  rel::Table base{"base"}, dim1{"dim1"}, dim2{"dim2"};
  integration::SchemaMapping mapping;
  std::vector<rel::RowMatching> matchings;
};

StarFixture MakeStar(uint64_t seed = 5) {
  Rng rng(seed);
  StarFixture f;
  const size_t dim1_rows = 20, dim2_rows = 40, base_rows = 80;
  auto fill_dim = [&rng](rel::Table* table, const std::string& key,
                         size_t rows, const std::vector<const char*>& names) {
    std::vector<int64_t> keys(rows);
    for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
    AMALUR_CHECK_OK(table->AddColumn(rel::Column::FromInt64s(key, keys)));
    for (const char* name : names) {
      std::vector<double> values(rows);
      for (double& v : values) v = rng.NextGaussian();
      AMALUR_CHECK_OK(
          table->AddColumn(rel::Column::FromDoubles(name, values)));
    }
  };
  fill_dim(&f.dim1, "k1", dim1_rows, {"z0", "z1"});
  fill_dim(&f.dim2, "k2", dim2_rows, {"w0", "w1"});
  {
    std::vector<int64_t> k1(base_rows), k2(base_rows);
    std::vector<double> y(base_rows), x0(base_rows);
    for (size_t i = 0; i < base_rows; ++i) {
      k1[i] = static_cast<int64_t>(i % dim1_rows);
      k2[i] = static_cast<int64_t>(i % dim2_rows);
      y[i] = rng.NextGaussian();
      x0[i] = rng.NextGaussian();
    }
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromInt64s("k1", k1)));
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromInt64s("k2", k2)));
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromDoubles("y", y)));
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromDoubles("x0", x0)));
  }
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{
           "base", f.base.schema(), {{"y", "y"}, {"x0", "x0"}}},
       integration::SchemaMapping::SourceSpec{
           "dim1", f.dim1.schema(), {{"z0", "z0"}, {"z1", "z1"}}},
       integration::SchemaMapping::SourceSpec{
           "dim2", f.dim2.schema(), {{"w0", "w0"}, {"w1", "w1"}}}},
      rel::Schema::AllDouble({"y", "x0", "z0", "z1", "w0", "w1"}),
      {{0, "k1", 1, "k1"}, {0, "k2", 2, "k2"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  f.mapping = std::move(mapping).ValueOrDie();
  for (const auto& [dim, key] :
       std::vector<std::pair<const rel::Table*, std::string>>{
           {&f.dim1, "k1"}, {&f.dim2, "k2"}}) {
    auto matching = rel::MatchRowsOnKeys(f.base, *dim, {key}, {key});
    AMALUR_CHECK(matching.ok()) << matching.status();
    f.matchings.push_back(std::move(matching).ValueOrDie());
  }
  return f;
}

TEST(GraphMetadataTest, PureStarBitwiseEqualsDeriveStar) {
  StarFixture f = MakeStar();
  const std::vector<const rel::Table*> tables{&f.base, &f.dim1, &f.dim2};
  auto star = DiMetadata::DeriveStar(f.mapping, tables, f.matchings);
  ASSERT_TRUE(star.ok()) << star.status();
  auto graph = DiMetadata::DeriveGraph(
      f.mapping, tables,
      {{0, 1, rel::JoinKind::kLeftJoin}, {0, 2, rel::JoinKind::kLeftJoin}},
      f.matchings);
  ASSERT_TRUE(graph.ok()) << graph.status();

  EXPECT_EQ(graph->shape(), IntegrationShape::kStar);
  EXPECT_EQ(graph->shape(), star->shape());
  EXPECT_EQ(graph->num_shards(), 1u);
  EXPECT_EQ(graph->join_depth(), 1u);
  ASSERT_EQ(graph->num_sources(), star->num_sources());
  EXPECT_EQ(graph->target_rows(), star->target_rows());
  for (size_t k = 0; k < graph->num_sources(); ++k) {
    // Bitwise equality of every derived artifact per source.
    EXPECT_EQ(graph->source(k).indicator.values(),
              star->source(k).indicator.values());
    EXPECT_EQ(graph->source(k).mapping.values(),
              star->source(k).mapping.values());
    EXPECT_EQ(graph->source(k).data.MaxAbsDiff(star->source(k).data), 0.0);
    EXPECT_EQ(graph->source(k).redundancy.ToDense().MaxAbsDiff(
                  star->source(k).redundancy.ToDense()),
              0.0);
    EXPECT_EQ(graph->source(k).column_names, star->source(k).column_names);
  }
  EXPECT_EQ(graph->MaterializeTargetMatrix().MaxAbsDiff(
                star->MaterializeTargetMatrix()),
            0.0);
}

TEST(GraphMetadataTest, SnowflakeComposesIndicatorsAlongTheChain) {
  rel::SnowflakeSpec spec;
  spec.fact_rows = 120;
  spec.level_rows = {24, 6};
  spec.level_features = {2, 3};
  spec.seed = 7;
  rel::Snowflake snowflake = rel::GenerateSnowflake(spec);
  auto md = factorized::DeriveSnowflakeMetadata(snowflake);
  ASSERT_TRUE(md.ok()) << md.status();

  EXPECT_EQ(md->shape(), IntegrationShape::kSnowflake);
  EXPECT_EQ(md->num_shards(), 1u);
  EXPECT_EQ(md->join_depth(), 2u);
  EXPECT_EQ(md->target_rows(), spec.fact_rows);
  // The sub-dimension's indicator is the composition of the two round-robin
  // key assignments: fact row i -> dim0 row i % 24 -> dim1 row (i % 24) % 6.
  const CompressedIndicator& sub = md->source(2).indicator;
  for (size_t i = 0; i < spec.fact_rows; ++i) {
    EXPECT_EQ(sub.At(i), static_cast<int64_t>((i % 24) % 6)) << "row " << i;
  }

  // Relational reference: fact ⋈ dim0 ⋈ dim1, projected onto the target.
  auto j1 = rel::HashJoin(snowflake.tables[0], snowflake.tables[1],
                          {"dim0_id"}, {"dim0_id"}, rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j1.ok()) << j1.status();
  auto j2 = rel::HashJoin(j1->table, snowflake.tables[2], {"dim1_id"},
                          {"dim1_id"}, rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j2.ok()) << j2.status();
  auto projected = j2->table.ProjectNames(md->target_schema().Names());
  ASSERT_TRUE(projected.ok()) << projected.status();
  auto expected = projected->ToMatrix();
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(md->MaterializeTargetMatrix().ApproxEquals(*expected, 1e-12));
}

TEST(GraphMetadataTest, SnowflakeFactorizedOpsMatchMaterialized) {
  rel::SnowflakeSpec spec;
  spec.fact_rows = 90;
  spec.level_rows = {18, 6, 3};
  spec.level_features = {2, 2, 1};
  spec.seed = 8;
  auto md = factorized::DeriveSnowflakeMetadata(rel::GenerateSnowflake(spec));
  ASSERT_TRUE(md.ok()) << md.status();
  factorized::FactorizedTable table(*md);
  la::DenseMatrix dense = table.Materialize();
  Rng rng(9);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(table.cols(), 3, &rng);
  EXPECT_LT(table.LeftMultiply(x).MaxAbsDiff(dense.Multiply(x)), 1e-9);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(table.rows(), 2, &rng);
  EXPECT_LT(
      table.TransposeLeftMultiply(y).MaxAbsDiff(dense.TransposeMultiply(y)),
      1e-9);
  EXPECT_LT(table.ColSums().MaxAbsDiff(dense.ColSums()), 1e-9);
}

TEST(GraphMetadataTest, UnionOfStarsStacksShardBlocks) {
  rel::UnionOfStarsSpec spec;
  spec.shards = 2;
  spec.fact_rows = 50;
  spec.fact_features = 2;
  spec.dim_rows = 10;
  spec.dim_features = 2;
  spec.seed = 11;
  rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);
  auto md = factorized::DeriveUnionOfStarsMetadata(scenario);
  ASSERT_TRUE(md.ok()) << md.status();

  EXPECT_EQ(md->shape(), IntegrationShape::kUnionOfStars);
  EXPECT_EQ(md->num_shards(), 2u);
  EXPECT_EQ(md->join_depth(), 1u);
  EXPECT_EQ(md->target_rows(), 2 * spec.fact_rows);
  // Shard facts are identities inside their block, absent outside.
  const CompressedIndicator& fact0 = md->source(0).indicator;
  const CompressedIndicator& fact1 = md->source(2).indicator;
  for (size_t i = 0; i < spec.fact_rows; ++i) {
    EXPECT_EQ(fact0.At(i), static_cast<int64_t>(i));
    EXPECT_EQ(fact0.At(spec.fact_rows + i), -1);
    EXPECT_EQ(fact1.At(i), -1);
    EXPECT_EQ(fact1.At(spec.fact_rows + i), static_cast<int64_t>(i));
  }
  // Shard rows are disjoint, so the shared y/x columns carry no cross-shard
  // redundancy; per-shard redundancy also vanishes (disjoint columns).
  for (size_t k = 0; k < md->num_sources(); ++k) {
    EXPECT_FALSE(md->source(k).redundancy.HasRedundancy()) << "source " << k;
  }

  // Relational reference per block: shard's fact ⋈ dim projected onto the
  // target schema (absent other-shard columns materialize as zero).
  la::DenseMatrix target = md->MaterializeTargetMatrix();
  for (size_t s = 0; s < 2; ++s) {
    const std::string key = "dim" + std::to_string(s) + "_id";
    auto joined =
        rel::HashJoin(scenario.tables[2 * s], scenario.tables[2 * s + 1],
                      {key}, {key}, rel::JoinKind::kLeftJoin);
    ASSERT_TRUE(joined.ok()) << joined.status();
    const size_t offset = s * spec.fact_rows;
    for (const std::string& name : md->target_schema().Names()) {
      const auto target_col = md->target_schema().IndexOf(name);
      auto shard_col = joined->table.ColumnIndex(name);
      for (size_t i = 0; i < spec.fact_rows; ++i) {
        const double expected =
            shard_col.ok() &&
                    !joined->table.column(*shard_col).IsNull(i)
                ? joined->table.column(*shard_col).GetDouble(i)
                : 0.0;
        EXPECT_NEAR(target.At(offset + i, *target_col), expected, 1e-12)
            << "shard " << s << " row " << i << " column " << name;
      }
    }
  }

  // Factorized rewrites agree with the stacked dense target.
  factorized::FactorizedTable table(*md);
  Rng rng(12);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(table.cols(), 2, &rng);
  EXPECT_LT(table.LeftMultiply(x).MaxAbsDiff(target.Multiply(x)), 1e-9);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(table.rows(), 2, &rng);
  EXPECT_LT(
      table.TransposeLeftMultiply(y).MaxAbsDiff(target.TransposeMultiply(y)),
      1e-9);
}

TEST(GraphMetadataTest, ConformedDimensionMergesParentChains) {
  // A conformed dimension — one shared table referenced through two
  // intermediate dimensions — appears ONCE: one source entry, its columns
  // once in the target schema, and one indicator merged from both parent
  // chains (which agree by construction).
  rel::ConformedSnowflakeSpec spec;
  spec.fact_rows = 120;
  spec.fact_features = 2;
  spec.branches = 2;
  spec.branch_rows = 20;
  spec.branch_features = 2;
  spec.shared_rows = 5;
  spec.shared_features = 2;
  spec.seed = 31;
  rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);
  auto md = factorized::DeriveConformedSnowflakeMetadata(scenario);
  ASSERT_TRUE(md.ok()) << md.status();

  EXPECT_EQ(md->shape(), IntegrationShape::kConformedSnowflake);
  EXPECT_EQ(md->num_shared_dimensions(), 1u);
  EXPECT_EQ(md->num_shards(), 1u);
  EXPECT_EQ(md->join_depth(), 2u);
  EXPECT_EQ(md->target_rows(), spec.fact_rows);
  ASSERT_EQ(md->num_sources(), 4u);  // fact, branch0, branch1, shared ONCE

  // The shared dimension's columns appear exactly once in the target.
  const std::vector<std::string> target_names = md->target_schema().Names();
  for (const std::string& name : md->source(3).column_names) {
    EXPECT_EQ(std::count(target_names.begin(), target_names.end(), name), 1)
        << name;
  }

  // Merged indicator: both chains resolve fact row i to shared row
  // (i % R) % S — the generator's conformed contract.
  const CompressedIndicator& shared = md->source(3).indicator;
  for (size_t i = 0; i < spec.fact_rows; ++i) {
    EXPECT_EQ(shared.At(i),
              static_cast<int64_t>((i % spec.branch_rows) % spec.shared_rows))
        << "row " << i;
  }

  // Relational reference: fact ⋈ branch0 ⋈ branch1 ⋈ shared, projected
  // onto the target schema. The shared dimension joins through branch0's
  // key; branch1's copy agrees by construction.
  auto j1 = rel::HashJoin(scenario.tables[0], scenario.tables[1],
                          {"branch0_id"}, {"branch0_id"},
                          rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j1.ok()) << j1.status();
  auto j2 = rel::HashJoin(j1->table, scenario.tables[2], {"branch1_id"},
                          {"branch1_id"}, rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j2.ok()) << j2.status();
  auto j3 = rel::HashJoin(j2->table, scenario.tables[3], {"shared_id"},
                          {"shared_id"}, rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j3.ok()) << j3.status();
  auto projected = j3->table.ProjectNames(target_names);
  ASSERT_TRUE(projected.ok()) << projected.status();
  auto expected = projected->ToMatrix();
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(md->MaterializeTargetMatrix().ApproxEquals(*expected, 1e-12));

  // The factorized rewrites see the merged silo exactly once.
  factorized::FactorizedTable table(*md);
  Rng rng(32);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(table.cols(), 3, &rng);
  EXPECT_LT(table.LeftMultiply(x).MaxAbsDiff(expected->Multiply(x)), 1e-9);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(table.rows(), 2, &rng);
  EXPECT_LT(
      table.TransposeLeftMultiply(y).MaxAbsDiff(expected->TransposeMultiply(y)),
      1e-9);
}

TEST(GraphMetadataTest, ConformedChainDisagreementRejected) {
  // Chains that resolve a fact row to DIFFERENT shared rows contradict the
  // conformed contract: the derivation must refuse rather than silently
  // pick one.
  rel::ConformedSnowflakeSpec spec;
  spec.fact_rows = 40;
  spec.branches = 2;
  spec.branch_rows = 8;
  spec.shared_rows = 4;
  spec.seed = 33;
  rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);
  // Tamper with branch1's shared references so its chain lands elsewhere.
  rel::Table& branch1 = scenario.tables[2];
  auto shared_col = branch1.ColumnIndex("shared_id");
  ASSERT_TRUE(shared_col.ok());
  std::vector<int64_t> skewed(spec.branch_rows);
  for (size_t j = 0; j < spec.branch_rows; ++j) {
    skewed[j] = (branch1.column(*shared_col).int64_data()[j] + 1) %
                static_cast<int64_t>(spec.shared_rows);
  }
  *branch1.mutable_column(*shared_col) =
      rel::Column::FromInt64s("shared_id", std::move(skewed));

  auto md = factorized::DeriveConformedSnowflakeMetadata(scenario);
  EXPECT_TRUE(md.status().IsFailedPrecondition()) << md.status();
  EXPECT_NE(md.status().message().find("conformed"), std::string::npos)
      << md.status();
}

TEST(GraphMetadataTest, InnerJoinEdgeRestrictsRowsLikeRelationalJoin) {
  // An inner-join edge drops exactly the target rows the relational inner
  // join would: rows whose (composed) indicator is absent.
  rel::ConformedSnowflakeSpec spec;
  spec.fact_rows = 100;
  spec.fact_features = 1;
  spec.branches = 2;
  spec.branch_rows = 10;
  spec.branch_features = 1;
  spec.shared_rows = 5;
  spec.shared_features = 1;
  spec.match_fraction = 0.7;  // 30 fact rows carry dangling references
  spec.seed = 37;
  rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);

  auto left = factorized::DeriveConformedSnowflakeMetadata(scenario);
  ASSERT_TRUE(left.ok()) << left.status();
  EXPECT_EQ(left->target_rows(), spec.fact_rows);  // left joins keep all rows

  auto inner =
      factorized::DeriveConformedSnowflakeMetadata(scenario,
                                                   /*inner_branches=*/1);
  ASSERT_TRUE(inner.ok()) << inner.status();

  // Relational reference: fact INNER JOIN branch0, then left joins down the
  // rest of the graph.
  auto j1 = rel::HashJoin(scenario.tables[0], scenario.tables[1],
                          {"branch0_id"}, {"branch0_id"},
                          rel::JoinKind::kInnerJoin);
  ASSERT_TRUE(j1.ok()) << j1.status();
  EXPECT_EQ(inner->target_rows(), j1->table.NumRows());
  EXPECT_EQ(inner->target_rows(), 70u);

  auto j2 = rel::HashJoin(j1->table, scenario.tables[2], {"branch1_id"},
                          {"branch1_id"}, rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j2.ok()) << j2.status();
  auto j3 = rel::HashJoin(j2->table, scenario.tables[3], {"shared_id"},
                          {"shared_id"}, rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j3.ok()) << j3.status();
  auto projected = j3->table.ProjectNames(inner->target_schema().Names());
  ASSERT_TRUE(projected.ok()) << projected.status();
  auto expected = projected->ToMatrix();
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(inner->MaterializeTargetMatrix().ApproxEquals(*expected, 1e-12));

  // Shard bookkeeping survives the row restriction.
  EXPECT_EQ(inner->ShardRowBegin(0), 0u);
  EXPECT_EQ(inner->ShardRowEnd(0), inner->target_rows());
}

TEST(GraphMetadataTest, InPlaceAndGatheredEdgesMatchRelationalJoins) {
  // An edge that matches every parent row to at most one child row and
  // keeps every target row composes CI in place; an inner edge with
  // dangling references takes the general step, which gathers the rows.
  // Both must give the relational join chain's target, and both run here:
  // left edges and fully matched inner edges in place, partly matched inner
  // edges through the gather, with the conformed dimension merging the
  // branch chains behind them.
  Rng rng(41);
  for (size_t draw = 0; draw < 4; ++draw) {
    for (double match_fraction : {1.0, 0.7}) {
      for (size_t inner_branches : {0, 1, 2}) {
        rel::ConformedSnowflakeSpec spec;
        spec.fact_rows = 30 + 20 * draw;
        spec.fact_features = 1;
        spec.branch_rows = 6 + draw;
        spec.branch_features = 1;
        spec.shared_rows = 3 + draw;
        spec.shared_features = 1;
        spec.match_fraction = match_fraction;
        spec.seed = rng.Next();
        SCOPED_TRACE("draw " + std::to_string(draw) + ", match " +
                     std::to_string(match_fraction) + ", inner branches " +
                     std::to_string(inner_branches));
        const rel::ConformedSnowflake scenario =
            rel::GenerateConformedSnowflake(spec);
        auto derived =
            factorized::DeriveConformedSnowflakeMetadata(scenario,
                                                         inner_branches);
        ASSERT_TRUE(derived.ok()) << derived.status();

        rel::Table joined = scenario.tables[0];
        for (size_t b = 0; b < spec.branches; ++b) {
          auto step = rel::HashJoin(
              joined, scenario.tables[1 + b], {scenario.branch_keys[b]},
              {scenario.branch_keys[b]},
              b < inner_branches ? rel::JoinKind::kInnerJoin
                                 : rel::JoinKind::kLeftJoin);
          ASSERT_TRUE(step.ok()) << step.status();
          joined = std::move(step->table);
        }
        auto last = rel::HashJoin(joined, scenario.tables.back(),
                                  {scenario.shared_key}, {scenario.shared_key},
                                  rel::JoinKind::kLeftJoin);
        ASSERT_TRUE(last.ok()) << last.status();
        EXPECT_EQ(derived->target_rows(), last->table.NumRows());
        auto projected =
            last->table.ProjectNames(derived->target_schema().Names());
        ASSERT_TRUE(projected.ok()) << projected.status();
        auto expected = projected->ToMatrix();
        ASSERT_TRUE(expected.ok());
        EXPECT_TRUE(
            derived->MaterializeTargetMatrix().ApproxEquals(*expected, 1e-12));
      }
    }
  }
}

TEST(GraphMetadataTest, InnerEdgeIntoConformedDimensionChecksItsOwnChain) {
  // Regression: an inner edge whose CHILD is a conformed dimension must
  // test its own chain, not the merged indicator — a row whose inner-edge
  // reference dangles is dropped even when another parent's chain resolves
  // the dimension.
  auto keyed = [](const std::string& name, const std::string& key,
                  std::vector<int64_t> keys,
                  std::vector<std::pair<std::string, std::vector<int64_t>>>
                      extra_keys,
                  const std::string& feature, std::vector<double> values) {
    rel::Table table(name);
    AMALUR_CHECK_OK(
        table.AddColumn(rel::Column::FromInt64s(key, std::move(keys))));
    for (auto& [k, v] : extra_keys) {
      AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s(k, std::move(v))));
    }
    AMALUR_CHECK_OK(
        table.AddColumn(rel::Column::FromDoubles(feature, std::move(values))));
    return table;
  };
  // fact rows: row 3's b1 reference dangles (no b1 row carries key 9); its
  // b0 chain still resolves the shared dimension.
  rel::Table fact = keyed("fact", "b0_id", {0, 1, 0, 1},
                          {{"b1_id", {1, 0, 1, 9}}}, "y",
                          {1.0, 2.0, 3.0, 4.0});
  rel::Table b0 =
      keyed("b0", "b0_id", {0, 1}, {{"c_id", {0, 1}}}, "u0", {10.0, 11.0});
  rel::Table b1 =
      keyed("b1", "b1_id", {0, 1}, {{"c_id", {1, 0}}}, "v0", {20.0, 21.0});
  rel::Table c = keyed("c", "c_id", {0, 1}, {}, "w0", {30.0, 31.0});

  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{"fact", fact.schema(),
                                              {{"y", "y"}}},
       integration::SchemaMapping::SourceSpec{"b0", b0.schema(),
                                              {{"u0", "u0"}}},
       integration::SchemaMapping::SourceSpec{"b1", b1.schema(),
                                              {{"v0", "v0"}}},
       integration::SchemaMapping::SourceSpec{"c", c.schema(), {{"w0", "w0"}}}},
      rel::Schema::AllDouble({"y", "u0", "v0", "w0"}),
      {{0, "b0_id", 1, "b0_id"},
       {0, "b1_id", 2, "b1_id"},
       {1, "c_id", 3, "c_id"},
       {2, "c_id", 3, "c_id"}});
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  auto m_b0 = rel::MatchRowsOnKeys(fact, b0, {"b0_id"}, {"b0_id"});
  auto m_b1 = rel::MatchRowsOnKeys(fact, b1, {"b1_id"}, {"b1_id"});
  auto m_b0c = rel::MatchRowsOnKeys(b0, c, {"c_id"}, {"c_id"});
  auto m_b1c = rel::MatchRowsOnKeys(b1, c, {"c_id"}, {"c_id"});
  ASSERT_TRUE(m_b0.ok() && m_b1.ok() && m_b0c.ok() && m_b1c.ok());
  // NOTE: b0 and b1 route each fact row to the SAME c row (b0's c_id is the
  // identity on key k -> c_id k; b1's is the swap, but fact references b1
  // with swapped keys), so the conformed contract holds where both resolve.
  const std::vector<MetadataEdge> edges{{0, 1, rel::JoinKind::kLeftJoin},
                                        {0, 2, rel::JoinKind::kLeftJoin},
                                        {1, 3, rel::JoinKind::kLeftJoin},
                                        {2, 3, rel::JoinKind::kInnerJoin}};
  const std::vector<rel::RowMatching> matchings{*m_b0, *m_b1, *m_b0c, *m_b1c};

  auto md = DiMetadata::DeriveGraph(*mapping, {&fact, &b0, &b1, &c}, edges,
                                    matchings);
  ASSERT_TRUE(md.ok()) << md.status();
  // Row 3 is dropped: its b1 -> c chain dangles, even though b0 -> c
  // resolves. This is exactly (fact LJ b0 LJ b1) INNER JOIN c ON b1.c_id.
  EXPECT_EQ(md->target_rows(), 3u);
  auto j1 = rel::HashJoin(fact, b0, {"b0_id"}, {"b0_id"},
                          rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j1.ok());
  auto j2 = rel::HashJoin(j1->table, b1, {"b1_id"}, {"b1_id"},
                          rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j2.ok());
  auto j3 = rel::HashJoin(j2->table, c, {"c_id_b1"}, {"c_id"},
                          rel::JoinKind::kInnerJoin);
  if (!j3.ok()) {
    // Column naming of the duplicate c_id depends on the join's collision
    // suffix; fall back to the unsuffixed name if b1's copy kept it.
    j3 = rel::HashJoin(j2->table, c, {"c_id"}, {"c_id"},
                       rel::JoinKind::kInnerJoin);
  }
  ASSERT_TRUE(j3.ok()) << j3.status();
  EXPECT_EQ(md->target_rows(), j3->table.NumRows());
}

TEST(GraphMetadataTest, ChainConflictOnInnerDroppedRowIsHarmless) {
  // Conformed chains that disagree ONLY on rows an inner-join edge drops
  // never reach the target — the derivation must succeed. The same graph
  // without the inner edge keeps the row and must fail.
  auto keyed = [](const std::string& name,
                  std::vector<std::pair<std::string, std::vector<int64_t>>>
                      key_columns,
                  const std::string& feature, std::vector<double> values) {
    rel::Table table(name);
    for (auto& [k, v] : key_columns) {
      AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s(k, std::move(v))));
    }
    AMALUR_CHECK_OK(
        table.AddColumn(rel::Column::FromDoubles(feature, std::move(values))));
    return table;
  };
  // Row 3: b0 chain -> c row 1, b1 chain -> c row 0 (conflict), and b2's
  // reference dangles (key 9).
  rel::Table fact = keyed(
      "fact",
      {{"b0_id", {0, 1, 0, 1}}, {"b1_id", {0, 1, 0, 2}}, {"b2_id", {0, 1, 0, 9}}},
      "y", {1.0, 2.0, 3.0, 4.0});
  rel::Table b0 =
      keyed("b0", {{"b0_id", {0, 1}}, {"c_id", {0, 1}}}, "u0", {10.0, 11.0});
  rel::Table b1 = keyed("b1", {{"b1_id", {0, 1, 2}}, {"c_id", {0, 1, 0}}}, "v0",
                        {20.0, 21.0, 22.0});
  rel::Table b2 = keyed("b2", {{"b2_id", {0, 1}}}, "t0", {40.0, 41.0});
  rel::Table c = keyed("c", {{"c_id", {0, 1}}}, "w0", {30.0, 31.0});

  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{"fact", fact.schema(),
                                              {{"y", "y"}}},
       integration::SchemaMapping::SourceSpec{"b0", b0.schema(),
                                              {{"u0", "u0"}}},
       integration::SchemaMapping::SourceSpec{"b1", b1.schema(),
                                              {{"v0", "v0"}}},
       integration::SchemaMapping::SourceSpec{"b2", b2.schema(),
                                              {{"t0", "t0"}}},
       integration::SchemaMapping::SourceSpec{"c", c.schema(), {{"w0", "w0"}}}},
      rel::Schema::AllDouble({"y", "u0", "v0", "t0", "w0"}),
      {{0, "b0_id", 1, "b0_id"},
       {0, "b1_id", 2, "b1_id"},
       {0, "b2_id", 3, "b2_id"},
       {1, "c_id", 4, "c_id"},
       {2, "c_id", 4, "c_id"}});
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  auto m_b0 = rel::MatchRowsOnKeys(fact, b0, {"b0_id"}, {"b0_id"});
  auto m_b1 = rel::MatchRowsOnKeys(fact, b1, {"b1_id"}, {"b1_id"});
  auto m_b2 = rel::MatchRowsOnKeys(fact, b2, {"b2_id"}, {"b2_id"});
  auto m_b0c = rel::MatchRowsOnKeys(b0, c, {"c_id"}, {"c_id"});
  auto m_b1c = rel::MatchRowsOnKeys(b1, c, {"c_id"}, {"c_id"});
  ASSERT_TRUE(m_b0.ok() && m_b1.ok() && m_b2.ok() && m_b0c.ok() && m_b1c.ok());
  const std::vector<const rel::Table*> tables{&fact, &b0, &b1, &b2, &c};
  const std::vector<rel::RowMatching> matchings{*m_b0, *m_b1, *m_b2, *m_b0c,
                                                *m_b1c};

  // Inner edge on b2: row 3 drops, its chain conflict is moot.
  auto with_inner = DiMetadata::DeriveGraph(
      *mapping, tables,
      {{0, 1, rel::JoinKind::kLeftJoin},
       {0, 2, rel::JoinKind::kLeftJoin},
       {0, 3, rel::JoinKind::kInnerJoin},
       {1, 4, rel::JoinKind::kLeftJoin},
       {2, 4, rel::JoinKind::kLeftJoin}},
      matchings);
  ASSERT_TRUE(with_inner.ok()) << with_inner.status();
  EXPECT_EQ(with_inner->target_rows(), 3u);

  // All-left graph: row 3 survives, so the disagreement is fatal.
  auto all_left = DiMetadata::DeriveGraph(
      *mapping, tables,
      {{0, 1, rel::JoinKind::kLeftJoin},
       {0, 2, rel::JoinKind::kLeftJoin},
       {0, 3, rel::JoinKind::kLeftJoin},
       {1, 4, rel::JoinKind::kLeftJoin},
       {2, 4, rel::JoinKind::kLeftJoin}},
      matchings);
  EXPECT_TRUE(all_left.status().IsFailedPrecondition()) << all_left.status();
}

TEST(GraphMetadataTest, SharedDimensionAcrossUnionShards) {
  // Two fact shards referencing ONE dimension silo: the union-of-stars
  // generalization of a conformed dimension. The dimension's single source
  // entry serves both shard blocks through one indicator.
  Rng rng(41);
  const size_t shard_rows = 30, dim_rows = 6;
  rel::Table dim("dim");
  {
    std::vector<int64_t> keys(dim_rows);
    for (size_t i = 0; i < dim_rows; ++i) keys[i] = static_cast<int64_t>(i);
    AMALUR_CHECK_OK(dim.AddColumn(rel::Column::FromInt64s("dim_id", keys)));
    std::vector<double> u(dim_rows);
    for (double& v : u) v = rng.NextGaussian();
    AMALUR_CHECK_OK(dim.AddColumn(rel::Column::FromDoubles("u0", u)));
  }
  auto make_fact = [&](const std::string& name, size_t offset) {
    rel::Table fact(name);
    std::vector<int64_t> keys(shard_rows);
    std::vector<double> y(shard_rows), x(shard_rows);
    for (size_t i = 0; i < shard_rows; ++i) {
      keys[i] = static_cast<int64_t>((i + offset) % dim_rows);
      y[i] = rng.NextGaussian();
      x[i] = rng.NextGaussian();
    }
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s("dim_id", keys)));
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("y", y)));
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("x0", x)));
    return fact;
  };
  rel::Table fact0 = make_fact("fact0", 0);
  rel::Table fact1 = make_fact("fact1", 3);

  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kUnion,
      {integration::SchemaMapping::SourceSpec{
           "fact0", fact0.schema(), {{"y", "y"}, {"x0", "x0"}}},
       integration::SchemaMapping::SourceSpec{
           "fact1", fact1.schema(), {{"y", "y"}, {"x0", "x0"}}},
       integration::SchemaMapping::SourceSpec{
           "dim", dim.schema(), {{"u0", "u0"}}}},
      rel::Schema::AllDouble({"y", "x0", "u0"}),
      {{0, "dim_id", 2, "dim_id"}, {1, "dim_id", 2, "dim_id"}});
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  auto m0 = rel::MatchRowsOnKeys(fact0, dim, {"dim_id"}, {"dim_id"});
  auto m1 = rel::MatchRowsOnKeys(fact1, dim, {"dim_id"}, {"dim_id"});
  ASSERT_TRUE(m0.ok() && m1.ok());

  auto md = DiMetadata::DeriveGraph(
      *mapping, {&fact0, &fact1, &dim},
      {{0, 1, rel::JoinKind::kUnion},
       {0, 2, rel::JoinKind::kLeftJoin},
       {1, 2, rel::JoinKind::kLeftJoin}},
      {{}, *m0, *m1});
  ASSERT_TRUE(md.ok()) << md.status();
  EXPECT_EQ(md->shape(), IntegrationShape::kUnionOfStars);
  EXPECT_EQ(md->num_shards(), 2u);
  EXPECT_EQ(md->num_shared_dimensions(), 1u);
  EXPECT_EQ(md->target_rows(), 2 * shard_rows);
  // The dimension's indicator is defined in BOTH shard blocks.
  const CompressedIndicator& shared = md->source(2).indicator;
  for (size_t i = 0; i < shard_rows; ++i) {
    EXPECT_EQ(shared.At(i), static_cast<int64_t>(i % dim_rows));
    EXPECT_EQ(shared.At(shard_rows + i),
              static_cast<int64_t>((i + 3) % dim_rows));
  }

  // Reference: per-shard fact ⋈ dim blocks stacked.
  la::DenseMatrix target = md->MaterializeTargetMatrix();
  for (size_t s = 0; s < 2; ++s) {
    const rel::Table& fact = s == 0 ? fact0 : fact1;
    auto joined = rel::HashJoin(fact, dim, {"dim_id"}, {"dim_id"},
                                rel::JoinKind::kLeftJoin);
    ASSERT_TRUE(joined.ok()) << joined.status();
    for (const std::string& name : {"y", "x0", "u0"}) {
      const auto target_col = md->target_schema().IndexOf(name);
      auto shard_col = joined->table.ColumnIndex(name);
      ASSERT_TRUE(shard_col.ok());
      for (size_t i = 0; i < shard_rows; ++i) {
        EXPECT_NEAR(target.At(s * shard_rows + i, *target_col),
                    joined->table.column(*shard_col).GetDouble(i), 1e-12)
            << "shard " << s << " row " << i << " column " << name;
      }
    }
  }
}

TEST(GraphMetadataTest, FanOutIntoConformedDimensionRejected) {
  // Fan-out is legal on a plain dimension edge, but an edge into a
  // conformed dimension must resolve each row to one dimension row: c has
  // two rows with c_id 0, so b0 -> c (edge 2) fans out.
  auto keyed = [](const std::string& name,
                  std::vector<std::pair<std::string, std::vector<int64_t>>>
                      key_columns,
                  const std::string& feature, std::vector<double> values) {
    rel::Table table(name);
    for (auto& [k, v] : key_columns) {
      AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s(k, std::move(v))));
    }
    AMALUR_CHECK_OK(
        table.AddColumn(rel::Column::FromDoubles(feature, std::move(values))));
    return table;
  };
  rel::Table fact =
      keyed("fact", {{"b0_id", {0, 1}}, {"b1_id", {0, 1}}}, "y", {1.0, 2.0});
  rel::Table b0 =
      keyed("b0", {{"b0_id", {0, 1}}, {"c_id", {0, 1}}}, "u0", {10.0, 11.0});
  rel::Table b1 =
      keyed("b1", {{"b1_id", {0, 1}}, {"c_id", {1, 1}}}, "v0", {20.0, 21.0});
  rel::Table c = keyed("c", {{"c_id", {0, 0, 1}}}, "w0", {30.0, 31.0, 32.0});
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{"fact", fact.schema(),
                                              {{"y", "y"}}},
       integration::SchemaMapping::SourceSpec{"b0", b0.schema(),
                                              {{"u0", "u0"}}},
       integration::SchemaMapping::SourceSpec{"b1", b1.schema(),
                                              {{"v0", "v0"}}},
       integration::SchemaMapping::SourceSpec{"c", c.schema(), {{"w0", "w0"}}}},
      rel::Schema::AllDouble({"y", "u0", "v0", "w0"}),
      {{0, "b0_id", 1, "b0_id"},
       {0, "b1_id", 2, "b1_id"},
       {1, "c_id", 3, "c_id"},
       {2, "c_id", 3, "c_id"}});
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  std::vector<rel::RowMatching> matchings;
  for (const auto& [left, right, key] :
       std::vector<std::tuple<const rel::Table*, const rel::Table*,
                              std::string>>{{&fact, &b0, "b0_id"},
                                            {&fact, &b1, "b1_id"},
                                            {&b0, &c, "c_id"},
                                            {&b1, &c, "c_id"}}) {
    auto matching = rel::MatchRowsOnKeys(*left, *right, {key}, {key});
    ASSERT_TRUE(matching.ok()) << matching.status();
    matchings.push_back(std::move(matching).ValueOrDie());
  }
  auto md = DiMetadata::DeriveGraph(*mapping, {&fact, &b0, &b1, &c},
                                    {{0, 1, rel::JoinKind::kLeftJoin},
                                     {0, 2, rel::JoinKind::kLeftJoin},
                                     {1, 3, rel::JoinKind::kLeftJoin},
                                     {2, 3, rel::JoinKind::kLeftJoin}},
                                    matchings);
  EXPECT_TRUE(md.status().IsFailedPrecondition()) << md.status();
  EXPECT_NE(md.status().message().find("graph edge 2"), std::string::npos)
      << md.status();
}

TEST(GraphMetadataTest, Validation) {
  StarFixture f = MakeStar();
  const std::vector<const rel::Table*> tables{&f.base, &f.dim1, &f.dim2};
  // Edges must be in topological order with parent < child.
  EXPECT_TRUE(DiMetadata::DeriveGraph(
                  f.mapping, tables,
                  {{1, 0, rel::JoinKind::kLeftJoin},
                   {0, 2, rel::JoinKind::kLeftJoin}},
                  f.matchings)
                  .status()
                  .IsInvalidArgument());
  // Every non-root source needs a parent edge (source 1 has none here; a
  // multi-parent *dimension* — a conformed dimension — is legal, a
  // disconnected source is not).
  EXPECT_TRUE(DiMetadata::DeriveGraph(
                  f.mapping, tables,
                  {{0, 2, rel::JoinKind::kLeftJoin},
                   {1, 2, rel::JoinKind::kLeftJoin}},
                  f.matchings)
                  .status()
                  .IsInvalidArgument());
  // Full outer joins are not graph edges (inner joins are, since the
  // conformed-dimension generalization).
  EXPECT_TRUE(DiMetadata::DeriveGraph(
                  f.mapping, tables,
                  {{0, 1, rel::JoinKind::kFullOuterJoin},
                   {0, 2, rel::JoinKind::kLeftJoin}},
                  f.matchings)
                  .status()
                  .IsInvalidArgument());
  // Duplicate edges between one pair.
  {
    std::vector<rel::RowMatching> duplicated{f.matchings[0], f.matchings[0],
                                             f.matchings[1]};
    EXPECT_TRUE(DiMetadata::DeriveGraph(
                    f.mapping, tables,
                    {{0, 1, rel::JoinKind::kLeftJoin},
                     {0, 1, rel::JoinKind::kLeftJoin},
                     {0, 2, rel::JoinKind::kLeftJoin}},
                    duplicated)
                    .status()
                    .IsInvalidArgument());
  }
  // Union edges carry no row matching.
  EXPECT_TRUE(DiMetadata::DeriveGraph(
                  f.mapping, tables,
                  {{0, 1, rel::JoinKind::kLeftJoin},
                   {0, 2, rel::JoinKind::kUnion}},
                  f.matchings)
                  .status()
                  .IsInvalidArgument());
  // A union edge set needs a union mapping (this one is left-join).
  std::vector<rel::RowMatching> union_matchings{f.matchings[0], {}};
  EXPECT_TRUE(DiMetadata::DeriveGraph(
                  f.mapping, tables,
                  {{0, 1, rel::JoinKind::kLeftJoin},
                   {0, 2, rel::JoinKind::kUnion}},
                  union_matchings)
                  .status()
                  .IsInvalidArgument());
  // Non-functional join matching.
  auto broken = f.matchings;
  broken[0].matched.push_back(broken[0].matched[0]);
  EXPECT_TRUE(DiMetadata::DeriveGraph(
                  f.mapping, tables,
                  {{0, 1, rel::JoinKind::kLeftJoin},
                   {0, 2, rel::JoinKind::kLeftJoin}},
                  broken)
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace metadata
}  // namespace amalur
