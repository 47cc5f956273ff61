#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "core/amalur.h"
#include "factorized/scenario_builder.h"
#include "integration/schema_mapping.h"
#include "metadata/di_metadata.h"
#include "relational/generator.h"
#include "relational/join.h"
#include "federated/hfl.h"
#include "federated/vfl.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"

namespace amalur {
namespace federated {
namespace {

/// Centralized reference: GD linear regression on [xa | xb].
la::DenseMatrix CentralizedWeights(const la::DenseMatrix& xa,
                                   const la::DenseMatrix& labels,
                                   const la::DenseMatrix& xb, size_t iterations,
                                   double learning_rate) {
  ml::MaterializedMatrix features(xa.ConcatColumns(xb));
  ml::GradientDescentOptions options;
  options.iterations = iterations;
  options.learning_rate = learning_rate;
  return ml::TrainLinearRegression(features, labels, options).weights;
}

struct VflFixture {
  la::DenseMatrix xa, labels, xb;
};

VflFixture MakeVflFixture(size_t rows, size_t pa, size_t pb, uint64_t seed) {
  Rng rng(seed);
  VflFixture f{la::DenseMatrix::RandomGaussian(rows, pa, &rng),
               la::DenseMatrix(rows, 1),
               la::DenseMatrix::RandomGaussian(rows, pb, &rng)};
  // Planted linear model over the joint feature space + noise.
  la::DenseMatrix wa = la::DenseMatrix::RandomGaussian(pa, 1, &rng);
  la::DenseMatrix wb = la::DenseMatrix::RandomGaussian(pb, 1, &rng);
  f.labels = f.xa.Multiply(wa).Add(f.xb.Multiply(wb));
  for (size_t i = 0; i < rows; ++i) {
    f.labels.At(i, 0) += 0.01 * rng.NextGaussian();
  }
  return f;
}

/// Two-party vertical FLR: party "A" holds `xa` and the labels, party "B"
/// holds `xb`.
Result<NaryVflResult> TrainTwoParty(const la::DenseMatrix& xa,
                                    const la::DenseMatrix& labels,
                                    const la::DenseMatrix& xb,
                                    const VflOptions& options,
                                    MessageBus* bus) {
  return TrainVerticalFlrNary({{"A", xa, {}}, {"B", xb, {}}}, labels, options,
                              bus);
}

TEST(VflTest, PlaintextMatchesCentralizedExactly) {
  VflFixture f = MakeVflFixture(80, 3, 2, 1);
  MessageBus bus;
  VflOptions options;
  options.iterations = 60;
  options.learning_rate = 0.1;
  options.privacy = VflPrivacy::kPlaintext;
  auto result = TrainTwoParty(f.xa, f.labels, f.xb, options, &bus);
  ASSERT_TRUE(result.ok()) << result.status();
  la::DenseMatrix central =
      CentralizedWeights(f.xa, f.labels, f.xb, 60, 0.1);
  // Federated [θA; θB] equals the centralized weight vector: the protocol
  // computes the same gradients, just split by party.
  la::DenseMatrix combined = result->thetas[0].ConcatRows(result->thetas[1]);
  EXPECT_LT(combined.MaxAbsDiff(central), 1e-10);
  EXPECT_GT(result->bytes_transferred, 0u);
}

TEST(VflTest, PaillierMatchesCentralizedWithinFixedPoint) {
  VflFixture f = MakeVflFixture(40, 2, 2, 2);
  MessageBus bus;
  VflOptions options;
  options.iterations = 15;
  options.learning_rate = 0.1;
  options.privacy = VflPrivacy::kPaillier;
  auto result = TrainTwoParty(f.xa, f.labels, f.xb, options, &bus);
  ASSERT_TRUE(result.ok()) << result.status();
  la::DenseMatrix central = CentralizedWeights(f.xa, f.labels, f.xb, 15, 0.1);
  la::DenseMatrix combined = result->thetas[0].ConcatRows(result->thetas[1]);
  EXPECT_LT(combined.MaxAbsDiff(central), 1e-2);  // fixed-point tolerance
  // Loss decreases under encryption too.
  EXPECT_LT(result->loss_history.back(), result->loss_history.front());
}

TEST(VflTest, EncryptionInflatesTraffic) {
  // §V.B: "encryption often brings tremendous computation overhead" — and
  // ciphertext expansion shows up directly in transfer volume.
  VflFixture f = MakeVflFixture(30, 2, 2, 3);
  VflOptions options;
  options.iterations = 5;
  MessageBus plain_bus;
  options.privacy = VflPrivacy::kPlaintext;
  auto plain = TrainTwoParty(f.xa, f.labels, f.xb, options, &plain_bus);
  ASSERT_TRUE(plain.ok());
  MessageBus secure_bus;
  options.privacy = VflPrivacy::kPaillier;
  auto secure = TrainTwoParty(f.xa, f.labels, f.xb, options, &secure_bus);
  ASSERT_TRUE(secure.ok());
  EXPECT_GT(secure->bytes_transferred, plain->bytes_transferred);
}

TEST(VflTest, InputValidation) {
  la::DenseMatrix a(4, 2), y(4, 1), b(5, 2);
  MessageBus bus;
  EXPECT_TRUE(TrainTwoParty(a, y, b, {}, &bus).status().IsInvalidArgument());
  EXPECT_TRUE(
      TrainTwoParty(a, y, a, {}, nullptr).status().IsInvalidArgument());
  la::DenseMatrix bad_y(4, 2);
  EXPECT_TRUE(
      TrainTwoParty(a, bad_y, a, {}, &bus).status().IsInvalidArgument());
}

TEST(VflAlignmentTest, InnerJoinScenarioProducesDisjointFeatureBlocks) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 60;
  spec.other_rows = 60;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.shared_features = 1;  // s0 overlaps: provided by the base party
  spec.seed = 4;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  ASSERT_TRUE(metadata.ok());
  auto alignment = AlignForVflNary(*metadata, 0);
  ASSERT_TRUE(alignment.ok()) << alignment.status();
  ASSERT_EQ(alignment->parties.size(), 2u);
  const VflParty& a = alignment->parties[0];
  const VflParty& b = alignment->parties[1];
  // A holds s0, x0, x1; B holds z0..z2 (s0 masked away as redundant).
  EXPECT_EQ(a.columns.size(), 3u);
  EXPECT_EQ(b.columns.size(), 3u);
  for (size_t c : a.columns) {
    for (size_t cb : b.columns) EXPECT_NE(c, cb);
  }
  EXPECT_EQ(a.x.rows(), 60u);
  EXPECT_EQ(b.x.rows(), 60u);

  // Training on the aligned blocks equals centralized training on the
  // materialized feature matrix.
  MessageBus bus;
  VflOptions options;
  options.iterations = 40;
  options.learning_rate = 0.05;
  auto fed = TrainTwoParty(a.x, alignment->labels, b.x, options, &bus);
  ASSERT_TRUE(fed.ok());
  la::DenseMatrix central =
      CentralizedWeights(a.x, alignment->labels, b.x, 40, 0.05);
  EXPECT_LT(fed->thetas[0].ConcatRows(fed->thetas[1]).MaxAbsDiff(central),
            1e-10);
}

TEST(VflAlignmentTest, RejectsPartialSampleSpace) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 40;
  spec.other_rows = 20;
  spec.match_fraction = 0.5;
  spec.seed = 5;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  ASSERT_TRUE(metadata.ok());
  EXPECT_TRUE(AlignForVflNary(*metadata, 0).status().IsFailedPrecondition());
}

std::vector<HflPartition> MakeHflParties(size_t parties, size_t rows_each,
                                         size_t features, uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix w_true = la::DenseMatrix::RandomGaussian(features, 1, &rng);
  std::vector<HflPartition> out;
  for (size_t p = 0; p < parties; ++p) {
    HflPartition partition{
        la::DenseMatrix::RandomGaussian(rows_each, features, &rng),
        la::DenseMatrix(rows_each, 1)};
    partition.labels = partition.features.Multiply(w_true);
    for (size_t i = 0; i < rows_each; ++i) {
      partition.labels.At(i, 0) += 0.05 * rng.NextGaussian();
    }
    out.push_back(std::move(partition));
  }
  return out;
}

TEST(HflTest, FedAvgConverges) {
  auto parties = MakeHflParties(3, 50, 4, 10);
  MessageBus bus;
  HflOptions options;
  options.rounds = 60;
  options.local_epochs = 2;
  options.learning_rate = 0.2;
  auto result = TrainHorizontalFlr(parties, options, &bus);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(result->loss_history.back(), 0.1 * result->loss_history.front());
  EXPECT_LT(result->loss_history.back(), 0.05);
}

TEST(HflTest, SecureAggregationMatchesPlaintextAggregation) {
  auto parties = MakeHflParties(4, 30, 3, 11);
  HflOptions options;
  options.rounds = 10;
  options.local_epochs = 1;
  options.learning_rate = 0.1;
  MessageBus bus_secure, bus_plain;
  options.secure_aggregation = true;
  auto secure = TrainHorizontalFlr(parties, options, &bus_secure);
  options.secure_aggregation = false;
  auto plain = TrainHorizontalFlr(parties, options, &bus_plain);
  ASSERT_TRUE(secure.ok());
  ASSERT_TRUE(plain.ok());
  // Same model up to fixed-point encoding noise.
  EXPECT_LT(secure->weights.MaxAbsDiff(plain->weights), 1e-5);
  // Secure aggregation costs extra peer-to-peer traffic.
  EXPECT_GT(secure->bytes_transferred, plain->bytes_transferred);
}

TEST(HflTest, WeightedAveragingRespectsPartitionSizes) {
  // One party with many rows should dominate the average.
  Rng rng(12);
  HflPartition big{la::DenseMatrix::RandomGaussian(200, 2, &rng),
                   la::DenseMatrix(200, 1)};
  la::DenseMatrix w_big({{2.0}, {-1.0}});
  big.labels = big.features.Multiply(w_big);
  HflPartition small{la::DenseMatrix::RandomGaussian(10, 2, &rng),
                     la::DenseMatrix(10, 1)};
  la::DenseMatrix w_small({{-5.0}, {5.0}});
  small.labels = small.features.Multiply(w_small);

  MessageBus bus;
  HflOptions options;
  options.rounds = 80;
  options.learning_rate = 0.2;
  auto result = TrainHorizontalFlr({big, small}, options, &bus);
  ASSERT_TRUE(result.ok());
  // The solution sits closer to the big party's weights.
  EXPECT_LT(result->weights.MaxAbsDiff(w_big),
            result->weights.MaxAbsDiff(w_small));
}

TEST(HflTest, EmptyPartitionContributesZeroWeightNotNaN) {
  // A party with zero rows holds no evidence: it must enter the fixed-order
  // merge with weight 0 — never poison the round with a 1/0 local average.
  auto parties = MakeHflParties(2, 25, 3, 17);
  HflPartition empty{la::DenseMatrix(0, 3), la::DenseMatrix(0, 1)};
  std::vector<HflPartition> with_empty{parties[0], empty, parties[1]};

  HflOptions options;
  options.rounds = 20;
  options.learning_rate = 0.1;
  options.secure_aggregation = false;
  MessageBus bus_with, bus_without;
  auto with = TrainHorizontalFlr(with_empty, options, &bus_with);
  auto without = TrainHorizontalFlr(parties, options, &bus_without);
  ASSERT_TRUE(with.ok()) << with.status();
  ASSERT_TRUE(without.ok()) << without.status();
  for (size_t j = 0; j < with->weights.rows(); ++j) {
    ASSERT_TRUE(std::isfinite(with->weights.At(j, 0))) << "weight " << j;
  }
  // Adding a weight-0 participant changes traffic, not the model.
  EXPECT_EQ(with->weights.MaxAbsDiff(without->weights), 0.0);
  EXPECT_EQ(with->loss_history.back(), without->loss_history.back());

  // The secure-aggregation wire stays finite too (shares of a zero model).
  options.secure_aggregation = true;
  MessageBus bus_secure;
  auto secure = TrainHorizontalFlr(with_empty, options, &bus_secure);
  ASSERT_TRUE(secure.ok()) << secure.status();
  for (size_t j = 0; j < secure->weights.rows(); ++j) {
    ASSERT_TRUE(std::isfinite(secure->weights.At(j, 0))) << "weight " << j;
  }
}

TEST(HflAlignmentTest, EmptyFactShardIsSkippedNotFederated) {
  // A union-of-stars with one zero-row fact shard: the empty shard must not
  // become a FedAvg participant (its local average is 0/0). AlignForHfl
  // skips it and the remaining shards train to the exact model the same
  // scenario without the empty silo produces.
  rel::UnionOfStarsSpec spec;
  spec.shards = 3;
  spec.fact_rows = 40;
  spec.fact_features = 2;
  spec.dim_rows = 8;
  spec.dim_features = 2;
  spec.seed = 19;
  rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);
  // Empty the middle shard's fact silo (schema intact, zero rows).
  scenario.tables[2] = scenario.tables[2].GatherRows({});
  ASSERT_EQ(scenario.tables[2].NumRows(), 0u);

  auto metadata = factorized::DeriveUnionOfStarsMetadata(scenario);
  ASSERT_TRUE(metadata.ok()) << metadata.status();
  EXPECT_EQ(metadata->num_shards(), 3u);
  EXPECT_EQ(metadata->ShardRowBegin(1), metadata->ShardRowEnd(1));
  EXPECT_EQ(metadata->target_rows(), 2 * spec.fact_rows);

  auto partitions = AlignForHfl(*metadata, 0);
  ASSERT_TRUE(partitions.ok()) << partitions.status();
  ASSERT_EQ(partitions->size(), 2u);  // the empty shard is not a participant
  for (const HflPartition& partition : *partitions) {
    EXPECT_EQ(partition.features.rows(), spec.fact_rows);
  }

  MessageBus bus;
  HflOptions options;
  options.rounds = 30;
  options.learning_rate = 0.1;
  auto result = TrainHorizontalFlr(*partitions, options, &bus);
  ASSERT_TRUE(result.ok()) << result.status();
  for (size_t j = 0; j < result->weights.rows(); ++j) {
    ASSERT_TRUE(std::isfinite(result->weights.At(j, 0))) << "weight " << j;
  }
  EXPECT_LT(result->loss_history.back(), result->loss_history.front());
}

TEST(HflAlignmentTest, SharedDimensionServesEveryReferencingShardBlock) {
  // Two union shards referencing ONE dimension silo: the conformed
  // dimension's reach-set spans both shards, so AlignForHfl must assemble
  // its contribution into BOTH partitions — each equal to the materialized
  // target's block — from the single silo.
  Rng rng(51);
  const size_t shard_rows = 20, dim_rows = 5;
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
  rel::Table fact1 = make_fact("fact1", 2);

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
  auto metadata = metadata::DiMetadata::DeriveGraph(
      *mapping, {&fact0, &fact1, &dim},
      {{0, 1, rel::JoinKind::kUnion},
       {0, 2, rel::JoinKind::kLeftJoin},
       {1, 2, rel::JoinKind::kLeftJoin}},
      {{}, *m0, *m1});
  ASSERT_TRUE(metadata.ok()) << metadata.status();
  ASSERT_EQ(metadata->num_shared_dimensions(), 1u);
  ASSERT_EQ(metadata->shards_reaching(2).size(), 2u);

  auto partitions = AlignForHfl(*metadata, 0);
  ASSERT_TRUE(partitions.ok()) << partitions.status();
  ASSERT_EQ(partitions->size(), 2u);
  // Each partition is exactly its block of the materialized target — the
  // shared dimension's u0 column filled in BOTH.
  const la::DenseMatrix target = metadata->MaterializeTargetMatrix();
  const size_t u0_col = 2;  // target schema: y, x0, u0
  for (size_t s = 0; s < 2; ++s) {
    const HflPartition& partition = (*partitions)[s];
    ASSERT_EQ(partition.features.rows(), shard_rows);
    ASSERT_EQ(partition.features.cols(), 2u);  // x0, u0
    bool any_dim_value = false;
    for (size_t i = 0; i < shard_rows; ++i) {
      EXPECT_EQ(partition.labels.At(i, 0), target.At(s * shard_rows + i, 0));
      EXPECT_EQ(partition.features.At(i, 0),
                target.At(s * shard_rows + i, 1));
      EXPECT_EQ(partition.features.At(i, 1),
                target.At(s * shard_rows + i, u0_col));
      any_dim_value |= partition.features.At(i, 1) != 0.0;
    }
    EXPECT_TRUE(any_dim_value) << "shard " << s
                               << " never received the shared dimension";
  }

  // And the partitions train like any horizontal federation.
  MessageBus bus;
  HflOptions options;
  options.rounds = 20;
  options.learning_rate = 0.1;
  auto result = TrainHorizontalFlr(*partitions, options, &bus);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(result->loss_history.back(), result->loss_history.front());
}

TEST(HflAlignmentTest, MergedDimensionColumnEqualsTheTargetBitForBit) {
  // Two fact shards (y, x, d_id), each left-joined to its own dimension
  // (d_id, x, w) whose x the matcher merges into the fact's x. The fact
  // supplies x first, so the dimension's copy is redundancy-masked: every
  // partition must equal its block of the materialized target bit for bit.
  // Adding the masked value and subtracting it again would leave
  // (a + b) - b, which rounds, and loses a entirely next to b = 1e17.
  Rng rng(61);
  const size_t fact_rows = 40, dim_rows = 8;
  const auto gaussians = [&](size_t n) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.NextGaussian();
    return values;
  };
  core::Amalur system;
  for (size_t s = 0; s < 2; ++s) {
    rel::Table dim("dim" + std::to_string(s));
    std::vector<int64_t> keys(dim_rows);
    for (size_t i = 0; i < dim_rows; ++i) keys[i] = static_cast<int64_t>(i);
    std::vector<double> dim_x = gaussians(dim_rows);
    dim_x[3] = 1e17;
    AMALUR_CHECK_OK(dim.AddColumn(rel::Column::FromInt64s("d_id", keys)));
    AMALUR_CHECK_OK(dim.AddColumn(rel::Column::FromDoubles("x", dim_x)));
    AMALUR_CHECK_OK(
        dim.AddColumn(rel::Column::FromDoubles("w", gaussians(dim_rows))));

    rel::Table fact("fact" + std::to_string(s));
    std::vector<int64_t> refs(fact_rows);
    for (size_t i = 0; i < fact_rows; ++i) {
      refs[i] = static_cast<int64_t>(i % dim_rows);
    }
    AMALUR_CHECK_OK(
        fact.AddColumn(rel::Column::FromDoubles("y", gaussians(fact_rows))));
    AMALUR_CHECK_OK(
        fact.AddColumn(rel::Column::FromDoubles("x", gaussians(fact_rows))));
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s("d_id", refs)));
    ASSERT_TRUE(
        system.catalog()->RegisterSource({fact.name(), fact, "", false}).ok());
    ASSERT_TRUE(
        system.catalog()->RegisterSource({dim.name(), dim, "", false}).ok());
  }
  core::IntegrationSpec spec;
  spec.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                {"fact0", "fact1", rel::JoinKind::kUnion},
                {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(spec);
  ASSERT_TRUE(integration.ok()) << integration.status();
  const metadata::DiMetadata& md = integration->metadata;
  ASSERT_EQ(md.target_cols(), 4u);  // y, x, w and the second shard's w
  size_t masked_cells = 0;
  for (size_t k = 0; k < md.num_sources(); ++k) {
    masked_cells += md.source(k).redundancy.RedundantCellCount();
  }
  ASSERT_EQ(masked_cells, 2 * fact_rows);  // every dimension x is masked

  const size_t label = *md.target_schema().IndexOf("y");
  auto partitions = AlignForHfl(md, label);
  ASSERT_TRUE(partitions.ok()) << partitions.status();
  ASSERT_EQ(partitions->size(), 2u);
  const la::DenseMatrix target = md.MaterializeTargetMatrix();
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  size_t differing = 0;
  for (size_t s = 0; s < 2; ++s) {
    const HflPartition& partition = (*partitions)[s];
    ASSERT_EQ(partition.features.rows(), fact_rows);
    for (size_t i = 0; i < fact_rows; ++i) {
      const size_t row = md.ShardRowBegin(s) + i;
      differing += !same_bits(partition.labels.At(i, 0), target.At(row, label));
      for (size_t j = 0, f = 0; j < md.target_cols(); ++j) {
        if (j == label) continue;
        differing +=
            !same_bits(partition.features.At(i, f++), target.At(row, j));
      }
    }
  }
  EXPECT_EQ(differing, 0u);
}

TEST(HflTest, InputValidation) {
  MessageBus bus;
  EXPECT_TRUE(TrainHorizontalFlr({}, {}, &bus).status().IsInvalidArgument());
  auto parties = MakeHflParties(2, 10, 3, 13);
  EXPECT_TRUE(
      TrainHorizontalFlr(parties, {}, nullptr).status().IsInvalidArgument());
  parties[1].features = la::DenseMatrix(10, 99);
  EXPECT_TRUE(
      TrainHorizontalFlr(parties, {}, &bus).status().IsInvalidArgument());
}

}  // namespace
}  // namespace federated
}  // namespace amalur
