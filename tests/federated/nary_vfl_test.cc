// The n-ary vertical protocol: N feature-holding silos must reproduce
// centralized gradient descent on the materialized join (plaintext exactly,
// Paillier within fixed-point error), the N = 2 instance must be
// bitwise-identical to the historical pairwise protocol, and the
// metadata-driven alignment must hand every silo exactly its composed
// indicator block.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "federated/vfl.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/training_matrix.h"
#include "testing/generator.h"
#include "testing/reference_kernels.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace federated {
namespace {

/// N random row-aligned feature blocks with a planted joint linear model.
struct NaryFixture {
  std::vector<VflParty> parties;
  la::DenseMatrix labels;
};

NaryFixture MakeNaryFixture(const std::vector<size_t>& features_per_party,
                            size_t rows, uint64_t seed) {
  Rng rng(seed);
  NaryFixture f;
  f.labels = la::DenseMatrix(rows, 1);
  size_t column = 0;
  for (size_t k = 0; k < features_per_party.size(); ++k) {
    VflParty party;
    party.x = la::DenseMatrix::RandomGaussian(rows, features_per_party[k], &rng);
    for (size_t j = 0; j < features_per_party[k]; ++j) {
      party.columns.push_back(column++);
    }
    la::DenseMatrix w_k =
        la::DenseMatrix::RandomGaussian(features_per_party[k], 1, &rng);
    f.labels.AddInPlace(party.x.Multiply(w_k));
    f.parties.push_back(std::move(party));
  }
  for (size_t i = 0; i < rows; ++i) f.labels.At(i, 0) += 0.01 * rng.NextGaussian();
  return f;
}

/// Centralized reference: GD linear regression on the concatenated blocks.
la::DenseMatrix CentralizedWeights(const NaryFixture& f, size_t iterations,
                                   double learning_rate) {
  la::DenseMatrix joined = f.parties[0].x;
  for (size_t k = 1; k < f.parties.size(); ++k) {
    joined = joined.ConcatColumns(f.parties[k].x);
  }
  ml::MaterializedMatrix features(std::move(joined));
  ml::GradientDescentOptions options;
  options.iterations = iterations;
  options.learning_rate = learning_rate;
  return ml::TrainLinearRegression(features, f.labels, options).weights;
}

la::DenseMatrix ConcatThetas(const NaryVflResult& result) {
  la::DenseMatrix combined = result.thetas[0];
  for (size_t k = 1; k < result.thetas.size(); ++k) {
    combined = combined.ConcatRows(result.thetas[k]);
  }
  return combined;
}

TEST(NaryVflTest, PlaintextMatchesCentralizedForTwoThreeAndFiveSilos) {
  const std::vector<std::vector<size_t>> layouts = {
      {3, 2}, {2, 2, 3}, {1, 2, 1, 3, 2}};
  for (const std::vector<size_t>& layout : layouts) {
    NaryFixture f = MakeNaryFixture(layout, 90, 21 + layout.size());
    MessageBus bus;
    VflOptions options;
    options.iterations = 60;
    options.learning_rate = 0.1;
    auto result = TrainVerticalFlrNary(f.parties, f.labels, options, &bus);
    ASSERT_TRUE(result.ok()) << layout.size() << " silos: " << result.status();
    EXPECT_EQ(result->thetas.size(), layout.size());
    EXPECT_EQ(result->rounds, 60u);
    // The protocol computes the same gradients as centralized GD on the
    // materialized join, just split by silo.
    la::DenseMatrix central = CentralizedWeights(f, 60, 0.1);
    EXPECT_LT(ConcatThetas(*result).MaxAbsDiff(central), 1e-10)
        << layout.size() << " silos";
    EXPECT_GT(result->bytes_transferred, 0u);
    // Per round: N-1 partial predictions in, N-1 residual broadcasts out.
    EXPECT_EQ(result->messages, 2 * (layout.size() - 1) * 60);
  }
}

TEST(NaryVflTest, TwoSilosBitwiseIdenticalToLegacyPairwiseProtocol) {
  // Reference: the historical hard-coded two-party plaintext loop (B sends
  // u_B to A, A forms the residual and sends it back), replicated verbatim
  // on the frozen tiled kernels, so it pins the arithmetic rather than
  // re-running the library's. The n-ary protocol at N = 2 must reproduce it
  // bit for bit — same arithmetic, same operation order.
  NaryFixture f = MakeNaryFixture({3, 4}, 70, 5);
  const size_t iterations = 40;
  const double lr = 0.1, l2 = 0.01;
  const double inv_n = 1.0 / 70.0;
  la::DenseMatrix theta_a(3, 1), theta_b(4, 1);
  std::vector<double> losses;
  for (size_t it = 0; it < iterations; ++it) {
    la::DenseMatrix ua = la::ReferenceMultiply(f.parties[0].x, theta_a);
    la::DenseMatrix ub = la::ReferenceMultiply(f.parties[1].x, theta_b);
    la::DenseMatrix predictions = ua.Add(ub);
    losses.push_back(ml::MeanSquaredError(predictions, f.labels));
    la::DenseMatrix d = predictions.Subtract(f.labels);
    la::DenseMatrix grad_a =
        la::ReferenceTransposeMultiply(f.parties[0].x, d).Scale(inv_n);
    la::DenseMatrix grad_b =
        la::ReferenceTransposeMultiply(f.parties[1].x, d).Scale(inv_n);
    grad_a.AddScaled(theta_a, l2);
    grad_b.AddScaled(theta_b, l2);
    theta_a.AddScaled(grad_a, -lr);
    theta_b.AddScaled(grad_b, -lr);
  }

  VflOptions options;
  options.iterations = iterations;
  options.learning_rate = lr;
  options.l2 = l2;
  MessageBus nary_bus;
  auto nary = TrainVerticalFlrNary(f.parties, f.labels, options, &nary_bus);
  ASSERT_TRUE(nary.ok()) << nary.status();
  EXPECT_TRUE(nary->thetas[0] == theta_a);
  EXPECT_TRUE(nary->thetas[1] == theta_b);
  EXPECT_EQ(nary->loss_history, losses);
}

TEST(NaryVflTest, PaillierThreeSilosTracksCentralizedWithinFixedPoint) {
  NaryFixture f = MakeNaryFixture({2, 2, 2}, 40, 9);
  VflOptions options;
  options.iterations = 12;
  options.learning_rate = 0.1;

  MessageBus plain_bus;
  options.privacy = VflPrivacy::kPlaintext;
  auto plain = TrainVerticalFlrNary(f.parties, f.labels, options, &plain_bus);
  ASSERT_TRUE(plain.ok()) << plain.status();

  MessageBus secure_bus;
  options.privacy = VflPrivacy::kPaillier;
  auto secure = TrainVerticalFlrNary(f.parties, f.labels, options, &secure_bus);
  ASSERT_TRUE(secure.ok()) << secure.status();

  la::DenseMatrix central = CentralizedWeights(f, 12, 0.1);
  EXPECT_LT(ConcatThetas(*secure).MaxAbsDiff(central), 1e-2);
  EXPECT_LT(secure->loss_history.back(), secure->loss_history.front());
  // §V.B: the encrypted ring + masked-gradient exchange inflates traffic —
  // each ciphertext travels at its 16-byte serialized size, 2x the
  // plaintext-double rate, and every silo's gradient round-trips through
  // the coordinator on top.
  EXPECT_GT(secure->bytes_transferred, 2 * plain->bytes_transferred);
}

TEST(NaryVflTest, AlignmentAssignsEachSnowflakeSiloItsComposedBlock) {
  // A 3-level snowflake: the leaf dimension reaches the fact only through
  // the chain, so its party block must be built from the *composed*
  // indicator DeriveGraph assigned — training over the aligned blocks then
  // equals centralized GD on the materialized join.
  rel::SnowflakeSpec spec;
  spec.fact_rows = 120;
  spec.fact_features = 2;
  spec.level_rows = {30, 6};
  spec.level_features = {2, 2};
  spec.seed = 33;
  rel::Snowflake snowflake = rel::GenerateSnowflake(spec);
  auto metadata = factorized::DeriveSnowflakeMetadata(snowflake);
  ASSERT_TRUE(metadata.ok()) << metadata.status();

  auto alignment = AlignForVflNary(*metadata, 0);
  ASSERT_TRUE(alignment.ok()) << alignment.status();
  ASSERT_EQ(alignment->parties.size(), 3u);
  // Every silo covers the full sample space and owns disjoint columns.
  std::vector<bool> owned(metadata->target_cols(), false);
  owned[0] = true;  // the label
  for (const VflParty& party : alignment->parties) {
    EXPECT_EQ(party.x.rows(), metadata->target_rows());
    for (size_t c : party.columns) {
      EXPECT_FALSE(owned[c]) << "column " << c << " claimed twice";
      owned[c] = true;
    }
  }
  for (size_t c = 0; c < owned.size(); ++c) {
    EXPECT_TRUE(owned[c]) << "column " << c << " unclaimed";
  }
  // The blocks reassemble the materialized target exactly.
  const la::DenseMatrix target = metadata->MaterializeTargetMatrix();
  for (const VflParty& party : alignment->parties) {
    for (size_t j = 0; j < party.columns.size(); ++j) {
      for (size_t i = 0; i < party.x.rows(); ++i) {
        ASSERT_EQ(party.x.At(i, j), target.At(i, party.columns[j]));
      }
    }
  }

  MessageBus bus;
  VflOptions options;
  options.iterations = 40;
  options.learning_rate = 0.05;
  auto fed =
      TrainVerticalFlrNary(alignment->parties, alignment->labels, options, &bus);
  ASSERT_TRUE(fed.ok()) << fed.status();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < target.cols(); ++j) feature_cols.push_back(j);
  ml::MaterializedMatrix features(target.SelectColumns(feature_cols));
  ml::GradientDescentOptions gd;
  gd.iterations = 40;
  gd.learning_rate = 0.05;
  la::DenseMatrix central =
      ml::TrainLinearRegression(features, alignment->labels, gd).weights;
  // Scatter the per-silo thetas into target-feature order for comparison.
  la::DenseMatrix scattered(central.rows(), 1);
  for (size_t k = 0; k < alignment->parties.size(); ++k) {
    const VflParty& party = alignment->parties[k];
    for (size_t j = 0; j < party.columns.size(); ++j) {
      scattered.At(party.columns[j] - 1, 0) = fed->thetas[k].At(j, 0);
    }
  }
  EXPECT_LT(scattered.MaxAbsDiff(central), 1e-10);
}

TEST(NaryVflTest, ConformedDimensionSiloOwnsItsColumnsOnce) {
  // A conformed dimension enters the vertical protocol as ONE party: its
  // masked block is reached through several parents' composed indicator
  // chains, yet it still owns its feature columns exclusively — and the
  // federated model equals centralized GD on the materialized DAG.
  rel::ConformedSnowflakeSpec spec;
  spec.fact_rows = 120;
  spec.fact_features = 2;
  spec.branches = 2;
  spec.branch_rows = 24;
  spec.branch_features = 2;
  spec.shared_rows = 6;
  spec.shared_features = 2;
  spec.seed = 61;
  rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);
  auto metadata = factorized::DeriveConformedSnowflakeMetadata(scenario);
  ASSERT_TRUE(metadata.ok()) << metadata.status();
  ASSERT_EQ(metadata->num_shared_dimensions(), 1u);

  auto alignment = AlignForVflNary(*metadata, 0);
  ASSERT_TRUE(alignment.ok()) << alignment.status();
  ASSERT_EQ(alignment->parties.size(), 4u);  // the shared silo joins ONCE
  std::vector<bool> owned(metadata->target_cols(), false);
  owned[0] = true;  // the label
  for (const VflParty& party : alignment->parties) {
    EXPECT_EQ(party.x.rows(), metadata->target_rows());
    for (size_t c : party.columns) {
      EXPECT_FALSE(owned[c]) << "column " << c << " claimed twice";
      owned[c] = true;
    }
  }
  for (size_t c = 0; c < owned.size(); ++c) {
    EXPECT_TRUE(owned[c]) << "column " << c << " unclaimed";
  }
  // The conformed silo's block is its merged-indicator contribution: it
  // reassembles the materialized target's shared columns exactly.
  const la::DenseMatrix target = metadata->MaterializeTargetMatrix();
  const VflParty& shared_party = alignment->parties[3];
  ASSERT_EQ(shared_party.columns.size(), spec.shared_features);
  for (size_t j = 0; j < shared_party.columns.size(); ++j) {
    for (size_t i = 0; i < shared_party.x.rows(); ++i) {
      ASSERT_EQ(shared_party.x.At(i, j),
                target.At(i, shared_party.columns[j]));
    }
  }

  MessageBus bus;
  VflOptions options;
  options.iterations = 40;
  options.learning_rate = 0.05;
  auto fed =
      TrainVerticalFlrNary(alignment->parties, alignment->labels, options, &bus);
  ASSERT_TRUE(fed.ok()) << fed.status();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < target.cols(); ++j) feature_cols.push_back(j);
  ml::MaterializedMatrix features(target.SelectColumns(feature_cols));
  ml::GradientDescentOptions gd;
  gd.iterations = 40;
  gd.learning_rate = 0.05;
  la::DenseMatrix central =
      ml::TrainLinearRegression(features, alignment->labels, gd).weights;
  la::DenseMatrix scattered(central.rows(), 1);
  for (size_t k = 0; k < alignment->parties.size(); ++k) {
    const VflParty& party = alignment->parties[k];
    for (size_t j = 0; j < party.columns.size(); ++j) {
      scattered.At(party.columns[j] - 1, 0) = fed->thetas[k].At(j, 0);
    }
  }
  EXPECT_LT(scattered.MaxAbsDiff(central), 1e-10);
}

TEST(NaryVflTest, AlignmentRejectsPartialCoverage) {
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

TEST(NaryVflTest, InputValidation) {
  MessageBus bus;
  la::DenseMatrix y(4, 1);
  // Fewer than two parties.
  EXPECT_TRUE(TrainVerticalFlrNary({VflParty{"", la::DenseMatrix(4, 2), {}}},
                                   y, {}, &bus)
                  .status()
                  .IsInvalidArgument());
  // Misaligned rows on a non-root party.
  std::vector<VflParty> parties(3);
  parties[0].x = la::DenseMatrix(4, 2);
  parties[1].x = la::DenseMatrix(4, 1);
  parties[2].x = la::DenseMatrix(5, 1);
  EXPECT_TRUE(
      TrainVerticalFlrNary(parties, y, {}, &bus).status().IsInvalidArgument());
  // Null bus.
  parties[2].x = la::DenseMatrix(4, 1);
  EXPECT_TRUE(TrainVerticalFlrNary(parties, y, {}, nullptr)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace federated
}  // namespace amalur
