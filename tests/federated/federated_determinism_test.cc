// Parallel/serial equivalence of the federated round loop: per-silo work
// (forward passes, gradients, FedAvg local epochs) fans out over the shared
// pool with a fixed-order merge, so training with a fixed seed must be
// bitwise-reproducible at every thread count — the same contract
// tests/ml/parallel_training_test.cc pins for the centralized trainers,
// extended to both federated protocols and to the facade's federated path.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/amalur.h"
#include "federated/hfl.h"
#include "federated/vfl.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

namespace amalur {
namespace federated {
namespace {

std::vector<size_t> TestedThreadCounts() { return {1, 2, 5}; }

class FederatedDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetNumThreads(0); }
};

std::vector<VflParty> MakeParties(size_t n_parties, size_t rows,
                                  size_t features_each, uint64_t seed,
                                  la::DenseMatrix* labels) {
  Rng rng(seed);
  std::vector<VflParty> parties;
  *labels = la::DenseMatrix(rows, 1);
  for (size_t k = 0; k < n_parties; ++k) {
    VflParty party;
    party.x = la::DenseMatrix::RandomGaussian(rows, features_each, &rng);
    la::DenseMatrix w = la::DenseMatrix::RandomGaussian(features_each, 1, &rng);
    labels->AddInPlace(party.x.Multiply(w));
    parties.push_back(std::move(party));
  }
  return parties;
}

TEST_F(FederatedDeterminismTest, NaryVflBitwiseEqualAcrossThreads) {
  la::DenseMatrix labels;
  std::vector<VflParty> parties = MakeParties(4, 120, 3, 51, &labels);
  VflOptions options;
  options.iterations = 20;
  options.learning_rate = 0.05;

  common::SetNumThreads(1);
  MessageBus serial_bus;
  auto serial = TrainVerticalFlrNary(parties, labels, options, &serial_bus);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    MessageBus bus;
    auto parallel = TrainVerticalFlrNary(parties, labels, options, &bus);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    for (size_t k = 0; k < parties.size(); ++k) {
      EXPECT_TRUE(parallel->thetas[k] == serial->thetas[k])
          << "party " << k << ", thread count " << threads;
    }
    EXPECT_EQ(parallel->loss_history, serial->loss_history)
        << "thread count " << threads;
    EXPECT_EQ(parallel->bytes_transferred, serial->bytes_transferred);
  }
}

TEST_F(FederatedDeterminismTest, PaillierVflBitwiseEqualAcrossThreads) {
  // The secure mode threads one RNG through the encryption schedule and
  // runs serially — the thread knob must not perturb it either.
  la::DenseMatrix labels;
  std::vector<VflParty> parties = MakeParties(3, 30, 2, 52, &labels);
  VflOptions options;
  options.iterations = 4;
  options.learning_rate = 0.05;
  options.privacy = VflPrivacy::kPaillier;

  common::SetNumThreads(1);
  MessageBus serial_bus;
  auto serial = TrainVerticalFlrNary(parties, labels, options, &serial_bus);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    MessageBus bus;
    auto parallel = TrainVerticalFlrNary(parties, labels, options, &bus);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    for (size_t k = 0; k < parties.size(); ++k) {
      EXPECT_TRUE(parallel->thetas[k] == serial->thetas[k])
          << "party " << k << ", thread count " << threads;
    }
  }
}

TEST_F(FederatedDeterminismTest, FedAvgBitwiseEqualAcrossThreads) {
  Rng rng(53);
  std::vector<HflPartition> parties;
  la::DenseMatrix w_true = la::DenseMatrix::RandomGaussian(4, 1, &rng);
  for (size_t p = 0; p < 5; ++p) {
    HflPartition partition{la::DenseMatrix::RandomGaussian(40 + 10 * p, 4, &rng),
                           {}};
    partition.labels = partition.features.Multiply(w_true);
    parties.push_back(std::move(partition));
  }
  for (bool secure : {false, true}) {
    HflOptions options;
    options.rounds = 15;
    options.local_epochs = 2;
    options.learning_rate = 0.1;
    options.secure_aggregation = secure;

    common::SetNumThreads(1);
    MessageBus serial_bus;
    auto serial = TrainHorizontalFlr(parties, options, &serial_bus);
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (size_t threads : TestedThreadCounts()) {
      common::SetNumThreads(threads);
      MessageBus bus;
      auto parallel = TrainHorizontalFlr(parties, options, &bus);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_TRUE(parallel->weights == serial->weights)
          << (secure ? "secure" : "plain") << " aggregation, thread count "
          << threads;
      EXPECT_EQ(parallel->loss_history, serial->loss_history)
          << "thread count " << threads;
    }
  }
}

TEST_F(FederatedDeterminismTest, FacadeFederatedTrainingEqualAcrossThreads) {
  // Through Amalur::Train: a privacy-constrained union-of-stars routes to
  // per-shard FedAvg; the request's thread knob must leave the weights
  // bitwise-unchanged (and stay scoped to the run).
  rel::UnionOfStarsSpec spec;
  spec.shards = 2;
  spec.fact_rows = 80;
  spec.fact_features = 2;
  spec.dim_rows = 10;
  spec.dim_features = 2;
  spec.seed = 54;
  rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur system(options);
  for (const rel::Table& table : scenario.tables) {
    ASSERT_TRUE(system.catalog()
                    ->RegisterSource({table.name(), table, "silo", true})
                    .ok());
  }
  core::IntegrationSpec spec2;
  spec2.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                 {"fact0", "fact1", rel::JoinKind::kUnion},
                 {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(spec2);
  ASSERT_TRUE(integration.ok()) << integration.status();

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 12;
  request.gd.learning_rate = 0.05;
  request.num_threads = 1;
  auto serial = system.Train(*integration, request);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(serial->outcome().strategy_used, core::ExecutionStrategy::kFederate);
  for (size_t threads : TestedThreadCounts()) {
    request.num_threads = threads;
    auto parallel = system.Train(*integration, request);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_TRUE(parallel->weights() == serial->weights())
        << "thread count " << threads;
    EXPECT_EQ(common::NumThreads(), common::DefaultNumThreads());
  }
}

}  // namespace
}  // namespace federated
}  // namespace amalur
