// Fault-tolerant federated execution: the chaos matrix. A seeded
// `FaultSchedule` drives drop/delay/duplicate/crash faults through the
// `FaultyMessageBus`; the hardened protocols must (a) absorb transient
// faults with retransmissions while producing bitwise the *same* model a
// clean wire produces, (b) degrade gracefully on silo loss where the
// protocol structure allows it (HFL re-weights FedAvg over survivors, with
// round-boundary re-admission), (c) fail cleanly with `kUnavailable`
// naming the lost silo where it does not (VFL), and (d) stay perfectly
// deterministic: the same seed yields the same drops, byte counts and
// weights at every thread count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "federated/hfl.h"
#include "federated/message_bus.h"
#include "federated/reliable_transfer.h"
#include "federated/vfl.h"
#include "testing/faulty_message_bus.h"

namespace amalur {
namespace federated {
namespace {

class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetNumThreads(0); }
};

// ---------------------------------------------------------------- bus units

TEST_F(FaultToleranceTest, DropIsMeteredAsWasteNotTransfer) {
  FaultSchedule schedule(11);
  SiloFaultProfile lossy;
  lossy.drop_rate = 1.0;
  schedule.Set("A", lossy);
  FaultyMessageBus bus(schedule);

  bus.Send("A", "B", la::DenseMatrix(4, 1));
  EXPECT_FALSE(bus.Receive("A", "B").ok());
  EXPECT_EQ(bus.TotalBytes(), 0u);
  EXPECT_EQ(bus.TotalMessages(), 0u);
  EXPECT_EQ(bus.WastedBytes(), 4 * 8 + 32u);  // payload + envelope
  EXPECT_EQ(bus.MessagesDropped(), 1u);
}

TEST_F(FaultToleranceTest, DelaySurfacesAfterCountedAttempts) {
  FaultSchedule schedule(12);
  SiloFaultProfile slow;
  slow.delay_rate = 1.0;
  slow.delay_attempts = 2;
  schedule.Set("A", slow);
  FaultyMessageBus bus(schedule);

  bus.Send("A", "B", la::DenseMatrix(3, 1));
  // Metered at send time: the message *will* arrive.
  EXPECT_EQ(bus.TotalBytes(), 3 * 8 + 32u);
  EXPECT_FALSE(bus.Receive("A", "B").ok());
  EXPECT_FALSE(bus.Receive("A", "B").ok());
  auto delivered = bus.Receive("A", "B");
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(delivered->rows(), 3u);
  EXPECT_EQ(bus.WastedBytes(), 0u);
}

TEST_F(FaultToleranceTest, RetransmitOfDelayedMessageIsDeduplicated) {
  FaultSchedule schedule(13);
  SiloFaultProfile slow;
  slow.delay_rate = 1.0;
  slow.delay_attempts = 1;
  schedule.Set("A", slow);
  FaultyMessageBus bus(schedule);

  bus.Send("A", "B", la::DenseMatrix(2, 1));
  EXPECT_FALSE(bus.Receive("A", "B").ok());
  // The sender retries while the original is still in flight: the resend
  // burns wire bytes but the receiver must see exactly one copy.
  bus.Send("A", "B", la::DenseMatrix(2, 1));
  EXPECT_TRUE(bus.Receive("A", "B").ok());
  EXPECT_FALSE(bus.Receive("A", "B").ok());
  EXPECT_EQ(bus.TotalBytes(), 2 * 8 + 32u);
  EXPECT_EQ(bus.WastedBytes(), 2 * 8 + 32u);
  EXPECT_EQ(bus.MessagesDuplicated(), 1u);
}

TEST_F(FaultToleranceTest, DuplicateDeliversOnceAndMetersRedundantCopy) {
  FaultSchedule schedule(14);
  SiloFaultProfile chatty;
  chatty.duplicate_rate = 1.0;
  schedule.Set("A", chatty);
  FaultyMessageBus bus(schedule);

  bus.Send("A", "B", la::DenseMatrix(5, 1));
  EXPECT_TRUE(bus.Receive("A", "B").ok());
  EXPECT_FALSE(bus.Receive("A", "B").ok());
  EXPECT_EQ(bus.TotalBytes(), 5 * 8 + 32u);
  EXPECT_EQ(bus.WastedBytes(), 5 * 8 + 32u);
  EXPECT_EQ(bus.MessagesDuplicated(), 1u);
}

TEST_F(FaultToleranceTest, CrashWindowSuppressesAndDropsUntilRejoin) {
  FaultSchedule schedule(15);
  SiloFaultProfile mortal;
  mortal.crash_at_round = 1;
  mortal.rejoin_at_round = 3;
  schedule.Set("B", mortal);
  FaultyMessageBus bus(schedule);

  bus.BeginRound(0);
  EXPECT_FALSE(bus.IsDown("B"));
  bus.Send("A", "B", la::DenseMatrix(1, 1));
  EXPECT_TRUE(bus.Receive("A", "B").ok());

  bus.BeginRound(1);
  EXPECT_TRUE(bus.IsDown("B"));
  // To a crashed silo: transmitted but never delivered (waste).
  bus.Send("A", "B", la::DenseMatrix(1, 1));
  EXPECT_FALSE(bus.Receive("A", "B").ok());
  EXPECT_EQ(bus.MessagesDropped(), 1u);
  // From a crashed silo: nothing even leaves (no bytes at all).
  const size_t wasted_before = bus.WastedBytes();
  bus.Send("B", "A", la::DenseMatrix(1, 1));
  EXPECT_FALSE(bus.Receive("B", "A").ok());
  EXPECT_EQ(bus.WastedBytes(), wasted_before);
  EXPECT_EQ(bus.MessagesSuppressed(), 1u);

  bus.BeginRound(3);
  EXPECT_FALSE(bus.IsDown("B"));
  bus.Send("A", "B", la::DenseMatrix(1, 1));
  EXPECT_TRUE(bus.Receive("A", "B").ok());
}

TEST_F(FaultToleranceTest, ResetReplaysTheSameFaultStream) {
  FaultSchedule schedule(16);
  SiloFaultProfile lossy;
  lossy.drop_rate = 0.5;
  schedule.SetDefault(lossy);
  FaultyMessageBus bus(schedule);

  auto run = [&bus]() {
    std::vector<bool> delivered;
    for (int i = 0; i < 32; ++i) {
      bus.Send("A", "B", la::DenseMatrix(1, 1));
      delivered.push_back(bus.Receive("A", "B").ok());
    }
    return delivered;
  };
  const std::vector<bool> first = run();
  bus.Reset();
  EXPECT_EQ(run(), first);
}

// --------------------------------------------------------- transfer helpers

TEST_F(FaultToleranceTest, TransferRetriesThroughDropsAndChargesVirtualTime) {
  FaultSchedule schedule(17);
  SiloFaultProfile lossy;
  lossy.drop_rate = 0.5;
  schedule.Set("A", lossy);
  FaultyMessageBus bus(schedule);

  FederatedPolicy policy;
  policy.max_retries = 16;
  WireTelemetry wire;
  size_t delivered = 0;
  for (int i = 0; i < 16; ++i) {
    auto got = TransferDense(&bus, policy, "A", "B", "B",
                             la::DenseMatrix(2, 1), &wire);
    if (got.ok()) ++delivered;
  }
  EXPECT_EQ(delivered, 16u);     // retry budget absorbs a 50% drop rate
  EXPECT_GT(wire.retries, 0u);   // ... and some retransmissions happened
  EXPECT_GT(wire.virtual_ms, 0u);
  EXPECT_GT(bus.WastedBytes(), 0u);
}

TEST_F(FaultToleranceTest, TransferExhaustedRetriesReturnUnavailable) {
  FaultSchedule schedule(18);
  SiloFaultProfile dead;
  dead.crash_at_round = 0;
  schedule.Set("B", dead);
  FaultyMessageBus bus(schedule);
  bus.BeginRound(0);

  FederatedPolicy policy;
  policy.max_retries = 2;
  WireTelemetry wire;
  auto got =
      TransferDense(&bus, policy, "A", "B", "B", la::DenseMatrix(1, 1), &wire);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
  EXPECT_NE(got.status().message().find("silo B"), std::string::npos)
      << got.status();
  EXPECT_NE(got.status().message().find("3 delivery attempts"),
            std::string::npos)
      << got.status();
}

TEST_F(FaultToleranceTest, RetryScheduleChargesTimeoutsAndCappedBackoff) {
  // A sender that drops everything exhausts the budget: 7 delivery attempts
  // each cost the 50 ms timeout, and the 6 retransmissions wait
  // 25, 50, 100, 200, 400 and 400 ms (doubling, capped at 400 ms).
  FaultSchedule schedule(20);
  SiloFaultProfile lossy;
  lossy.drop_rate = 1.0;
  schedule.Set("A", lossy);
  FaultyMessageBus bus(schedule);

  FederatedPolicy policy;
  policy.max_retries = 6;
  WireTelemetry wire;
  auto got =
      TransferDense(&bus, policy, "A", "B", "B", la::DenseMatrix(1, 1), &wire);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
  EXPECT_NE(got.status().message().find("7 delivery attempts"),
            std::string::npos)
      << got.status();
  EXPECT_EQ(wire.retries, 6u);
  EXPECT_EQ(wire.virtual_ms, 7 * 50 + 25 + 50 + 100 + 200 + 400 + 400u);
  EXPECT_EQ(wire.round_ms, 1525u);
}

TEST_F(FaultToleranceTest, RoundTimeoutBudgetCutsRetriesShort) {
  FaultSchedule schedule(19);
  SiloFaultProfile glacial;
  glacial.delay_rate = 1.0;
  glacial.delay_attempts = 100;
  schedule.Set("A", glacial);
  FaultyMessageBus bus(schedule);

  FederatedPolicy policy;
  policy.max_retries = 50;              // per-message budget would allow 51
  policy.max_round_timeout_ms = 120;    // ... but the round budget does not
  WireTelemetry wire;
  auto got =
      TransferDense(&bus, policy, "A", "B", "B", la::DenseMatrix(1, 1), &wire);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
  EXPECT_NE(got.status().message().find("round timeout budget"),
            std::string::npos)
      << got.status();
}

// ----------------------------------------------------------- VFL under chaos

std::vector<VflParty> MakeVflParties(size_t n_parties, size_t rows,
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

TEST_F(FaultToleranceTest, VflAbsorbsDropsAndMatchesCleanWeightsBitwise) {
  la::DenseMatrix labels;
  std::vector<VflParty> parties = MakeVflParties(3, 60, 2, 21, &labels);
  VflOptions options;
  options.iterations = 15;
  options.learning_rate = 0.05;
  options.policy.max_retries = 8;

  MessageBus clean_bus;
  auto clean = TrainVerticalFlrNary(parties, labels, options, &clean_bus);
  ASSERT_TRUE(clean.ok()) << clean.status();

  FaultSchedule schedule(22);
  SiloFaultProfile lossy;
  lossy.drop_rate = 0.1;
  schedule.SetDefault(lossy);
  FaultyMessageBus chaos_bus(schedule);
  auto chaotic = TrainVerticalFlrNary(parties, labels, options, &chaos_bus);
  ASSERT_TRUE(chaotic.ok()) << chaotic.status();

  // Retransmission recovers the exact protocol: same weights, same loss
  // curve, same *delivered* bytes — the drops only show up as waste.
  for (size_t k = 0; k < parties.size(); ++k) {
    EXPECT_TRUE(chaotic->thetas[k] == clean->thetas[k]) << "party " << k;
  }
  EXPECT_EQ(chaotic->loss_history, clean->loss_history);
  EXPECT_EQ(chaotic->bytes_transferred, clean->bytes_transferred);
  EXPECT_GT(chaotic->retries, 0u);
  EXPECT_GT(chaotic->bytes_wasted, 0u);
  EXPECT_EQ(clean->retries, 0u);
  EXPECT_EQ(clean->bytes_wasted, 0u);
}

TEST_F(FaultToleranceTest, PaillierVflRetransmitsCiphertextsUnchanged) {
  // A resend must ship the *same* ciphertext words — re-encrypting would
  // consume protocol randomness and diverge from the clean run.
  la::DenseMatrix labels;
  std::vector<VflParty> parties = MakeVflParties(3, 24, 2, 23, &labels);
  VflOptions options;
  options.iterations = 3;
  options.learning_rate = 0.05;
  options.privacy = VflPrivacy::kPaillier;
  options.policy.max_retries = 8;

  MessageBus clean_bus;
  auto clean = TrainVerticalFlrNary(parties, labels, options, &clean_bus);
  ASSERT_TRUE(clean.ok()) << clean.status();

  FaultSchedule schedule(24);
  SiloFaultProfile lossy;
  lossy.drop_rate = 0.1;
  lossy.delay_rate = 0.05;
  schedule.SetDefault(lossy);
  FaultyMessageBus chaos_bus(schedule);
  auto chaotic = TrainVerticalFlrNary(parties, labels, options, &chaos_bus);
  ASSERT_TRUE(chaotic.ok()) << chaotic.status();

  for (size_t k = 0; k < parties.size(); ++k) {
    EXPECT_TRUE(chaotic->thetas[k] == clean->thetas[k]) << "party " << k;
  }
  EXPECT_EQ(chaotic->bytes_transferred, clean->bytes_transferred);
  EXPECT_GT(chaotic->retries, 0u);
}

TEST_F(FaultToleranceTest, VflCrashReturnsUnavailableNamingTheLostSilo) {
  la::DenseMatrix labels;
  std::vector<VflParty> parties = MakeVflParties(3, 40, 2, 25, &labels);
  VflOptions options;
  options.iterations = 10;
  options.learning_rate = 0.05;
  // Degrade is requested but structurally impossible for VFL: P2's feature
  // columns cannot be conjured by the survivors.
  options.policy.on_silo_loss = SiloLossAction::kDegrade;

  FaultSchedule schedule(26);
  SiloFaultProfile mortal;
  mortal.crash_at_round = 3;
  schedule.Set("P2", mortal);
  FaultyMessageBus bus(schedule);
  auto got = TrainVerticalFlrNary(parties, labels, options, &bus);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
  EXPECT_NE(got.status().message().find("P2"), std::string::npos)
      << got.status();
}

TEST_F(FaultToleranceTest, VflSinglePartyIsInvalidArgumentSayingTrainLocally) {
  // The N = 1 contract (shared with AlignForVflNary's single-source guard):
  // one party holding every feature is not a federation — the error says
  // to train locally instead of reporting a generic shape failure.
  la::DenseMatrix labels;
  std::vector<VflParty> parties = MakeVflParties(1, 10, 2, 27, &labels);
  MessageBus bus;
  auto got = TrainVerticalFlrNary(parties, labels, VflOptions{}, &bus);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status();
  EXPECT_NE(got.status().message().find("train locally"), std::string::npos)
      << got.status();
}

// ----------------------------------------------------------- HFL under chaos

std::vector<HflPartition> MakeHflPartitions(size_t n_parties, uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix w_true = la::DenseMatrix::RandomGaussian(3, 1, &rng);
  std::vector<HflPartition> parties;
  for (size_t p = 0; p < n_parties; ++p) {
    HflPartition partition{
        la::DenseMatrix::RandomGaussian(50 + 10 * p, 3, &rng), {}};
    partition.labels = partition.features.Multiply(w_true);
    parties.push_back(std::move(partition));
  }
  return parties;
}

TEST_F(FaultToleranceTest, HflFailPolicyReturnsUnavailableNamingTheSilo) {
  std::vector<HflPartition> parties = MakeHflPartitions(3, 31);
  HflOptions options;
  options.rounds = 8;
  options.policy.on_silo_loss = SiloLossAction::kFail;  // the default

  FaultSchedule schedule(32);
  SiloFaultProfile mortal;
  mortal.crash_at_round = 2;
  schedule.Set("P1", mortal);
  FaultyMessageBus bus(schedule);
  auto got = TrainHorizontalFlr(parties, options, &bus);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
  EXPECT_NE(got.status().message().find("P1"), std::string::npos)
      << got.status();
  EXPECT_NE(got.status().message().find("round 2"), std::string::npos)
      << got.status();
}

TEST_F(FaultToleranceTest, HflDegradeMatchesSurvivorsFromScratchBitwise) {
  // A party dead from round 0 under `kDegrade` must be *exactly* as if it
  // never enrolled: same weights, same loss curve as training the
  // survivors from scratch — re-weighted FedAvg, not a biased average
  // over a phantom participant.
  std::vector<HflPartition> parties = MakeHflPartitions(3, 33);
  HflOptions options;
  options.rounds = 12;
  options.policy.on_silo_loss = SiloLossAction::kDegrade;

  FaultSchedule schedule(34);
  SiloFaultProfile stillborn;
  stillborn.crash_at_round = 0;
  schedule.Set("P2", stillborn);
  FaultyMessageBus chaos_bus(schedule);
  auto degraded = TrainHorizontalFlr(parties, options, &chaos_bus);
  ASSERT_TRUE(degraded.ok()) << degraded.status();

  std::vector<HflPartition> survivors = {parties[0], parties[1]};
  MessageBus clean_bus;
  auto from_scratch = TrainHorizontalFlr(survivors, options, &clean_bus);
  ASSERT_TRUE(from_scratch.ok()) << from_scratch.status();

  EXPECT_TRUE(degraded->weights == from_scratch->weights);
  EXPECT_EQ(degraded->loss_history, from_scratch->loss_history);
  EXPECT_EQ(degraded->silos_dropped, std::vector<std::string>{"P2"});
  EXPECT_EQ(degraded->rounds_degraded, options.rounds);
  EXPECT_EQ(from_scratch->rounds_degraded, 0u);
}

TEST_F(FaultToleranceTest, HflDegradeMidTrainingConvergesToSurvivorOptimum) {
  // Crash at round 3: the first rounds see all shards, the rest only the
  // survivors. Re-weighted FedAvg must still converge to the survivors'
  // optimum — within 1e-8 of a clean survivors-only run.
  std::vector<HflPartition> parties = MakeHflPartitions(3, 35);
  HflOptions options;
  options.rounds = 400;
  options.learning_rate = 0.3;
  // Plain aggregation: secret sharing's fixed-point encoding quantizes at
  // ~1e-7, which would swamp the 1e-8 optimum comparison.
  options.secure_aggregation = false;
  options.policy.on_silo_loss = SiloLossAction::kDegrade;

  FaultSchedule schedule(36);
  SiloFaultProfile mortal;
  mortal.crash_at_round = 3;
  schedule.Set("P2", mortal);
  FaultyMessageBus chaos_bus(schedule);
  auto degraded = TrainHorizontalFlr(parties, options, &chaos_bus);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->rounds_degraded, options.rounds - 3);

  std::vector<HflPartition> survivors = {parties[0], parties[1]};
  MessageBus clean_bus;
  auto from_scratch = TrainHorizontalFlr(survivors, options, &clean_bus);
  ASSERT_TRUE(from_scratch.ok()) << from_scratch.status();

  for (size_t j = 0; j < degraded->weights.rows(); ++j) {
    EXPECT_NEAR(degraded->weights.At(j, 0), from_scratch->weights.At(j, 0),
                1e-8)
        << "weight " << j;
  }
}

TEST_F(FaultToleranceTest, HflRejoinIsReadmittedAtTheRoundBoundary) {
  std::vector<HflPartition> parties = MakeHflPartitions(3, 37);
  HflOptions options;
  options.rounds = 8;
  options.policy.on_silo_loss = SiloLossAction::kDegrade;

  FaultSchedule schedule(38);
  SiloFaultProfile flaky;
  flaky.crash_at_round = 2;
  flaky.rejoin_at_round = 5;
  schedule.Set("P1", flaky);
  FaultyMessageBus bus(schedule);
  auto got = TrainHorizontalFlr(parties, options, &bus);
  ASSERT_TRUE(got.ok()) << got.status();
  // Down for rounds 2, 3, 4; probed and re-admitted at round 5.
  EXPECT_EQ(got->rounds_degraded, 3u);
  EXPECT_EQ(got->silos_dropped, std::vector<std::string>{"P1"});
  EXPECT_EQ(got->loss_history.size(), options.rounds);
}

TEST_F(FaultToleranceTest, QuorumLossReturnsUnavailable) {
  std::vector<HflPartition> parties = MakeHflPartitions(3, 39);
  HflOptions options;
  options.rounds = 6;
  options.policy.on_silo_loss = SiloLossAction::kDegrade;
  options.policy.min_quorum = 2;

  FaultSchedule schedule(40);
  SiloFaultProfile mortal;
  mortal.crash_at_round = 1;
  schedule.Set("P1", mortal);
  schedule.Set("P2", mortal);
  FaultyMessageBus bus(schedule);
  auto got = TrainHorizontalFlr(parties, options, &bus);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
  EXPECT_NE(got.status().message().find("quorum"), std::string::npos)
      << got.status();
}

TEST_F(FaultToleranceTest, QuorumAboveThePartyCountFailsBeforeAnySend) {
  // No round of three parties can reach a quorum of four, whatever the
  // wire does: the run must be rejected at entry, not after round 0's
  // broadcasts.
  std::vector<HflPartition> parties = MakeHflPartitions(3, 40);
  HflOptions options;
  options.policy.min_quorum = 4;
  MessageBus bus;
  auto got = TrainHorizontalFlr(parties, options, &bus);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status();
  EXPECT_NE(got.status().message().find("min_quorum 4"), std::string::npos)
      << got.status();
  EXPECT_NE(got.status().message().find("3 parties"), std::string::npos)
      << got.status();
  EXPECT_EQ(bus.TotalBytes(), 0u);
  EXPECT_EQ(bus.TotalMessages(), 0u);
}

TEST_F(FaultToleranceTest, HealthyWireIsByteIdenticalToThePlainBus) {
  // An all-zero schedule must be perfectly transparent: the reliability
  // layer adds no traffic, no retries, no waste, and the weights are
  // bitwise those of the plain bus.
  std::vector<HflPartition> parties = MakeHflPartitions(3, 41);
  HflOptions options;
  options.rounds = 10;

  MessageBus plain_bus;
  auto plain = TrainHorizontalFlr(parties, options, &plain_bus);
  ASSERT_TRUE(plain.ok()) << plain.status();

  FaultyMessageBus idle_bus{FaultSchedule(42)};
  auto faultless = TrainHorizontalFlr(parties, options, &idle_bus);
  ASSERT_TRUE(faultless.ok()) << faultless.status();

  EXPECT_TRUE(faultless->weights == plain->weights);
  EXPECT_EQ(faultless->loss_history, plain->loss_history);
  EXPECT_EQ(faultless->bytes_transferred, plain->bytes_transferred);
  EXPECT_EQ(faultless->messages, plain->messages);
  EXPECT_EQ(faultless->retries, 0u);
  EXPECT_EQ(faultless->bytes_wasted, 0u);
}

// ------------------------------------------------------------- determinism

TEST_F(FaultToleranceTest, ChaosMatrixIsDeterministicAcrossThreadCounts) {
  // The full chaos stack — drops, a crash, a rejoin, retransmissions,
  // degradation — must be bitwise-reproducible at any thread count: bus
  // faults are decided on the serial round thread, parallel regions only do
  // silo-local math.
  std::vector<HflPartition> hfl_parties = MakeHflPartitions(4, 43);
  HflOptions hfl_options;
  hfl_options.rounds = 10;
  hfl_options.policy.on_silo_loss = SiloLossAction::kDegrade;
  hfl_options.policy.max_retries = 8;

  la::DenseMatrix labels;
  std::vector<VflParty> vfl_parties = MakeVflParties(3, 40, 2, 44, &labels);
  VflOptions vfl_options;
  vfl_options.iterations = 12;
  vfl_options.learning_rate = 0.05;
  vfl_options.policy.max_retries = 8;

  FaultSchedule schedule(45);
  SiloFaultProfile lossy;
  lossy.drop_rate = 0.1;
  lossy.delay_rate = 0.05;
  schedule.SetDefault(lossy);
  SiloFaultProfile flaky = lossy;
  flaky.crash_at_round = 2;
  flaky.rejoin_at_round = 6;
  schedule.Set("P3", flaky);

  struct Snapshot {
    la::DenseMatrix hfl_weights;
    std::vector<la::DenseMatrix> vfl_thetas;
    size_t hfl_bytes, hfl_wasted, hfl_retries, hfl_dropped, hfl_degraded;
    size_t vfl_bytes, vfl_wasted, vfl_retries;
  };
  auto run = [&]() {
    Snapshot snap;
    FaultyMessageBus hfl_bus(schedule);
    auto hfl = TrainHorizontalFlr(hfl_parties, hfl_options, &hfl_bus);
    EXPECT_TRUE(hfl.ok()) << hfl.status();
    snap.hfl_weights = hfl->weights;
    snap.hfl_bytes = hfl->bytes_transferred;
    snap.hfl_wasted = hfl->bytes_wasted;
    snap.hfl_retries = hfl->retries;
    snap.hfl_dropped = hfl_bus.MessagesDropped();
    snap.hfl_degraded = hfl->rounds_degraded;
    FaultyMessageBus vfl_bus(schedule);
    auto vfl = TrainVerticalFlrNary(vfl_parties, labels, vfl_options, &vfl_bus);
    EXPECT_TRUE(vfl.ok()) << vfl.status();
    snap.vfl_thetas = vfl->thetas;
    snap.vfl_bytes = vfl->bytes_transferred;
    snap.vfl_wasted = vfl->bytes_wasted;
    snap.vfl_retries = vfl->retries;
    return snap;
  };

  common::SetNumThreads(1);
  const Snapshot serial = run();
  EXPECT_GT(serial.hfl_degraded, 0u);  // the chaos actually bit
  EXPECT_GT(serial.hfl_retries + serial.vfl_retries, 0u);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    common::SetNumThreads(threads);
    const Snapshot parallel = run();
    EXPECT_TRUE(parallel.hfl_weights == serial.hfl_weights)
        << "thread count " << threads;
    EXPECT_EQ(parallel.hfl_bytes, serial.hfl_bytes);
    EXPECT_EQ(parallel.hfl_wasted, serial.hfl_wasted);
    EXPECT_EQ(parallel.hfl_retries, serial.hfl_retries);
    EXPECT_EQ(parallel.hfl_dropped, serial.hfl_dropped);
    EXPECT_EQ(parallel.hfl_degraded, serial.hfl_degraded);
    ASSERT_EQ(parallel.vfl_thetas.size(), serial.vfl_thetas.size());
    for (size_t k = 0; k < serial.vfl_thetas.size(); ++k) {
      EXPECT_TRUE(parallel.vfl_thetas[k] == serial.vfl_thetas[k])
          << "party " << k << ", thread count " << threads;
    }
    EXPECT_EQ(parallel.vfl_bytes, serial.vfl_bytes);
    EXPECT_EQ(parallel.vfl_wasted, serial.vfl_wasted);
    EXPECT_EQ(parallel.vfl_retries, serial.vfl_retries);
  }
}

}  // namespace
}  // namespace federated
}  // namespace amalur
