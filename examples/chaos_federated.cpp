// Fault-tolerant federated execution: training while the wire misbehaves.
// A seeded `FaultSchedule` makes every silo drop 10% of its messages and
// crashes one FedAvg participant mid-training; the hardened protocols
// absorb the drops with retransmissions (bitwise the same model a clean
// wire yields), degrade gracefully when a shard dies under the `kDegrade`
// policy — re-weighting FedAvg over the survivors and re-admitting the
// silo when its crash window ends — and fail cleanly with `kUnavailable`
// naming the lost silo where degradation is structurally impossible
// (vertical FLR). The faulty bus is a test fixture: the protocols take any
// `MessageBus*`, so the example passes one in directly.

#include <cstdio>

#include "federated/hfl.h"
#include "federated/vfl.h"
#include "testing/faulty_message_bus.h"

int main() {
  using namespace amalur;

  // --- A lossy wire under vertical FLR: 10% of every silo's messages are
  // dropped; the retry layer recovers the exact clean-run model.
  Rng rng(71);
  la::DenseMatrix labels(300, 1);
  std::vector<federated::VflParty> parties;
  for (size_t k = 0; k < 3; ++k) {
    federated::VflParty party;
    party.x = la::DenseMatrix::RandomGaussian(300, 3, &rng);
    la::DenseMatrix w = la::DenseMatrix::RandomGaussian(3, 1, &rng);
    labels.AddInPlace(party.x.Multiply(w));
    parties.push_back(std::move(party));
  }
  federated::VflOptions vfl;
  vfl.iterations = 40;
  vfl.learning_rate = 0.1;
  vfl.policy.max_retries = 10;

  federated::MessageBus clean_bus;
  auto clean = federated::TrainVerticalFlrNary(parties, labels, vfl, &clean_bus);
  AMALUR_CHECK(clean.ok()) << clean.status();

  federated::FaultSchedule lossy_schedule(72);
  federated::SiloFaultProfile lossy;
  lossy.drop_rate = 0.10;
  lossy_schedule.SetDefault(lossy);
  federated::FaultyMessageBus lossy_bus(lossy_schedule);
  auto chaotic =
      federated::TrainVerticalFlrNary(parties, labels, vfl, &lossy_bus);
  AMALUR_CHECK(chaotic.ok()) << chaotic.status();

  bool identical = true;
  for (size_t k = 0; k < parties.size(); ++k) {
    identical = identical && chaotic->thetas[k] == clean->thetas[k];
  }
  std::printf("=== VFL over a 10%% lossy wire ===\n");
  std::printf("  weights identical to clean run: %s\n",
              identical ? "yes (bitwise)" : "NO");
  std::printf("  delivered %zu bytes (clean: %zu), wasted %zu bytes on %zu "
              "dropped sends, %zu retransmissions\n\n",
              chaotic->bytes_transferred, clean->bytes_transferred,
              chaotic->bytes_wasted, lossy_bus.MessagesDropped(),
              chaotic->retries);

  // --- A silo crash under vertical FLR: every party owns feature columns,
  // so the run cannot degrade — it fails cleanly, naming the lost silo.
  federated::FaultSchedule crash_schedule(73);
  federated::SiloFaultProfile mortal;
  mortal.crash_at_round = 5;
  crash_schedule.Set("P2", mortal);
  federated::FaultyMessageBus crash_bus(crash_schedule);
  auto lost = federated::TrainVerticalFlrNary(parties, labels, vfl, &crash_bus);
  std::printf("=== VFL silo crash at round 5 ===\n  %s\n\n",
              lost.status().ToString().c_str());

  // --- FedAvg under the degrade policy: one shard dies at round 10 and
  // rejoins at round 30; the rounds in between run re-weighted over the
  // survivors.
  Rng hfl_rng(74);
  la::DenseMatrix w_true = la::DenseMatrix::RandomGaussian(4, 1, &hfl_rng);
  std::vector<federated::HflPartition> shards;
  for (size_t p = 0; p < 4; ++p) {
    federated::HflPartition shard{
        la::DenseMatrix::RandomGaussian(150, 4, &hfl_rng), {}};
    shard.labels = shard.features.Multiply(w_true);
    shards.push_back(std::move(shard));
  }
  federated::HflOptions hfl;
  hfl.rounds = 40;
  hfl.learning_rate = 0.2;
  hfl.policy.on_silo_loss = federated::SiloLossAction::kDegrade;
  hfl.policy.min_quorum = 2;

  federated::FaultSchedule flaky_schedule(75);
  federated::SiloFaultProfile flaky;
  flaky.crash_at_round = 10;
  flaky.rejoin_at_round = 30;
  flaky_schedule.Set("P3", flaky);
  federated::FaultyMessageBus flaky_bus(flaky_schedule);
  auto degraded = federated::TrainHorizontalFlr(shards, hfl, &flaky_bus);
  AMALUR_CHECK(degraded.ok()) << degraded.status();
  std::printf("=== FedAvg with a crash/rejoin lifecycle (degrade policy) ===\n");
  std::printf("  silo P3 down for rounds [10, 30): %zu of %zu rounds ran "
              "degraded, dropped = {",
              degraded->rounds_degraded, hfl.rounds);
  for (const std::string& silo : degraded->silos_dropped) {
    std::printf("%s", silo.c_str());
  }
  std::printf("}\n  loss %.4f -> %.4f (the survivors keep learning; the "
              "rejoined silo resumes from the current model)\n\n",
              degraded->loss_history.front(), degraded->loss_history.back());

  return 0;
}
