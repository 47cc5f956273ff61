// Fault-tolerance experiment: what wire chaos costs the federated
// protocols. A seeded `FaultSchedule` injects message drops into vertical
// FLR (the retry layer must absorb them — identical convergence, extra
// wasted bytes and retransmissions growing with the drop rate) and
// crash/rejoin lifecycles into horizontal FedAvg under the degrade policy
// (re-weighted survivor rounds, round-boundary re-admission). Alongside
// the human-readable table it emits `BENCH_federated_faults.json`
// (scenario, drop rate, rounds degraded, delivered/wasted bytes, retries,
// final loss) so the reliability overhead can be tracked across commits.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "federated/hfl.h"
#include "federated/vfl.h"
#include "testing/faulty_message_bus.h"

namespace {

using namespace amalur;

struct Measurement {
  std::string scenario;  // "vfl_drop" | "hfl_crash" | "hfl_rejoin"
  double drop_rate = 0.0;
  size_t silos = 0;
  size_t rounds = 0;
  size_t rounds_degraded = 0;
  size_t bytes_delivered = 0;
  size_t bytes_wasted = 0;
  size_t retries = 0;
  double seconds = 0.0;
  double final_loss = 0.0;
};

std::vector<federated::VflParty> MakeVflParties(size_t silos, size_t rows,
                                                uint64_t seed,
                                                la::DenseMatrix* labels) {
  Rng rng(seed);
  std::vector<federated::VflParty> parties;
  *labels = la::DenseMatrix(rows, 1);
  for (size_t k = 0; k < silos; ++k) {
    federated::VflParty party;
    party.x = la::DenseMatrix::RandomGaussian(rows, 3, &rng);
    la::DenseMatrix w = la::DenseMatrix::RandomGaussian(3, 1, &rng);
    labels->AddInPlace(party.x.Multiply(w));
    parties.push_back(std::move(party));
  }
  return parties;
}

std::vector<federated::HflPartition> MakeHflPartitions(size_t shards,
                                                       size_t rows_each,
                                                       uint64_t seed) {
  Rng rng(seed);
  const size_t features = 4;
  la::DenseMatrix w_true = la::DenseMatrix::RandomGaussian(features, 1, &rng);
  std::vector<federated::HflPartition> partitions;
  for (size_t p = 0; p < shards; ++p) {
    federated::HflPartition partition{
        la::DenseMatrix::RandomGaussian(rows_each, features, &rng),
        la::DenseMatrix(rows_each, 1)};
    partition.labels = partition.features.Multiply(w_true);
    partitions.push_back(std::move(partition));
  }
  return partitions;
}

Measurement RunVflDropSweep(double drop_rate, size_t rounds, size_t rows) {
  la::DenseMatrix labels;
  std::vector<federated::VflParty> parties =
      MakeVflParties(3, rows, 300, &labels);
  federated::VflOptions options;
  options.iterations = rounds;
  options.learning_rate = 0.1;
  options.policy.max_retries = 10;

  federated::FaultSchedule schedule(301);
  federated::SiloFaultProfile lossy;
  lossy.drop_rate = drop_rate;
  schedule.SetDefault(lossy);
  federated::FaultyMessageBus bus(schedule);

  Stopwatch watch;
  auto result = federated::TrainVerticalFlrNary(parties, labels, options, &bus);
  const double seconds = watch.ElapsedSeconds();
  AMALUR_CHECK(result.ok()) << result.status();
  return {"vfl_drop",
          drop_rate,
          parties.size(),
          rounds,
          /*rounds_degraded=*/0,  // vertical FLR cannot degrade
          result->bytes_transferred,
          result->bytes_wasted,
          result->retries,
          seconds,
          result->loss_history.back()};
}

Measurement RunHflLifecycle(bool rejoin, size_t rounds, size_t rows_each) {
  std::vector<federated::HflPartition> partitions =
      MakeHflPartitions(4, rows_each, 302);
  federated::HflOptions options;
  options.rounds = rounds;
  options.learning_rate = 0.2;
  options.policy.on_silo_loss = federated::SiloLossAction::kDegrade;

  federated::FaultSchedule schedule(303);
  federated::SiloFaultProfile mortal;
  mortal.crash_at_round = 3;
  if (rejoin) mortal.rejoin_at_round = static_cast<int64_t>(rounds * 2 / 3);
  schedule.Set("P3", mortal);
  federated::FaultyMessageBus bus(schedule);

  Stopwatch watch;
  auto result = federated::TrainHorizontalFlr(partitions, options, &bus);
  const double seconds = watch.ElapsedSeconds();
  AMALUR_CHECK(result.ok()) << result.status();
  return {rejoin ? "hfl_rejoin" : "hfl_crash",
          0.0,
          partitions.size(),
          rounds,
          result->rounds_degraded,
          result->bytes_transferred,
          result->bytes_wasted,
          result->retries,
          seconds,
          result->loss_history.back()};
}

void PrintRow(const Measurement& m) {
  std::printf("%11s %5.2f %6zu %7zu %9zu %12zu %10zu %8zu %9.3f %10.4f\n",
              m.scenario.c_str(), m.drop_rate, m.silos, m.rounds,
              m.rounds_degraded, m.bytes_delivered, m.bytes_wasted, m.retries,
              m.seconds, m.final_loss);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  std::printf("=== fault tolerance: chaos cost of the federated wire ===%s\n\n",
              smoke ? " (SMOKE MODE — sizes scaled down)" : "");
  std::printf("%11s %5s %6s %7s %9s %12s %10s %8s %9s %10s\n", "scenario",
              "drop", "silos", "rounds", "degraded", "delivered", "wasted",
              "retries", "time(s)", "loss");

  std::vector<Measurement> measurements;
  const size_t kVflRounds = smoke ? 6 : 30;
  const size_t kVflRows = smoke ? 40 : 240;
  for (double drop : {0.0, 0.05, 0.1, 0.2}) {
    measurements.push_back(RunVflDropSweep(drop, kVflRounds, kVflRows));
    PrintRow(measurements.back());
  }
  const size_t kHflRounds = smoke ? 9 : 45;
  const size_t kHflRows = smoke ? 40 : 250;
  for (bool rejoin : {false, true}) {
    measurements.push_back(RunHflLifecycle(rejoin, kHflRounds, kHflRows));
    PrintRow(measurements.back());
  }

  bench::WriteJson(
      "BENCH_federated_faults.json", measurements,
      [](std::FILE* out, const Measurement& m) {
        std::fprintf(out,
                     "{\"scenario\": \"%s\", \"drop_rate\": %.2f, "
                     "\"silos\": %zu, \"rounds\": %zu, "
                     "\"rounds_degraded\": %zu, \"bytes_delivered\": %zu, "
                     "\"bytes_wasted\": %zu, \"retries\": %zu, "
                     "\"seconds\": %.6f, \"final_loss\": %.6f}",
                     m.scenario.c_str(), m.drop_rate, m.silos, m.rounds,
                     m.rounds_degraded, m.bytes_delivered, m.bytes_wasted,
                     m.retries, m.seconds, m.final_loss);
      });
  std::printf(
      "\nWrote BENCH_federated_faults.json (%zu measurements).\n"
      "Expected shape: delivered bytes and final loss are *identical* across\n"
      "the drop sweep (retransmission recovers the exact protocol); wasted\n"
      "bytes and retries grow with the drop rate. The crash row degrades all\n"
      "remaining rounds; the rejoin row re-admits the silo at the boundary\n"
      "and degrades only the window in between.\n",
      measurements.size());
  return 0;
}
