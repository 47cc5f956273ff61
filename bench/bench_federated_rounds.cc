// Federated round-loop experiment (§V): communication volume and wall time
// of the n-ary protocols as a function of silo count. Vertical FLR runs
// with N feature-holding parties under plaintext and Paillier wires (the
// §V.B encryption blow-up shows up directly in the byte column — each
// ciphertext travels at its 16-byte serialized size); horizontal FedAvg
// runs with one participant per shard under plain and secure aggregation.
// Alongside the human-readable table it emits machine-readable
// `BENCH_federated.json` (protocol, wires, silos, rounds, bytes, seconds)
// so the communication trajectory can be tracked across commits.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "federated/hfl.h"
#include "federated/vfl.h"

namespace {

using namespace amalur;

struct Measurement {
  std::string protocol;  // "vfl" | "hfl"
  std::string wires;     // "plaintext" | "paillier" | "plain" | "secure"
  size_t silos = 0;
  size_t rounds = 0;
  size_t bytes = 0;
  size_t messages = 0;
  double seconds = 0.0;
  double final_loss = 0.0;
};

/// N row-aligned feature blocks with a planted joint linear model.
std::vector<federated::VflParty> MakeVflParties(size_t silos, size_t rows,
                                                size_t features_each,
                                                uint64_t seed,
                                                la::DenseMatrix* labels) {
  Rng rng(seed);
  std::vector<federated::VflParty> parties;
  *labels = la::DenseMatrix(rows, 1);
  for (size_t k = 0; k < silos; ++k) {
    federated::VflParty party;
    party.x = la::DenseMatrix::RandomGaussian(rows, features_each, &rng);
    la::DenseMatrix w = la::DenseMatrix::RandomGaussian(features_each, 1, &rng);
    labels->AddInPlace(party.x.Multiply(w));
    parties.push_back(std::move(party));
  }
  for (size_t i = 0; i < rows; ++i) {
    labels->At(i, 0) += 0.05 * rng.NextGaussian();
  }
  return parties;
}

Measurement RunVfl(size_t silos, federated::VflPrivacy privacy, size_t rounds,
                   size_t rows) {
  la::DenseMatrix labels;
  std::vector<federated::VflParty> parties =
      MakeVflParties(silos, rows, 3, 100 + silos, &labels);
  federated::VflOptions options;
  options.iterations = rounds;
  options.learning_rate = 0.1;
  options.privacy = privacy;
  federated::MessageBus bus;
  Stopwatch watch;
  auto result = federated::TrainVerticalFlrNary(parties, labels, options, &bus);
  const double seconds = watch.ElapsedSeconds();
  AMALUR_CHECK(result.ok()) << result.status();
  return {"vfl",
          privacy == federated::VflPrivacy::kPaillier ? "paillier"
                                                      : "plaintext",
          silos,
          rounds,
          result->bytes_transferred,
          result->messages,
          seconds,
          result->loss_history.back()};
}

Measurement RunHfl(size_t shards, bool secure, size_t rounds,
                   size_t rows_each) {
  Rng rng(200 + shards);
  const size_t features = 6;
  la::DenseMatrix w_true = la::DenseMatrix::RandomGaussian(features, 1, &rng);
  std::vector<federated::HflPartition> partitions;
  for (size_t p = 0; p < shards; ++p) {
    federated::HflPartition partition{
        la::DenseMatrix::RandomGaussian(rows_each, features, &rng),
        la::DenseMatrix(rows_each, 1)};
    partition.labels = partition.features.Multiply(w_true);
    for (size_t i = 0; i < rows_each; ++i) {
      partition.labels.At(i, 0) += 0.05 * rng.NextGaussian();
    }
    partitions.push_back(std::move(partition));
  }
  federated::HflOptions options;
  options.rounds = rounds;
  options.local_epochs = 1;
  options.learning_rate = 0.2;
  options.secure_aggregation = secure;
  federated::MessageBus bus;
  Stopwatch watch;
  auto result = federated::TrainHorizontalFlr(partitions, options, &bus);
  const double seconds = watch.ElapsedSeconds();
  AMALUR_CHECK(result.ok()) << result.status();
  return {"hfl",
          secure ? "secure" : "plain",
          shards,
          rounds,
          result->bytes_transferred,
          result->messages,
          seconds,
          result->loss_history.back()};
}

void PrintRow(const Measurement& m) {
  std::printf("%5s %10s %6zu %7zu %12zu %9zu %10.3f %10.4f\n",
              m.protocol.c_str(), m.wires.c_str(), m.silos, m.rounds, m.bytes,
              m.messages, 1e3 * m.seconds, m.final_loss);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  std::printf("=== §V: federated rounds vs silo count ===%s\n\n",
              smoke ? " (SMOKE MODE — sizes scaled down)" : "");
  std::printf("%5s %10s %6s %7s %12s %9s %10s %10s\n", "proto", "wires",
              "silos", "rounds", "bytes", "msgs", "time(ms)", "loss");

  std::vector<Measurement> measurements;
  const size_t kVflRounds = smoke ? 5 : 25;
  const size_t kVflRows = smoke ? 60 : 400;
  for (size_t silos : {2, 3, 5, 8}) {
    measurements.push_back(RunVfl(silos, federated::VflPrivacy::kPlaintext,
                                  kVflRounds, kVflRows));
    PrintRow(measurements.back());
  }
  // Paillier at smaller sizes: homomorphic transposes dominate wall time.
  for (size_t silos : {2, 3, 5}) {
    measurements.push_back(RunVfl(silos, federated::VflPrivacy::kPaillier,
                                  smoke ? 2 : 5, smoke ? 20 : 60));
    PrintRow(measurements.back());
  }
  const size_t kHflRounds = smoke ? 6 : 30;
  const size_t kHflRows = smoke ? 50 : 300;
  for (size_t shards : {2, 4, 8}) {
    for (bool secure : {false, true}) {
      measurements.push_back(RunHfl(shards, secure, kHflRounds, kHflRows));
      PrintRow(measurements.back());
    }
  }

  bench::WriteJson(
      "BENCH_federated.json", measurements,
      [](std::FILE* out, const Measurement& m) {
        std::fprintf(out,
                     "{\"protocol\": \"%s\", \"wires\": \"%s\", "
                     "\"silos\": %zu, \"rounds\": %zu, \"bytes\": %zu, "
                     "\"messages\": %zu, \"seconds\": %.6f, "
                     "\"final_loss\": %.6f}",
                     m.protocol.c_str(), m.wires.c_str(), m.silos, m.rounds,
                     m.bytes, m.messages, m.seconds, m.final_loss);
      });
  std::printf(
      "\nWrote BENCH_federated.json (%zu measurements).\n"
      "Expected shape: vertical bytes grow linearly in silo count (N-1\n"
      "partial predictions + N-1 residual broadcasts per round); Paillier\n"
      "wires cost 2x bytes per value and orders of magnitude more compute;\n"
      "secure HFL aggregation adds the share-routing quadratic term.\n",
      measurements.size());
  return 0;
}
