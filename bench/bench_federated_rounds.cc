// Federated round-loop experiment (§V): communication volume and wall time
// of the n-ary protocols as a function of silo count. Vertical FLR runs
// with N feature-holding parties under plaintext and Paillier wires (the
// §V.B encryption blow-up shows up directly in the byte column — each
// ciphertext travels at its 16-byte serialized size); horizontal FedAvg
// runs with one participant per shard under plain and secure aggregation.
// Alongside the human-readable table it emits machine-readable
// `BENCH_federated.json` (protocol, wires, silos, rounds, bytes, seconds)
// so the communication trajectory can be tracked across commits. Two
// printed tables follow, outside the JSON: two-party VFL over the metadata
// of an integrated silo pair, with the loss of centralized training beside
// it (plaintext matches exactly, Paillier within fixed-point error), and
// four-party FedAvg at two local epochs per round.
// AMALUR_BENCH_SMOKE=1 shrinks the rows and the rounds; every row stays.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "federated/hfl.h"
#include "federated/vfl.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

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
  double first_loss = 0.0;
  double final_loss = 0.0;
};

/// N row-aligned feature blocks with a planted joint linear model.
federated::NaryVflAlignment MakeVflParties(size_t silos, size_t rows,
                                           size_t features_each,
                                           uint64_t seed) {
  Rng rng(seed);
  federated::NaryVflAlignment out;
  out.labels = la::DenseMatrix(rows, 1);
  for (size_t k = 0; k < silos; ++k) {
    federated::VflParty party;
    party.x = la::DenseMatrix::RandomGaussian(rows, features_each, &rng);
    la::DenseMatrix w = la::DenseMatrix::RandomGaussian(features_each, 1, &rng);
    out.labels.AddInPlace(party.x.Multiply(w));
    out.parties.push_back(std::move(party));
  }
  for (size_t i = 0; i < rows; ++i) {
    out.labels.At(i, 0) += 0.05 * rng.NextGaussian();
  }
  return out;
}

/// Vertical FLR over `alignment`'s parties, timed.
Measurement RunVfl(const federated::NaryVflAlignment& alignment,
                   federated::VflPrivacy privacy, size_t rounds) {
  federated::VflOptions options;
  options.iterations = rounds;
  options.learning_rate = 0.1;
  options.privacy = privacy;
  federated::MessageBus bus;
  Stopwatch watch;
  auto result = federated::TrainVerticalFlrNary(
      alignment.parties, alignment.labels, options, &bus);
  const double seconds = watch.ElapsedSeconds();
  AMALUR_CHECK(result.ok()) << result.status();
  return {"vfl",
          privacy == federated::VflPrivacy::kPaillier ? "paillier"
                                                      : "plaintext",
          alignment.parties.size(),
          rounds,
          result->bytes_transferred,
          result->messages,
          seconds,
          result->loss_history.front(),
          result->loss_history.back()};
}

/// FedAvg over `shards` row partitions of one planted linear model (six
/// features, `rows_each` rows per shard, drawn from `seed`).
Measurement RunHfl(size_t shards, bool secure, size_t rounds,
                   size_t rows_each, size_t local_epochs, uint64_t seed) {
  Rng rng(seed);
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
  options.local_epochs = local_epochs;
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
          result->loss_history.front(),
          result->loss_history.back()};
}

/// Two-party VFL over the metadata of an integrated inner-join pair (three
/// base features, `other_features` on the other side), printed beside the
/// loss of centralized GD over the same rows.
void PrintVflParityRow(size_t rows, size_t other_features,
                       federated::VflPrivacy privacy, size_t iterations) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = rows;
  spec.other_rows = rows;
  spec.base_features = 3;
  spec.other_features = other_features;
  spec.seed = 55 + rows + other_features;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  auto alignment = federated::AlignForVflNary(*metadata, 0);
  AMALUR_CHECK(alignment.ok()) << alignment.status();
  const Measurement m = RunVfl(*alignment, privacy, iterations);

  ml::MaterializedMatrix central_features(
      alignment->parties[0].x.ConcatColumns(alignment->parties[1].x));
  ml::GradientDescentOptions gd;
  gd.iterations = iterations;
  gd.learning_rate = 0.1;
  const ml::LinearModel central =
      ml::TrainLinearRegression(central_features, alignment->labels, gd);

  std::printf("%6zu %6zu %10s %10.3f %12.4f %12.4f %12zu %6zu\n", rows,
              3 + other_features, m.wires.c_str(), 1e3 * m.seconds,
              m.final_loss, central.loss_history.back(), m.bytes, m.messages);
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
    measurements.push_back(
        RunVfl(MakeVflParties(silos, kVflRows, 3, 100 + silos),
               federated::VflPrivacy::kPlaintext, kVflRounds));
    PrintRow(measurements.back());
  }
  // Paillier at smaller sizes: homomorphic transposes dominate wall time.
  for (size_t silos : {2, 3, 5}) {
    measurements.push_back(
        RunVfl(MakeVflParties(silos, smoke ? 20 : 60, 3, 100 + silos),
               federated::VflPrivacy::kPaillier, smoke ? 2 : 5));
    PrintRow(measurements.back());
  }
  const size_t kHflRounds = smoke ? 6 : 30;
  const size_t kHflRows = smoke ? 50 : 300;
  for (size_t shards : {2, 4, 8}) {
    for (bool secure : {false, true}) {
      measurements.push_back(
          RunHfl(shards, secure, kHflRounds, kHflRows, 1, 200 + shards));
      PrintRow(measurements.back());
    }
  }

  std::printf("\n=== §V: two-party VFL over an integrated pair vs "
              "centralized GD ===\n\n");
  std::printf("%6s %6s %10s %10s %12s %12s %12s %6s\n", "rows", "feats",
              "wires", "time(ms)", "fed loss", "central", "bytes", "msgs");
  const size_t kParityIterations = smoke ? 3 : 25;
  const size_t kParityRowScale = smoke ? 10 : 1;
  for (federated::VflPrivacy privacy :
       {federated::VflPrivacy::kPlaintext, federated::VflPrivacy::kPaillier}) {
    for (size_t rows : {200, 500, 1000}) {
      PrintVflParityRow(rows / kParityRowScale, 4, privacy, kParityIterations);
    }
  }

  std::printf("\n=== Horizontal FedAvg: 4 parties, 2 local epochs ===\n\n");
  std::printf("%8s %8s %10s %12s %12s %12s\n", "parties", "rows/p",
              "aggregation", "loss first", "loss last", "bytes");
  for (bool secure : {false, true}) {
    const Measurement m =
        RunHfl(4, secure, smoke ? 5 : 40, 500 / kParityRowScale, 2, 99);
    std::printf("%8zu %8zu %10s %12.4f %12.4f %12zu\n", m.silos,
                500 / kParityRowScale, m.wires.c_str(), m.first_loss,
                m.final_loss, m.bytes);
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
      "secure HFL aggregation adds the share-routing quadratic term;\n"
      "federated loss tracks centralized loss.\n",
      measurements.size());
  return 0;
}
