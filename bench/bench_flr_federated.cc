// Reproduces the §V federated-learning experiment: vertical federated
// linear regression (FLR) driven by DI metadata. The harness reports, per
// configuration, the training loss parity with centralized learning, the
// communication volume, and the encryption overhead of the Paillier
// protocol vs plaintext wires — the trade-off §V.B highlights ("encryption
// often brings tremendous computation overhead ... it is unclear how much
// overhead the encryption of DI metadata will bring").
// AMALUR_BENCH_SMOKE=1 shrinks the rows and the rounds; every row stays.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "federated/hfl.h"
#include "federated/vfl.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

namespace {

using namespace amalur;

void RunVflRow(size_t rows, size_t features_b, federated::VflPrivacy privacy,
               size_t iterations) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = rows;
  spec.other_rows = rows;
  spec.base_features = 3;
  spec.other_features = features_b;
  spec.seed = 55 + rows + features_b;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  auto alignment = federated::AlignForVflNary(*metadata, 0);
  AMALUR_CHECK(alignment.ok()) << alignment.status();
  std::vector<federated::VflParty>& parties = alignment->parties;
  parties[0].name = "A";
  parties[1].name = "B";

  federated::VflOptions options;
  options.iterations = iterations;
  options.learning_rate = 0.1;
  options.privacy = privacy;
  federated::MessageBus bus;
  Stopwatch watch;
  auto result = federated::TrainVerticalFlrNary(parties, alignment->labels,
                                                options, &bus);
  const double seconds = watch.ElapsedSeconds();
  AMALUR_CHECK(result.ok()) << result.status();

  // Centralized reference for loss parity.
  ml::MaterializedMatrix central_features(
      parties[0].x.ConcatColumns(parties[1].x));
  ml::GradientDescentOptions gd;
  gd.iterations = iterations;
  gd.learning_rate = 0.1;
  ml::LinearModel central =
      ml::TrainLinearRegression(central_features, alignment->labels, gd);

  std::printf("%6zu %6zu %10s %10.3f %12.4f %12.4f %12zu %6zu\n", rows,
              3 + features_b,
              privacy == federated::VflPrivacy::kPaillier ? "paillier"
                                                          : "plaintext",
              1e3 * seconds, result->loss_history.back(),
              central.loss_history.back(), result->bytes_transferred,
              result->messages);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  std::printf("=== §V: vertical federated linear regression over silos ===%s\n\n",
              smoke ? " (SMOKE MODE — sizes scaled down)" : "");
  std::printf("%6s %6s %10s %10s %12s %12s %12s %6s\n", "rows", "feats",
              "wires", "time(ms)", "fed loss", "central", "bytes", "msgs");

  const size_t iterations = smoke ? 3 : 25;
  const size_t row_scale = smoke ? 10 : 1;
  for (size_t rows : {200, 500, 1000}) {
    RunVflRow(rows / row_scale, 4, federated::VflPrivacy::kPlaintext,
              iterations);
  }
  for (size_t rows : {200, 500, 1000}) {
    RunVflRow(rows / row_scale, 4, federated::VflPrivacy::kPaillier,
              iterations);
  }

  std::printf("\n=== Horizontal FedAvg (union scenario) ===\n\n");
  std::printf("%8s %8s %10s %12s %12s %12s\n", "parties", "rows/p",
              "aggregation", "loss first", "loss last", "bytes");
  for (bool secure : {false, true}) {
    const size_t parties = 4, rows_each = 500 / row_scale, features = 6;
    Rng rng(99);
    la::DenseMatrix w_true = la::DenseMatrix::RandomGaussian(features, 1, &rng);
    std::vector<federated::HflPartition> partitions;
    for (size_t p = 0; p < parties; ++p) {
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
    options.rounds = smoke ? 5 : 40;
    options.local_epochs = 2;
    options.learning_rate = 0.2;
    options.secure_aggregation = secure;
    federated::MessageBus bus;
    auto result = federated::TrainHorizontalFlr(partitions, options, &bus);
    AMALUR_CHECK(result.ok()) << result.status();
    std::printf("%8zu %8zu %10s %12.4f %12.4f %12zu\n", parties, rows_each,
                secure ? "secure" : "plain", result->loss_history.front(),
                result->loss_history.back(), result->bytes_transferred);
  }
  std::printf(
      "\nExpected shape: federated loss tracks centralized loss (plaintext\n"
      "exactly, Paillier within fixed-point error); encrypted wires cost\n"
      "~2x bytes and orders of magnitude more compute.\n");
  return 0;
}
