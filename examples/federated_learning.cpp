// Federated learning (use case 2, §V): two banks hold vertically
// partitioned features about shared customers and cannot move raw data.
// Amalur integrates the silos virtually (metadata only), the optimizer is
// forced to a federated plan by the privacy constraint, and training runs
// as vertical federated linear regression — first in plaintext, then with
// Paillier-encrypted exchanges to show the §V.B encryption overhead.
// A horizontal (FedAvg) run over row-partitioned branches, an n-silo
// privacy-constrained snowflake (three parties, composed indicator blocks)
// and a union-of-stars scenario that federates horizontally per shard —
// all through the same `Amalur::Train` facade — close the tour.

#include <cstdio>

#include "core/amalur.h"
#include "federated/hfl.h"
#include "federated/vfl.h"
#include "testing/generator.h"

int main() {
  using namespace amalur;

  // Shared customers, disjoint feature sets (inner-join VFL; Example 2).
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 400;
  spec.other_rows = 400;
  spec.base_features = 3;   // bank A: balances, income, tenure
  spec.other_features = 4;  // bank B: card spend categories
  spec.seed = 7;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  core::Amalur system;
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"bank_a", pair.base, "bank-a-dc", /*privacy_sensitive=*/true}));
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"bank_b", pair.other, "bank-b-dc", /*privacy_sensitive=*/true}));

  core::IntegrationSpec spec2;
  spec2.name = "joint-customers";
  spec2.sources = {"bank_a", "bank_b"};
  spec2.relationships = {rel::JoinKind::kInnerJoin};
  auto integration = system.Integrate(spec2);
  AMALUR_CHECK(integration.ok()) << integration.status();
  core::Plan plan = system.Explain(*integration);
  std::printf("Optimizer: %s\n\n", plan.explanation.c_str());

  // --- Vertical FLR through the system facade (plaintext wires).
  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 80;
  request.gd.learning_rate = 0.1;
  auto model = system.Train(*integration, request, "joint-risk-model");
  AMALUR_CHECK(model.ok()) << model.status();
  const core::TrainOutcome& outcome = model->outcome();
  std::printf("VFL (plaintext wires): loss %.4f -> %.4f, %zu bytes moved\n",
              outcome.loss_history.front(), outcome.loss_history.back(),
              outcome.bytes_transferred);

  // --- The same protocol with Paillier-encrypted residual/gradient
  // exchange: identical learning curve shape, heavier wires.
  auto alignment = federated::AlignForVflNary(integration->metadata, 0);
  AMALUR_CHECK(alignment.ok()) << alignment.status();
  alignment->parties[0].name = "A";
  alignment->parties[1].name = "B";
  federated::VflOptions secure;
  secure.iterations = 20;  // homomorphic ops are costly; fewer steps suffice
  secure.learning_rate = 0.1;
  secure.privacy = federated::VflPrivacy::kPaillier;
  federated::MessageBus secure_bus;
  auto encrypted = federated::TrainVerticalFlrNary(
      alignment->parties, alignment->labels, secure, &secure_bus);
  AMALUR_CHECK(encrypted.ok()) << encrypted.status();

  federated::VflOptions clear = secure;
  clear.privacy = federated::VflPrivacy::kPlaintext;
  federated::MessageBus clear_bus;
  auto plaintext = federated::TrainVerticalFlrNary(
      alignment->parties, alignment->labels, clear, &clear_bus);
  AMALUR_CHECK(plaintext.ok()) << plaintext.status();

  std::printf("\n=== Encryption overhead (%zu iterations) ===\n",
              secure.iterations);
  std::printf("  plaintext: %8zu bytes, %4zu messages, loss %.4f\n",
              plaintext->bytes_transferred, plaintext->messages,
              plaintext->loss_history.back());
  std::printf("  paillier : %8zu bytes, %4zu messages, loss %.4f\n",
              encrypted->bytes_transferred, encrypted->messages,
              encrypted->loss_history.back());
  std::printf("  blow-up  : %.1fx bytes\n\n",
              static_cast<double>(encrypted->bytes_transferred) /
                  static_cast<double>(plaintext->bytes_transferred));

  // --- Horizontal FL: three branches hold row partitions of one schema.
  std::vector<federated::HflPartition> branches;
  for (uint64_t branch = 0; branch < 3; ++branch) {
    rel::Table t = rel::GenerateTable("branch", 200, 5, 100 + branch);
    federated::HflPartition partition{*t.ToMatrix({2, 3, 4, 5, 6}),
                                      *t.ToMatrix({1})};
    branches.push_back(std::move(partition));
  }
  federated::HflOptions hfl;
  hfl.rounds = 40;
  hfl.local_epochs = 2;
  hfl.learning_rate = 0.2;
  hfl.secure_aggregation = true;
  federated::MessageBus hfl_bus;
  auto global = federated::TrainHorizontalFlr(branches, hfl, &hfl_bus);
  AMALUR_CHECK(global.ok()) << global.status();
  std::printf("=== Horizontal FedAvg (3 branches, secure aggregation) ===\n");
  std::printf("  loss %.4f -> %.4f over %zu rounds, %zu bytes moved\n",
              global->loss_history.front(), global->loss_history.back(),
              hfl.rounds, global->bytes_transferred);

  // --- N-silo vertical federation through the facade: a snowflake whose
  // three silos (fact -> dim0 -> dim1) all refuse data movement. The leaf
  // silo participates through the indicator composed along the chain; the
  // executed plan reports silos, rounds and bytes.
  rel::SnowflakeSpec snow_spec;
  snow_spec.fact_rows = 300;
  snow_spec.fact_features = 2;
  snow_spec.level_rows = {30, 6};
  snow_spec.level_features = {3, 2};
  snow_spec.seed = 21;
  rel::Snowflake snowflake = rel::GenerateSnowflake(snow_spec);
  core::AmalurOptions snow_options;
  snow_options.matcher.threshold = 0.75;
  core::Amalur snow_system(snow_options);
  for (const rel::Table& table : snowflake.tables) {
    AMALUR_CHECK_OK(snow_system.catalog()->RegisterSource(
        {table.name(), table, "silo", /*privacy_sensitive=*/true}));
  }
  core::IntegrationSpec snow_spec2;
  snow_spec2.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                      {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
  auto snow_integration = snow_system.Integrate(snow_spec2);
  AMALUR_CHECK(snow_integration.ok()) << snow_integration.status();
  core::TrainRequest snow_request;
  snow_request.label_column = "y";
  snow_request.gd.iterations = 50;
  snow_request.gd.learning_rate = 0.05;
  auto snow_model = snow_system.Train(*snow_integration, snow_request);
  AMALUR_CHECK(snow_model.ok()) << snow_model.status();
  std::printf("\n=== N-silo vertical FLR (privacy-constrained snowflake) ===\n");
  std::printf("  %s\n", snow_model->plan().explanation.c_str());
  std::printf("  loss %.4f -> %.4f across %zu silos\n",
              snow_model->outcome().loss_history.front(),
              snow_model->outcome().loss_history.back(),
              snow_model->outcome().federated_silos);

  // --- Union-of-stars: horizontally partitioned shards federate with one
  // FedAvg participant per shard — no cross-shard rows are ever assembled.
  rel::UnionOfStarsSpec union_spec;
  union_spec.shards = 2;
  union_spec.fact_rows = 200;
  union_spec.fact_features = 2;
  union_spec.dim_rows = 20;
  union_spec.dim_features = 3;
  union_spec.seed = 27;
  rel::UnionOfStars scenario = rel::GenerateUnionOfStars(union_spec);
  core::Amalur shard_system(snow_options);
  for (const rel::Table& table : scenario.tables) {
    AMALUR_CHECK_OK(shard_system.catalog()->RegisterSource(
        {table.name(), table, "shard-silo", /*privacy_sensitive=*/true}));
  }
  core::IntegrationSpec shard_spec;
  shard_spec.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                      {"fact0", "fact1", rel::JoinKind::kUnion},
                      {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
  auto shard_integration = shard_system.Integrate(shard_spec);
  AMALUR_CHECK(shard_integration.ok()) << shard_integration.status();
  auto shard_model = shard_system.Train(*shard_integration, snow_request);
  AMALUR_CHECK(shard_model.ok()) << shard_model.status();
  std::printf("\n=== Per-shard FedAvg (privacy-constrained union-of-stars) ===\n");
  std::printf("  %s\n", shard_model->plan().explanation.c_str());
  std::printf("  loss %.4f -> %.4f across %zu shards\n",
              shard_model->outcome().loss_history.front(),
              shard_model->outcome().loss_history.back(),
              shard_model->outcome().federated_silos);
  return 0;
}
