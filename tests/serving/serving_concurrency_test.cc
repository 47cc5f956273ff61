#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "core/amalur.h"
#include "la/dense_matrix.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"
#include "testing/generator.h"

/// Concurrent-serving acceptance suite (runs under CI's TSan job): N client
/// threads hammer `PredictBatch` through `ModelRegistry::Get` while another
/// thread redeploys and churns the registry. Every client-visible result
/// must be bitwise-equal to the serial answer — concurrency may never change
/// a score — and the whole dance must be data-race-free.

namespace amalur {
namespace serving {
namespace {

struct ServingFixture {
  std::unique_ptr<core::Amalur> system;
  core::IntegrationHandle integration;
  core::ModelHandle model;
};

ServingFixture TrainModel() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 2000;
  spec.other_rows = 200;
  spec.base_features = 2;
  spec.other_features = 6;
  spec.seed = 47;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  ServingFixture fixture;
  fixture.system = std::make_unique<core::Amalur>();
  AMALUR_CHECK_OK(fixture.system->catalog()->RegisterSource(
      {"S1", pair.base, "silo-1", false}));
  AMALUR_CHECK_OK(fixture.system->catalog()->RegisterSource(
      {"S2", pair.other, "silo-2", false}));
  auto integration =
      fixture.system->Integrate("S1", "S2", rel::JoinKind::kLeftJoin);
  AMALUR_CHECK(integration.ok()) << integration.status();
  fixture.integration = *std::move(integration);

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 25;
  request.gd.learning_rate = 0.05;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto model = fixture.system->Train(fixture.integration, request);
  AMALUR_CHECK(model.ok()) << model.status();
  fixture.model = *std::move(model);
  return fixture;
}

/// Deterministic per-(client, iteration) batch: same recipe on the serial
/// and the concurrent side, so expected answers are precomputable.
std::vector<RowRef> MakeBatch(size_t client, size_t iteration, size_t rows,
                              size_t batch_rows) {
  std::vector<RowRef> batch(batch_rows);
  for (size_t j = 0; j < batch_rows; ++j) {
    batch[j].row = (client * 100003 + iteration * 8191 + j * 31) % rows;
  }
  return batch;
}

TEST(ServingConcurrencyTest, ClientsSeeSerialScoresUnderRedeployChurn) {
  constexpr size_t kClients = 4;
  constexpr size_t kIterations = 20;
  constexpr size_t kBatchRows = 96;
  constexpr size_t kRedeploys = 12;

  ServingFixture fixture = TrainModel();
  ModelRegistry registry;
  auto deployed = fixture.model.Deploy(&registry, "hot");
  ASSERT_TRUE(deployed.ok()) << deployed.status();
  const size_t rows = (*deployed)->rows();

  // Serial ground truth, computed before any concurrency starts. Redeploys
  // publish fresh snapshots of the SAME trained handle, so every version a
  // client can resolve must reproduce these bits exactly.
  std::vector<std::vector<la::DenseMatrix>> expected(kClients);
  {
    common::ScopedNumThreads one(1);
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < kIterations; ++i) {
        auto scores = (*deployed)->PredictBatch(
            MakeBatch(c, i, rows, kBatchRows));
        ASSERT_TRUE(scores.ok()) << scores.status();
        expected[c].push_back(*std::move(scores));
      }
    }
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kIterations; ++i) {
        // Resolve through the registry every iteration — clients race the
        // redeployer on purpose; whichever version they get must score
        // identically.
        auto model = registry.Get("hot");
        if (!model.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto scores =
            (*model)->PredictBatch(MakeBatch(c, i, rows, kBatchRows));
        if (!scores.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!(*scores == expected[c][i])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The churn thread republishes the hot model and mutates unrelated names
  // while the clients score.
  std::thread churn([&] {
    for (size_t r = 0; r < kRedeploys; ++r) {
      auto redeployed = registry.Redeploy("hot", fixture.model);
      AMALUR_CHECK(redeployed.ok()) << redeployed.status();
      const std::string aux = "aux-" + std::to_string(r);
      AMALUR_CHECK_OK(registry.Deploy(aux, fixture.model).status());
      AMALUR_CHECK_OK(registry.Undeploy(aux));
      std::this_thread::yield();
    }
  });

  for (std::thread& t : clients) t.join();
  churn.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  // The hot deployment ended at version 1 + kRedeploys, and every batch the
  // clients scored is accounted for across the published snapshots.
  auto final_model = registry.Get("hot");
  ASSERT_TRUE(final_model.ok());
  EXPECT_EQ((*final_model)->version(), 1 + kRedeploys);
  EXPECT_EQ(registry.DeployedNames(), (std::vector<std::string>{"hot"}));
}

TEST(ServingConcurrencyTest, ConcurrentDeploysNeverDropOrDuplicateNames) {
  // Writers racing on disjoint names: every deploy must land exactly once
  // (COW swaps may not lose concurrent insertions).
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 8;

  ServingFixture fixture = TrainModel();
  ModelRegistry registry;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const std::string name =
            "m-" + std::to_string(w) + "-" + std::to_string(i);
        AMALUR_CHECK_OK(registry.Deploy(name, fixture.model).status());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(registry.DeployedNames().size(), kWriters * kPerWriter);
}

TEST(ServingConcurrencyTest, CatalogServesConcurrentLookupsDuringRegistration) {
  // The core catalog side of the same story: readers resolving sources and
  // models while a writer registers new entries (the serving tier's deploy
  // path does exactly this).
  ServingFixture fixture = TrainModel();
  core::Catalog* catalog = fixture.system->catalog();

  std::atomic<bool> stop{false};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (!catalog->GetSource("S1").ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (!catalog->HasSource("S2")) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        (void)catalog->SourceNames();
        (void)catalog->ModelNames();
      }
    });
  }

  for (size_t i = 0; i < 50; ++i) {
    core::ModelEntry entry;
    entry.name = "model-" + std::to_string(i);
    entry.task = "linear_regression";
    AMALUR_CHECK_OK(catalog->RegisterModel(entry));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(catalog->ModelNames().size(), 50u);
}

}  // namespace
}  // namespace serving
}  // namespace amalur
