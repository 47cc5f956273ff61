#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/amalur.h"
#include "factorized/factorized_table.h"

/// Concurrent `Train`s on copies of one fresh integration handle: the
/// copies share one `DiMetadata` state, so the threads race to build its
/// row-slot index, which must happen once. Every model must equal a serial
/// `Train` of the same request bit for bit, and every model's view must
/// read the one index. CI runs this suite under ThreadSanitizer.

namespace amalur {
namespace core {
namespace {

constexpr size_t kThreads = 4;

rel::Table Dimension(const std::string& name, const std::string& key,
                     size_t rows, size_t features, Rng* rng) {
  rel::Table table(name);
  std::vector<int64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
  AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s(key, keys)));
  for (size_t f = 0; f < features; ++f) {
    std::vector<double> values(rows);
    for (double& v : values) v = rng->NextGaussian();
    AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromDoubles(
        name.substr(0, 3) + "_" + std::to_string(f), values)));
  }
  return table;
}

/// Registers a fact table referencing two keyed dimensions and integrates
/// them under left joins; the same seed gives the same integration.
IntegrationHandle IntegrateStar(Amalur* amalur) {
  Rng rng(2603);
  const size_t fact_rows = 600;
  rel::Table fact("visits");
  std::vector<std::string> sources = {"visits"};
  for (const auto& [name, rows] :
       std::vector<std::pair<std::string, size_t>>{{"patients", 50},
                                                   {"clinics", 12}}) {
    const std::string key = name + "_id";
    AMALUR_CHECK_OK(amalur->catalog()->RegisterSource(
        {name, Dimension(name, key, rows, 3, &rng), "", false}));
    std::vector<int64_t> refs(fact_rows);
    for (int64_t& ref : refs) ref = static_cast<int64_t>(rng.NextUint64(rows));
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s(key, refs)));
    sources.push_back(name);
  }
  std::vector<double> visits(fact_rows), charge(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    visits[i] = rng.NextGaussian();
    charge[i] = 1.3 * visits[i] + 0.2 * rng.NextGaussian();
  }
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("visits", visits)));
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("charge", charge)));
  AMALUR_CHECK_OK(
      amalur->catalog()->RegisterSource({"visits", fact, "", false}));
  IntegrationSpec spec;
  spec.sources = sources;
  spec.relationships = {rel::JoinKind::kLeftJoin};
  auto integration = amalur->Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  return *std::move(integration);
}

/// Four requests that differ in their hyper-parameters and strategy.
std::vector<TrainRequest> Requests() {
  std::vector<TrainRequest> requests(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    requests[t].label_column = "charge";
    requests[t].gd.iterations = 20;
    requests[t].gd.learning_rate = 0.05 * static_cast<double>(t + 1);
    requests[t].gd.l2 = t % 2 == 0 ? 0.0 : 0.01;
    requests[t].num_threads = 1;
    requests[t].force_strategy =
        t == 3 ? ExecutionStrategy::kMaterialize : ExecutionStrategy::kFactorize;
  }
  return requests;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqual(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ConcurrentTrainTest, RacingTrainsBuildOneIndexAndMatchSerialTrains) {
  const std::vector<TrainRequest> requests = Requests();
  std::vector<ModelHandle> serial;
  {
    Amalur amalur;
    const IntegrationHandle integration = IntegrateStar(&amalur);
    for (const TrainRequest& request : requests) {
      auto model = amalur.Train(integration, request);
      ASSERT_TRUE(model.ok()) << model.status();
      serial.push_back(*std::move(model));
    }
  }

  Amalur amalur;
  const IntegrationHandle fresh = IntegrateStar(&amalur);
  const std::vector<IntegrationHandle> copies(kThreads, fresh);
  std::vector<std::optional<Result<ModelHandle>>> models(kThreads);
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      models[t].emplace(amalur.Train(copies[t], requests[t]));
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  const metadata::RowSlotIndex* index = &fresh.metadata.slot_index();
  for (size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_TRUE(models[t]->ok()) << models[t]->status();
    const ModelHandle& model = **models[t];
    EXPECT_EQ(model.outcome().strategy_used, *requests[t].force_strategy);
    EXPECT_TRUE(BitEqual(model.weights(), serial[t].weights()));
    EXPECT_TRUE(
        BitEqual(model.outcome().loss_history, serial[t].outcome().loss_history));
    EXPECT_EQ(&model.metadata()->slot_index(), index);
    EXPECT_EQ(&model.factorized_table()->metadata().slot_index(), index);
    EXPECT_EQ(&copies[t].metadata.slot_index(), index);
  }
}

}  // namespace
}  // namespace core
}  // namespace amalur
