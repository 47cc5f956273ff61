// Serving-tier throughput experiment: for each Table I integration scenario
// a trained model is deployed into a `serving::ModelRegistry` and hammered
// with batched scoring requests from a growing set of client threads, once
// through the factorized partial-score cache (`PredictBatch`) and once
// through a dense baseline kept here in the bench: a dot product over the
// rows of the materialized target. The
// harness reports sustained QPS / rows-per-second and request-latency
// percentiles (p50/p99) per (scenario, mode, client count) and emits
// machine-readable `BENCH_serving.json` so the serving trajectory can be
// tracked across commits alongside the training benches.
//
// Note: throughput scaling is bounded by the cores actually present — on a
// single-core CI container all client counts serialize onto one core, so
// QPS stays flat (the numbers still track per-request cost regressions).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "core/amalur.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"
#include "testing/generator.h"

namespace {

using namespace amalur;

/// Smoke mode divides every scenario's row counts by this factor (and
/// shrinks batch/request counts) so CI runs the full table in seconds.
size_t RowScale() { return bench::SmokeMode() ? 40 : 1; }

struct PreparedScenario {
  std::string name;  // table label
  std::string slug;  // json identifier
  std::unique_ptr<core::Amalur> system;
  core::IntegrationHandle integration;
};

core::Amalur* NewSystem(std::vector<PreparedScenario>* out, const char* name,
                        const char* slug) {
  // Generic short column names (x0, z0, u0...) need strong evidence to
  // match; a stricter threshold keeps the key match and rejects noise.
  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  out->push_back({name, slug, std::make_unique<core::Amalur>(options), {}});
  return out->back().system.get();
}

void FinishScenario(std::vector<PreparedScenario>* out,
                    const core::IntegrationSpec& spec) {
  auto integration = out->back().system->Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  out->back().integration = *std::move(integration);
}

/// The same seven Table I scenarios as bench_table1_scenarios.cc (same
/// seeds and shapes), so the serving numbers line up with the training ones.
std::vector<PreparedScenario> MakeScenarios() {
  std::vector<PreparedScenario> out;
  const auto scaled = [](size_t rows) {
    return std::max<size_t>(2, rows / RowScale());
  };

  const auto pair_scenario = [&out, &scaled](const char* name,
                                             const char* slug,
                                             rel::SiloPairSpec spec) {
    spec.base_rows = scaled(spec.base_rows);
    spec.other_rows = scaled(spec.other_rows);
    core::Amalur* system = NewSystem(&out, name, slug);
    rel::SiloPair pair = rel::GenerateSiloPair(spec);
    AMALUR_CHECK_OK(
        system->catalog()->RegisterSource({"S1", pair.base, "silo-1", false}));
    AMALUR_CHECK_OK(
        system->catalog()->RegisterSource({"S2", pair.other, "silo-2", false}));
    core::IntegrationSpec integration_spec;
    integration_spec.sources = {"S1", "S2"};
    integration_spec.relationships = {spec.kind};
    FinishScenario(&out, integration_spec);
  };

  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kFullOuterJoin;
    spec.base_rows = 20000;
    spec.other_rows = 8000;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.shared_features = 2;
    spec.match_fraction = 0.5;
    spec.row_overlap = 0.5;
    spec.seed = 11;
    pair_scenario("1 full outer join", "full_outer_join", spec);
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kInnerJoin;
    spec.base_rows = 20000;
    spec.other_rows = 20000;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.match_fraction = 1.0;
    spec.row_overlap = 1.0;
    spec.seed = 12;
    pair_scenario("2 inner join     ", "inner_join", spec);
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kLeftJoin;
    spec.base_rows = 40000;
    spec.other_rows = 4000;  // fan-out 10
    spec.base_features = 2;
    spec.other_features = 60;
    spec.seed = 13;
    pair_scenario("3 left join      ", "left_join", spec);
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kUnion;
    spec.base_rows = 20000;
    spec.other_rows = 20000;
    spec.base_features = 0;
    spec.other_features = 0;
    spec.shared_features = 30;
    spec.match_fraction = 0.0;
    spec.row_overlap = 0.0;
    spec.other_has_label = true;
    spec.seed = 14;
    pair_scenario("4 union          ", "union", spec);
  }
  {
    rel::SnowflakeSpec spec;
    spec.fact_rows = scaled(40000);
    spec.fact_features = 2;
    spec.level_rows = {scaled(2000), scaled(50)};
    spec.level_features = {30, 20};
    spec.seed = 15;
    rel::Snowflake snowflake = rel::GenerateSnowflake(spec);
    core::Amalur* system = NewSystem(&out, "5 snowflake      ", "snowflake");
    for (const rel::Table& table : snowflake.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                              {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  {
    rel::UnionOfStarsSpec spec;
    spec.shards = 2;
    spec.fact_rows = scaled(20000);
    spec.fact_features = 2;
    spec.dim_rows = scaled(1000);
    spec.dim_features = 30;
    spec.seed = 16;
    rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);
    core::Amalur* system =
        NewSystem(&out, "6 union of stars ", "union_of_stars");
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                              {"fact0", "fact1", rel::JoinKind::kUnion},
                              {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  {
    rel::ConformedSnowflakeSpec spec;
    spec.fact_rows = scaled(40000);
    spec.fact_features = 2;
    spec.branches = 2;
    spec.branch_rows = scaled(1000);
    spec.branch_features = 20;
    spec.shared_rows = scaled(50);
    spec.shared_features = 20;
    spec.seed = 17;
    rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);
    core::Amalur* system =
        NewSystem(&out, "7 conformed snflk", "conformed_snowflake");
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact", "branch0", rel::JoinKind::kLeftJoin},
                              {"fact", "branch1", rel::JoinKind::kLeftJoin},
                              {"branch0", "shared", rel::JoinKind::kLeftJoin},
                              {"branch1", "shared", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  return out;
}

/// The dense baseline: the materialized target (rT x cT) and the model's
/// weights padded to target columns with a 0 at the label, so a full-width
/// dot product scores a row's features only.
struct DenseBaseline {
  la::DenseMatrix target;
  la::DenseMatrix weights;
};

DenseBaseline MakeDenseBaseline(const PreparedScenario& scenario,
                                const core::ModelHandle& model) {
  DenseBaseline dense;
  dense.target = scenario.integration.metadata.MaterializeTargetMatrix();
  dense.weights = la::DenseMatrix(dense.target.cols(), 1);
  for (size_t j = 0, f = 0; j < dense.target.cols(); ++j) {
    if (j != model.label_index()) {
      dense.weights.At(j, 0) = model.weights().At(f++, 0);
    }
  }
  return dense;
}

/// Linear scores of the referenced target rows, gathered from the dense
/// baseline.
la::DenseMatrix ScoreDense(const DenseBaseline& dense,
                           const std::vector<serving::RowRef>& batch) {
  la::DenseMatrix out(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    const double* row = dense.target.RowPtr(batch[i].row);
    double acc = 0.0;
    for (size_t j = 0; j < dense.target.cols(); ++j) {
      acc += row[j] * dense.weights.At(j, 0);
    }
    out.At(i, 0) = acc;
  }
  return out;
}

struct Measurement {
  std::string scenario;
  std::string mode;  // "factorized" | "dense"
  size_t client_threads = 0;
  size_t batch_rows = 0;
  size_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double rows_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double PercentileMs(std::vector<double>* latencies, double fraction) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  size_t index = static_cast<size_t>(fraction *
                                     static_cast<double>(latencies->size()));
  if (index >= latencies->size()) index = latencies->size() - 1;
  return (*latencies)[index] * 1e3;
}

/// Runs `clients` threads, each issuing `requests_per_client` batched
/// scoring requests against the deployment resolved from the registry (or,
/// with `dense`, against the dense baseline), and returns the aggregate
/// measurement. Row choice is deterministic per (client, request) so every
/// run scores identical batches.
Measurement RunLoad(const serving::ModelRegistry& registry,
                    const PreparedScenario& scenario,
                    const DenseBaseline* dense, size_t clients,
                    size_t requests_per_client, size_t batch_rows) {
  std::vector<std::vector<double>> latencies(clients);
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Each client is one core's worth of work: intra-batch fan-out would
      // make concurrent clients fight over the pool and blur the scaling
      // signal, so batches score serially inside a client.
      common::ScopedNumThreads one(1);
      auto model = registry.Get("scorer");
      AMALUR_CHECK(model.ok()) << model.status();
      const size_t rows = (*model)->rows();
      std::vector<serving::RowRef> batch(batch_rows);
      latencies[c].reserve(requests_per_client);
      for (size_t r = 0; r < requests_per_client; ++r) {
        for (size_t j = 0; j < batch_rows; ++j) {
          batch[j].row = (c * 100003 + r * 8191 + j * 31) % rows;
        }
        Stopwatch request;
        if (dense != nullptr) {
          const la::DenseMatrix scores = ScoreDense(*dense, batch);
          latencies[c].push_back(request.ElapsedSeconds());
          AMALUR_CHECK_EQ(scores.rows(), batch_rows);
          continue;
        }
        auto scores = (*model)->PredictBatch(batch);
        latencies[c].push_back(request.ElapsedSeconds());
        AMALUR_CHECK(scores.ok()) << scores.status();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  Measurement m;
  m.scenario = scenario.slug;
  m.mode = dense != nullptr ? "dense" : "factorized";
  m.client_threads = clients;
  m.batch_rows = batch_rows;
  m.requests = merged.size();
  m.seconds = seconds;
  m.qps = static_cast<double>(merged.size()) / std::max(seconds, 1e-12);
  m.rows_per_sec = m.qps * static_cast<double>(batch_rows);
  m.p50_ms = PercentileMs(&merged, 0.50);
  m.p99_ms = PercentileMs(&merged, 0.99);
  return m;
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t kBatchRows = smoke ? 32 : 256;
  const size_t kRequestsPerClient = smoke ? 16 : 64;
  const std::vector<size_t> client_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};

  std::printf("=== Serving throughput: batched scoring vs client threads ===\n");
  std::printf(
      "(one deployment per Table I scenario, %zu-row batches, %zu requests\n"
      " per client; factorized = partial-score cache, dense = materialized\n"
      " baseline%s; hardware concurrency here: %u — on a 1-core container\n"
      " all client counts serialize, so QPS stays flat)\n\n",
      kBatchRows, kRequestsPerClient,
      smoke ? "; SMOKE MODE — sizes scaled down" : "",
      std::thread::hardware_concurrency());
  std::printf("%-18s %11s %8s %10s %10s %9s %9s\n", "scenario", "mode",
              "clients", "qps", "rows/s", "p50 (ms)", "p99 (ms)");

  std::vector<Measurement> measurements;
  for (PreparedScenario& scenario : MakeScenarios()) {
    core::TrainRequest request;
    request.label_column = "y";
    request.gd.iterations = smoke ? 5 : 20;
    request.gd.learning_rate = 0.05;
    request.force_strategy = core::ExecutionStrategy::kFactorize;
    auto model = scenario.system->Train(scenario.integration, request);
    AMALUR_CHECK(model.ok()) << model.status();

    serving::ModelRegistry registry;
    auto deployed = model->Deploy(&registry, "scorer");
    AMALUR_CHECK(deployed.ok()) << deployed.status();
    const DenseBaseline baseline = MakeDenseBaseline(scenario, *model);

    for (bool dense : {false, true}) {
      for (size_t clients : client_counts) {
        Measurement m =
            RunLoad(registry, scenario, dense ? &baseline : nullptr, clients,
                    kRequestsPerClient, kBatchRows);
        std::printf("%-18s %11s %8zu %10.0f %10.0f %9.4f %9.4f\n",
                    scenario.name.c_str(), m.mode.c_str(), m.client_threads,
                    m.qps, m.rows_per_sec, m.p50_ms, m.p99_ms);
        measurements.push_back(std::move(m));
      }
    }
  }

  bench::WriteJson(
      "BENCH_serving.json", measurements,
      [](std::FILE* out, const Measurement& m) {
        std::fprintf(out,
                     "{\"scenario\": \"%s\", \"mode\": \"%s\", "
                     "\"client_threads\": %zu, \"batch_rows\": %zu, "
                     "\"requests\": %zu, \"seconds\": %.6f, "
                     "\"qps\": %.1f, \"rows_per_sec\": %.1f, "
                     "\"p50_ms\": %.4f, \"p99_ms\": %.4f}",
                     m.scenario.c_str(), m.mode.c_str(), m.client_threads,
                     m.batch_rows, m.requests, m.seconds, m.qps,
                     m.rows_per_sec, m.p50_ms, m.p99_ms);
      });
  std::printf(
      "\nWrote BENCH_serving.json (%zu measurements).\n"
      "Expected shape: the factorized partial-score cache serves each row\n"
      "with one lookup per silo, so its QPS beats the dense dot product\n"
      "wherever integration widened the target (fan-out joins); QPS grows\n"
      "with client threads until the physical cores are saturated.\n",
      measurements.size());
  return 0;
}
