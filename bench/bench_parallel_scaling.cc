// Parallel-runtime scaling experiment: for the Table I scenarios, trains
// factorized and materialized through the full Amalur facade at 1, 2, 4 and
// hardware-default threads (the `TrainRequest.num_threads` knob) and reports
// per-strategy speedup over the single-thread baseline. Alongside the
// human-readable table it emits machine-readable `BENCH_parallel.json`
// (scenario, threads, factorized/materialized seconds, speedups) so the
// perf trajectory of the runtime can be tracked across commits.
//
// Note: speedup is bounded by the cores actually present — on a single-core
// machine every thread count measures scheduling overhead, not scaling.
// AMALUR_BENCH_SMOKE=1 shrinks the tables, iterations and repeats; every
// row stays.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/amalur.h"
#include "testing/generator.h"

namespace {

using namespace amalur;

struct ScenarioRow {
  const char* name;     // table label
  const char* slug;     // json identifier
  rel::SiloPairSpec spec;
};

/// The Table I relationships, at the bench_table1_scenarios sizes (row
/// counts divided by `row_scale`). The left join (fan-out 10) is the
/// largest / the paper's headline factorized win.
std::vector<ScenarioRow> MakeScenarios(size_t row_scale) {
  std::vector<ScenarioRow> rows;
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kFullOuterJoin;
    spec.base_rows = 20000 / row_scale;
    spec.other_rows = 8000 / row_scale;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.shared_features = 2;
    spec.match_fraction = 0.5;
    spec.row_overlap = 0.5;
    spec.seed = 11;
    rows.push_back({"1 full outer join", "full_outer_join", spec});
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kInnerJoin;
    spec.base_rows = 20000 / row_scale;
    spec.other_rows = 20000 / row_scale;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.match_fraction = 1.0;
    spec.row_overlap = 1.0;
    spec.seed = 12;
    rows.push_back({"2 inner join     ", "inner_join", spec});
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kLeftJoin;
    spec.base_rows = 40000 / row_scale;
    spec.other_rows = 4000 / row_scale;  // fan-out 10
    spec.base_features = 2;
    spec.other_features = 60;
    spec.seed = 13;
    rows.push_back({"3 left join      ", "left_join", spec});
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kUnion;
    spec.base_rows = 20000 / row_scale;
    spec.other_rows = 20000 / row_scale;
    spec.base_features = 0;
    spec.other_features = 0;
    spec.shared_features = 30;
    spec.match_fraction = 0.0;
    spec.row_overlap = 0.0;
    spec.other_has_label = true;
    spec.seed = 14;
    rows.push_back({"4 union          ", "union", spec});
  }
  return rows;
}

/// Median training seconds under a forced strategy and thread count, all
/// through `Amalur::Train` (so the measurement includes exactly what the
/// system runs, kernel dispatch and all).
double MedianTrainSeconds(core::Amalur* system,
                          const core::IntegrationHandle& integration,
                          core::TrainRequest request,
                          core::ExecutionStrategy strategy, size_t num_threads,
                          size_t repeats) {
  request.force_strategy = strategy;
  request.num_threads = num_threads;
  std::vector<double> seconds;
  for (size_t r = 0; r < repeats; ++r) {
    auto model = system->Train(integration, request);
    AMALUR_CHECK(model.ok()) << model.status();
    // threads_used is the request capped by the pool's actual capacity.
    AMALUR_CHECK_EQ(
        model->outcome().threads_used,
        std::min(num_threads, common::ThreadPool::Global()->parallelism()))
        << "executor ignored the thread knob";
    seconds.push_back(model->outcome().seconds);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

struct Measurement {
  std::string scenario;
  size_t threads = 1;
  double factorized_seconds = 0.0;
  double materialized_seconds = 0.0;
  double factorized_speedup = 1.0;
  double materialized_speedup = 1.0;
};

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t kIterations = smoke ? 5 : 20;
  const size_t kRepeats = smoke ? 1 : 3;

  // 1/2/4 plus the runtime default (env var or hardware), deduplicated.
  std::vector<size_t> thread_counts = {1, 2, 4};
  const size_t default_threads = common::DefaultNumThreads();
  if (!std::count(thread_counts.begin(), thread_counts.end(),
                  default_threads)) {
    thread_counts.push_back(default_threads);
  }

  std::printf("=== Parallel runtime scaling: Table I scenarios ===%s\n",
              smoke ? " (SMOKE MODE — sizes scaled down)" : "");
  std::printf("(GD linear regression, %zu iterations, medians of %zu runs;\n"
              " speedups relative to the same strategy at 1 thread;\n"
              " hardware concurrency here: %zu)\n\n",
              kIterations, kRepeats, default_threads);
  std::printf("%-18s %8s %10s %10s %9s %9s\n", "scenario", "threads",
              "fact (s)", "mat (s)", "fact spd", "mat spd");

  std::vector<Measurement> measurements;
  for (const ScenarioRow& row : MakeScenarios(smoke ? 40 : 1)) {
    rel::SiloPair pair = rel::GenerateSiloPair(row.spec);

    core::AmalurOptions system_options;
    system_options.matcher.threshold = 0.75;
    core::Amalur system(system_options);
    AMALUR_CHECK_OK(
        system.catalog()->RegisterSource({"S1", pair.base, "silo-1", false}));
    AMALUR_CHECK_OK(
        system.catalog()->RegisterSource({"S2", pair.other, "silo-2", false}));

    core::IntegrationSpec spec;
    spec.sources = {"S1", "S2"};
    spec.relationships = {row.spec.kind};
    auto integration = system.Integrate(spec);
    AMALUR_CHECK(integration.ok()) << integration.status();

    core::TrainRequest request;
    request.label_column = "y";
    request.gd.iterations = kIterations;
    request.gd.learning_rate = 0.05;

    double fact_base = 0.0, mat_base = 0.0;
    for (size_t threads : thread_counts) {
      Measurement m;
      m.scenario = row.slug;
      m.threads = threads;
      m.factorized_seconds = MedianTrainSeconds(
          &system, *integration, request, core::ExecutionStrategy::kFactorize,
          threads, kRepeats);
      m.materialized_seconds = MedianTrainSeconds(
          &system, *integration, request,
          core::ExecutionStrategy::kMaterialize, threads, kRepeats);
      if (threads == 1) {
        fact_base = m.factorized_seconds;
        mat_base = m.materialized_seconds;
      }
      m.factorized_speedup =
          fact_base / std::max(m.factorized_seconds, 1e-12);
      m.materialized_speedup =
          mat_base / std::max(m.materialized_seconds, 1e-12);
      measurements.push_back(m);

      std::printf("%-18s %8zu %10.4f %10.4f %8.2fx %8.2fx\n", row.name,
                  threads, m.factorized_seconds, m.materialized_seconds,
                  m.factorized_speedup, m.materialized_speedup);
    }
  }

  bench::WriteJson(
      "BENCH_parallel.json", measurements,
      [](std::FILE* out, const Measurement& m) {
        std::fprintf(out,
                     "{\"scenario\": \"%s\", \"threads\": %zu, "
                     "\"factorized_seconds\": %.6f, "
                     "\"materialized_seconds\": %.6f, "
                     "\"factorized_speedup\": %.3f, "
                     "\"materialized_speedup\": %.3f}",
                     m.scenario.c_str(), m.threads, m.factorized_seconds,
                     m.materialized_seconds, m.factorized_speedup,
                     m.materialized_speedup);
      });
  std::printf("\nWrote BENCH_parallel.json (%zu measurements).\n",
              measurements.size());
  return 0;
}
