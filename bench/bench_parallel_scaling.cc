// Parallel-runtime scaling experiment: for the four pairwise Table I
// scenarios (testing/table1_scenarios.h), trains factorized and
// materialized through the full Amalur facade at 1, 2, 4 and
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
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "testing/table1_scenarios.h"

namespace {

using namespace amalur;

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
  for (rel::Table1Scenario& generated :
       rel::MakeTable1Scenarios(bench::Table1RowScale())) {
    if (generated.edges.size() != 1) continue;  // the pairwise relationships
    const bench::IntegratedScenario scenario =
        bench::IntegrateScenario(std::move(generated));
    double fact_base = 0.0, mat_base = 0.0;
    for (size_t threads : thread_counts) {
      core::TrainRequest request = bench::GdRequest(kIterations);
      request.num_threads = threads;
      const bench::StrategyTiming timing = bench::MeasureTraining(
          scenario.system.get(), scenario.integration, request, kRepeats);
      Measurement m;
      m.scenario = scenario.slug;
      m.threads = threads;
      m.factorized_seconds = timing.factorized_seconds;
      m.materialized_seconds = timing.materialized_seconds;
      if (threads == 1) {
        fact_base = m.factorized_seconds;
        mat_base = m.materialized_seconds;
      }
      m.factorized_speedup =
          fact_base / std::max(m.factorized_seconds, 1e-12);
      m.materialized_speedup =
          mat_base / std::max(m.materialized_seconds, 1e-12);
      measurements.push_back(m);

      std::printf("%-18s %8zu %10.4f %10.4f %8.2fx %8.2fx\n",
                  scenario.label.c_str(), threads, m.factorized_seconds,
                  m.materialized_seconds, m.factorized_speedup,
                  m.materialized_speedup);
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
