#ifndef AMALUR_BENCH_BENCH_UTIL_H_
#define AMALUR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/amalur.h"
#include "cost/cost_features.h"
#include "cost/observation_log.h"
#include "metadata/di_metadata.h"
#include "testing/table1_scenarios.h"

/// \file bench_util.h
/// Shared measurement plumbing for the per-table/figure bench binaries.
/// Ground truth for every decision experiment is a training run through the
/// facade: `Amalur::Train` with `force_strategy` pinned, timed by the
/// stopwatch behind `TrainOutcome::seconds` (factorized = training over the
/// silo matrices; materialized = target materialization + dense training).

namespace amalur {
namespace bench {

/// Smoke mode (`AMALUR_BENCH_SMOKE=1`): CI runs every bench binary on each
/// push to keep the emitted BENCH_*.json trajectories populated, but it
/// needs seconds, not minutes — benches shrink their data sizes and repeat
/// counts under this flag while keeping every scenario row present, so the
/// JSON schema (and the decision columns) stays identical to a full run.
inline bool SmokeMode() {
  const char* env = std::getenv("AMALUR_BENCH_SMOKE");
  if (env == nullptr) return false;
  // Common "off" spellings stay off — a shrunken run silently written to
  // the tracked BENCH_*.json would corrupt the perf trajectory.
  for (const char* off : {"", "0", "false", "no", "off"}) {
    if (std::strcmp(env, off) == 0) return false;
  }
  return true;
}

/// Writes `rows` to `path` as a JSON array with one object per line;
/// `print_row(out, row)` prints one row's `{...}` object.
template <typename Row, typename PrintRow>
void WriteJson(const char* path, const std::vector<Row>& rows,
               PrintRow print_row) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "  ");
    print_row(out, rows[i]);
    std::fprintf(out, "%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

/// End-to-end seconds of both strategies for one scenario.
struct StrategyTiming {
  double factorized_seconds = 0.0;
  double materialized_seconds = 0.0;

  cost::Strategy Winner() const {
    return factorized_seconds < materialized_seconds
               ? cost::Strategy::kFactorize
               : cost::Strategy::kMaterialize;
  }
  double Speedup() const {
    return materialized_seconds /
           std::max(factorized_seconds, 1e-12);
  }
};

/// Gradient-descent linear regression on the label `y` (every bench
/// scenario's label), `iterations` steps at learning rate 0.05.
inline core::TrainRequest GdRequest(size_t iterations) {
  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = iterations;
  request.gd.learning_rate = 0.05;
  return request;
}

/// Times `request` through `system->Train` under each forced strategy,
/// `repeats` runs each (interleaved to decorrelate cache effects), and
/// returns the medians of `TrainOutcome::seconds`. A request that sets
/// `num_threads` must run with that many threads, capped by the pool.
inline StrategyTiming MeasureTraining(
    core::Amalur* system, const core::IntegrationHandle& integration,
    core::TrainRequest request, size_t repeats) {
  std::vector<double> fact, mat;
  for (size_t r = 0; r < repeats; ++r) {
    for (core::ExecutionStrategy strategy :
         {core::ExecutionStrategy::kFactorize,
          core::ExecutionStrategy::kMaterialize}) {
      request.force_strategy = strategy;
      auto model = system->Train(integration, request);
      AMALUR_CHECK(model.ok()) << model.status();
      if (request.num_threads != 0) {
        AMALUR_CHECK_EQ(model->outcome().threads_used,
                        std::min(request.num_threads,
                                 common::ThreadPool::Global()->parallelism()))
            << "the executor ignored the thread knob";
      }
      (strategy == core::ExecutionStrategy::kFactorize ? fact : mat)
          .push_back(model->outcome().seconds);
    }
  }
  std::sort(fact.begin(), fact.end());
  std::sort(mat.begin(), mat.end());
  return {fact[fact.size() / 2], mat[mat.size() / 2]};
}

/// An integration handle around metadata that `scenario_builder` derived,
/// so a bench can train it through the facade.
inline core::IntegrationHandle HandleOf(metadata::DiMetadata metadata) {
  core::IntegrationHandle handle;
  handle.shape = metadata.shape();
  handle.metadata = std::move(metadata);
  return handle;
}

/// Row scale of the Table I scenarios: full scale, or 1/40 in smoke mode.
inline size_t Table1RowScale() { return SmokeMode() ? 40 : 1; }

/// A Table I scenario integrated through the facade: its own `Amalur` with
/// the scenario's tables registered, and the handle `Integrate` returned.
struct IntegratedScenario {
  std::string slug;
  std::string label;
  std::unique_ptr<core::Amalur> system;
  core::IntegrationHandle integration;
};

/// Registers the scenario's tables on a new `Amalur` and integrates its
/// edges through `Amalur::Integrate`.
inline IntegratedScenario IntegrateScenario(rel::Table1Scenario scenario) {
  // Generic short column names (x0, z0, u0...) need strong evidence to
  // match; a stricter threshold keeps the key match and rejects noise.
  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  IntegratedScenario out{std::move(scenario.slug), std::move(scenario.label),
                         std::make_unique<core::Amalur>(options), {}};
  core::IntegrationSpec spec;
  for (rel::Table& table : scenario.tables) {
    AMALUR_CHECK_OK(out.system->catalog()->RegisterSource(
        {table.name(), std::move(table), "", false}));
  }
  for (const rel::ScenarioEdge& edge : scenario.edges) {
    spec.edges.push_back({edge.left, edge.right, edge.kind});
  }
  auto integration = out.system->Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  out.integration = *std::move(integration);
  return out;
}

/// Feeds one both-strategies measurement into the calibration loop: appends
/// a `(features, timing)` record to the observation log at
/// `ObservationLog::DefaultPath()` ($AMALUR_OBSERVATION_LOG, else
/// observations.jsonl in the working directory). Every harness that
/// measures both strategies routes through this, so any bench run grows the
/// calibration data. Logging failures are reported, never fatal — a
/// read-only working directory must not kill a measurement run.
inline void LogObservation(const cost::CostFeatures& features,
                           size_t iterations, const StrategyTiming& timing,
                           const std::string& scenario) {
  cost::ObservationLog log(cost::ObservationLog::DefaultPath());
  const Status status = log.Append(cost::Observation::FromFeatures(
      features, static_cast<double>(iterations), timing.factorized_seconds,
      timing.materialized_seconds, scenario));
  if (!status.ok()) {
    std::fprintf(stderr, "observation log: %s\n", status.ToString().c_str());
  }
}

}  // namespace bench
}  // namespace amalur

#endif  // AMALUR_BENCH_BENCH_UTIL_H_
