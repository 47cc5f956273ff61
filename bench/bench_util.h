#ifndef AMALUR_BENCH_BENCH_UTIL_H_
#define AMALUR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "core/executor.h"
#include "core/optimizer.h"
#include "cost/cost_features.h"
#include "cost/observation_log.h"
#include "metadata/di_metadata.h"

/// \file bench_util.h
/// Shared measurement plumbing for the per-table/figure bench binaries.
/// Ground truth for every decision experiment is the training run the
/// system itself executes: `core::Executor` with the strategy pinned, timed
/// by the stopwatch behind `TrainOutcome::seconds` (factorized = plan build
/// + training over silo matrices; materialized = target materialization +
/// dense training).

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

/// Seconds of one gradient-descent linear regression over `metadata` (label
/// at target column 0) with `strategy` pinned: the executor run and
/// stopwatch `Amalur::Train` uses, reported as `TrainOutcome::seconds`.
inline double TrainSeconds(const metadata::DiMetadata& metadata,
                           core::ExecutionStrategy strategy,
                           size_t iterations) {
  core::Plan plan;
  plan.strategy = strategy;
  core::TrainRequest request;
  request.label_column = metadata.target_schema().field(0).name;
  request.gd.iterations = iterations;
  request.gd.learning_rate = 0.05;
  auto outcome = core::Executor().Run(metadata, plan, request);
  AMALUR_CHECK(outcome.ok()) << outcome.status();
  return outcome->seconds;
}

/// Medians over `repeats` runs (interleaved to decorrelate cache effects).
inline StrategyTiming MeasureTraining(const metadata::DiMetadata& metadata,
                                      size_t iterations, size_t repeats = 3) {
  std::vector<double> fact, mat;
  for (size_t r = 0; r < repeats; ++r) {
    fact.push_back(TrainSeconds(metadata, core::ExecutionStrategy::kFactorize,
                                iterations));
    mat.push_back(TrainSeconds(metadata, core::ExecutionStrategy::kMaterialize,
                               iterations));
  }
  std::sort(fact.begin(), fact.end());
  std::sort(mat.begin(), mat.end());
  return {fact[fact.size() / 2], mat[mat.size() / 2]};
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
