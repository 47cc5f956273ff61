#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file workloads.h
/// The three workloads. Each runs closed-loop ops through the public facade
/// (`Amalur::Integrate`/`Train`, `ModelHandle::Deploy`,
/// `ModelRegistry::Get`/`Redeploy`, `DeployedModel::PredictBatch`), checks
/// every op's output, and returns its metrics. With tracing on, every other
/// op is additionally replayed layer by layer (replay.h) and the metrics are
/// the per-layer ones.

namespace facadebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string trace_out;
  /// Hardware threads; serve-refresh runs nproc - 1 readers.
  size_t nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind a median or percentile; 0 for counts and ratios.
  size_t samples = 0;
};

struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  /// Traced runs: every replay reproduced the facade's results.
  bool replay_equal = true;
  std::vector<Metric> metrics;
  /// Settings the workload ran with (matcher, resolver, pool widths, sizes).
  std::vector<std::string> settings;
  /// The first few failure messages.
  std::vector<std::string> failures;
};

const std::vector<std::string>& WorkloadNames();

/// Runs `options.workload`; the result's metrics are the end-to-end ones
/// (tracing off) or the per-layer ones (tracing on).
RunResult RunWorkload(const RunOptions& options);

}  // namespace facadebench
