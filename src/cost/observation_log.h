#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "cost/cost_features.h"

/// \file observation_log.h
/// The measurement side of the cost-model calibration loop: every bench (or
/// any run that executes *both* strategies over the same scenario) appends a
/// `(cost features, measured factorized/materialized seconds)` record to an
/// append-only JSONL log. `cost::Calibrator` later fits the analytical
/// model's per-op constants from these records, closing the loop between
/// estimated and observed cost on the hardware the system actually runs on.
///
/// Log format: one JSON object per line, flat numeric/string fields only —
/// greppable, diffable, and mergeable across runs by plain concatenation.
/// Readers are tolerant by design: a corrupt or truncated line (a crashed
/// writer, a partial NFS flush) is skipped and *counted*, never fatal.

namespace amalur {
namespace cost {

/// One calibration data point: the regressor aggregates of the analytical
/// model plus the measured wall-clock of both strategies. The aggregates are
/// stored (rather than the full `CostFeatures`) because they are exactly the
/// quantities the model's cost expressions are linear in — the calibrator
/// rebuilds its design matrix from them without re-deriving metadata.
struct Observation {
  /// Free-form scenario label ("inner_join", "fig5_tr8_fr5", ...).
  std::string scenario;
  /// Gradient-descent iterations the measured runs performed.
  double training_iterations = 0.0;
  /// Columns of the LMM right-hand side (1 for single-model GD).
  double rhs_cols = 1.0;
  /// Σ_k compute_cells_k · (1 − null_ratio_k): the null-discounted
  /// fan-out-deduplicated multiply-add cells of one factorized pass.
  double compute_cells = 0.0;
  /// Σ_k contributed_rows_k: indicator expansion rows per factorized pass.
  double expansion_rows = 0.0;
  /// rT · cT: the dense working set (and the materialization write set).
  double target_cells = 0.0;
  /// Measured end-to-end training seconds of each strategy.
  double factorized_seconds = 0.0;
  double materialized_seconds = 0.0;

  /// Builds the record from extracted features and a measurement.
  static Observation FromFeatures(const CostFeatures& features,
                                  double training_iterations,
                                  double factorized_seconds,
                                  double materialized_seconds,
                                  std::string scenario = "",
                                  double rhs_cols = 1.0);

  /// One JSON object, no trailing newline. Doubles are printed with %.17g so
  /// an append → parse round trip is bit-lossless.
  std::string ToJsonLine() const;

  /// Parses one log line. `kInvalidArgument` on malformed JSON or a missing
  /// required field (readers skip and count such lines).
  static Result<Observation> FromJsonLine(const std::string& line);
};

/// Everything a read recovered from a log file.
struct ObservationLogContents {
  std::vector<Observation> observations;
  /// Corrupt/truncated lines skipped (blank lines are not counted).
  size_t skipped_lines = 0;
};

/// Append-only JSONL observation log. `Append` is serialized under an
/// internal `common::Mutex`, so concurrent writers — e.g.
/// `ParallelFor` workers measuring grid cells — interleave whole
/// lines, never bytes. Each append opens, writes and closes the file, so a
/// crash between observations loses at most the line being written (which
/// readers then skip).
class ObservationLog {
 public:
  explicit ObservationLog(std::string path) : path_(std::move(path)) {}
  ObservationLog(const ObservationLog&) = delete;
  ObservationLog& operator=(const ObservationLog&) = delete;

  const std::string& path() const { return path_; }

  /// Appends one record (creating the file on first use). `kIOError` when
  /// the file cannot be opened or written.
  Status Append(const Observation& observation) EXCLUDES(mu_);

  /// Reads a log file: every parseable record in file order plus the count
  /// of skipped lines. `kNotFound` when the file does not exist.
  static Result<ObservationLogContents> Read(const std::string& path);

  /// The log path benches write to when the user did not pick one
  /// explicitly: `$AMALUR_OBSERVATION_LOG`, else "observations.jsonl" in the
  /// working directory.
  static std::string DefaultPath();

 private:
  const std::string path_;
  common::Mutex mu_;
};

/// Environment variable naming the observation log benches append to.
inline constexpr char kObservationLogEnvVar[] = "AMALUR_OBSERVATION_LOG";

}  // namespace cost
}  // namespace amalur
