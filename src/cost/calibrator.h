#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "cost/amalur_cost_model.h"
#include "cost/observation_log.h"

/// \file calibrator.h
/// The fitting side of the cost-model calibration loop. The analytical
/// model's total costs are *linear* in a reparameterization of its per-op
/// constants, so fitting them from an observation log is a closed-form
/// weighted least squares — no solver dependency, no iteration:
///
///   factorized(I)   = 2·I·R·cells · (flop·fact_cell)
///                   + 2·I·R·rows  ·  flop
///                   +   I·rows    ·  row_overhead
///   materialized(I) =     cells_T ·  mat_cell
///                   + 2·I·R·cells_T · flop
///
/// with unknowns x = (flop, flop·fact_cell, mat_cell, row_overhead); every
/// observation contributes both equations. Equations are weighted by the
/// inverse of their measured seconds so each scenario counts equally and
/// the fit minimizes *relative* error — the decision compares strategy
/// ratios, not absolute wall-clock, so relative accuracy is what buys
/// correct decisions.
///
/// The analytic defaults remain the fallback: a missing, empty, too-small,
/// rank-deficient or sign-degenerate log never breaks planning — it yields
/// the defaults plus a `Status`/`source` string saying exactly why.

namespace amalur {
namespace cost {

/// The calibration the optimizer runs with: constants plus provenance.
struct Calibration {
  /// The constants to build an `AmalurCostModel` from. The workload knob
  /// `training_iterations` is never fitted — it keeps the caller's value.
  AmalurCostModelOptions options;
  /// True when the constants came from a fit; false = analytic defaults.
  bool calibrated = false;
  /// Observations the fit consumed (0 when falling back).
  size_t observations_used = 0;
  /// Corrupt log lines skipped while reading (diagnostics only).
  size_t observations_skipped = 0;
  /// Human-readable provenance: "fitted from N observations in '<path>'" or
  /// "analytic defaults (<why the fit fell back>)".
  std::string source = "analytic defaults";
};

/// Closed-form least-squares fitter for `AmalurCostModelOptions` constants.
class Calibrator {
 public:
  /// `defaults` supplies the training horizon and the fallback constants.
  explicit Calibrator(AmalurCostModelOptions defaults = {})
      : defaults_(defaults) {}

  /// Fits the four per-op constants from observations. Errors (the caller
  /// falls back to defaults) are precise:
  ///  * `kInvalidArgument`  — fewer than 2 usable observations (each yields
  ///    2 equations; 4 unknowns need at least 4),
  ///  * `kFailedPrecondition` — rank-deficient design (the observations do
  ///    not vary enough to separate the constants) or a sign-degenerate fit
  ///    (a non-positive flop/cell constant, i.e. the linear model cannot
  ///    explain the measurements).
  /// A small negative row-overhead estimate is clamped to zero instead of
  /// failing: it is an intercept-like term that noise can push below zero
  /// without invalidating the rest of the fit.
  Result<AmalurCostModelOptions> Fit(
      const std::vector<Observation>& observations) const;

  /// Fit from a log file with the fallback built in: never fails. On any
  /// read or fit error the result carries the defaults, `calibrated=false`
  /// and the reason in `source`.
  Calibration CalibrateFromLog(const std::string& log_path) const;

 private:
  AmalurCostModelOptions defaults_;
};

/// Writes a fitted-constants file (flat JSON, one object) so later runs —
/// and other processes — can plan with the calibrated model.
Status WriteCalibrationFile(const std::string& path,
                            const Calibration& calibration);

/// Reads a fitted-constants file. Constants come from the file; the
/// training horizon comes from `defaults`. `kNotFound` / `kInvalidArgument`
/// on a missing or malformed file; an `observations_used` that is not an
/// integer in [0, 2^53] is malformed.
Result<Calibration> LoadCalibrationFile(const std::string& path,
                                        const AmalurCostModelOptions& defaults = {});

/// Resolution order for the constants a planner should use:
///  1. `explicit_path`, when non-empty,
///  2. the `$AMALUR_CALIBRATION_FILE` environment variable,
///  3. `defaults` (the analytic defaults unless the caller set constants).
/// A path that fails to load falls back to `defaults` with the failure
/// recorded in `source` — planning never breaks on a bad calibration file.
/// `Amalur`'s constructor resolves `AmalurOptions::cost` this way; callers
/// that plan with a particular file pass
/// `ResolveCalibration(defaults, path).options` as `AmalurOptions::cost`.
Calibration ResolveCalibration(const AmalurCostModelOptions& defaults = {},
                               const std::string& explicit_path = "");

/// Environment variable naming the fitted-constants file planners consume.
inline constexpr char kCalibrationFileEnvVar[] = "AMALUR_CALIBRATION_FILE";

}  // namespace cost
}  // namespace amalur
