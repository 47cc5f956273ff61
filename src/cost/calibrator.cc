#include "cost/calibrator.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/status.h"
#include "cost/json_lite.h"

namespace amalur {
namespace cost {

namespace {

using json_lite::FindNumber;
using json_lite::FindString;
using json_lite::FormatDouble;

/// Unknown count of the linear system: (flop, flop·fact_cell, mat_cell,
/// row_overhead).
constexpr size_t kUnknowns = 4;

/// Pivot threshold on the column-scaled normal matrix. Scaled pivots of a
/// well-posed fit sit near 1; duplicated or insufficiently varied
/// observations collapse them to rounding noise (~1e-16), so anything this
/// small is rank deficiency, not conditioning jitter.
constexpr double kPivotEpsilon = 1e-9;

/// 2^53: every integer up to it is a double, and it fits a size_t.
constexpr double kMaxExactCount = 9007199254740992.0;

/// An observation is usable when every regressor and both measurements are
/// strictly meaningful: a zero or negative wall-clock cannot be weighted
/// (and indicates a broken measurement), a zero iteration count prices
/// nothing.
bool Usable(const Observation& o) {
  return o.training_iterations > 0 && o.rhs_cols > 0 && o.target_cells > 0 &&
         o.compute_cells >= 0 && o.expansion_rows >= 0 &&
         o.factorized_seconds > 0 && o.materialized_seconds > 0;
}

}  // namespace

Result<AmalurCostModelOptions> Calibrator::Fit(
    const std::vector<Observation>& observations) const {
  std::vector<const Observation*> usable;
  for (const Observation& o : observations) {
    if (Usable(o)) usable.push_back(&o);
  }
  if (usable.size() < 2) {
    return Status::InvalidArgument(
        "calibration needs >= 2 usable observations (4 unknowns, 2 equations "
        "each); got ", usable.size(), " of ", observations.size());
  }

  // Accumulate the weighted normal equations N x = b directly (2 equations
  // per observation, weight 1/seconds so the fit minimizes relative error
  // and every scenario counts equally regardless of its absolute runtime).
  double normal[kUnknowns][kUnknowns] = {};
  double rhs[kUnknowns] = {};
  const auto add_equation = [&](const double (&row)[kUnknowns], double y) {
    const double w = 1.0 / (y * y);
    for (size_t i = 0; i < kUnknowns; ++i) {
      for (size_t j = 0; j < kUnknowns; ++j) {
        normal[i][j] += w * row[i] * row[j];
      }
      rhs[i] += w * row[i] * y;
    }
  };
  for (const Observation* o : usable) {
    const double i = o->training_iterations;
    const double r = o->rhs_cols;
    const double factorized_row[kUnknowns] = {
        2.0 * i * r * o->expansion_rows,  // flop (indicator expand/reduce)
        2.0 * i * r * o->compute_cells,   // flop·fact_cell (pushed-down MMs)
        0.0,                              // mat_cell
        i * o->expansion_rows,            // row_overhead
    };
    add_equation(factorized_row, o->factorized_seconds);
    const double materialized_row[kUnknowns] = {
        2.0 * i * r * o->target_cells,  // flop (dense GEMM per iteration)
        0.0,                            // flop·fact_cell
        o->target_cells,                // mat_cell (one-time join + export)
        0.0,                            // row_overhead
    };
    add_equation(materialized_row, o->materialized_seconds);
  }

  // Column-scale to a correlation-like matrix so the pivot test is
  // dimensionless (raw columns differ by many orders of magnitude).
  double scale[kUnknowns];
  for (size_t j = 0; j < kUnknowns; ++j) {
    scale[j] = std::sqrt(normal[j][j]);
    if (!(scale[j] > 0.0)) {
      return Status::FailedPrecondition(
          "rank-deficient calibration: regressor column ", j,
          " is identically zero across the log (observations do not exercise "
          "this constant)");
    }
  }
  double m[kUnknowns][kUnknowns];
  double v[kUnknowns];
  for (size_t i = 0; i < kUnknowns; ++i) {
    for (size_t j = 0; j < kUnknowns; ++j) {
      m[i][j] = normal[i][j] / (scale[i] * scale[j]);
    }
    v[i] = rhs[i] / scale[i];
  }

  // Gaussian elimination with partial pivoting on the 4x4 scaled system.
  size_t order[kUnknowns] = {0, 1, 2, 3};
  for (size_t col = 0; col < kUnknowns; ++col) {
    size_t best = col;
    for (size_t row = col + 1; row < kUnknowns; ++row) {
      if (std::fabs(m[order[row]][col]) > std::fabs(m[order[best]][col])) {
        best = row;
      }
    }
    std::swap(order[col], order[best]);
    const double pivot = m[order[col]][col];
    if (std::fabs(pivot) < kPivotEpsilon) {
      return Status::FailedPrecondition(
          "rank-deficient calibration: the log's observations do not vary "
          "enough to separate the four constants (scaled pivot ",
          std::fabs(pivot), " < ", kPivotEpsilon,
          "); vary scenario sizes/shapes or iterations and re-measure");
    }
    for (size_t row = col + 1; row < kUnknowns; ++row) {
      const double factor = m[order[row]][col] / pivot;
      for (size_t j = col; j < kUnknowns; ++j) {
        m[order[row]][j] -= factor * m[order[col]][j];
      }
      v[order[row]] -= factor * v[order[col]];
    }
  }
  double z[kUnknowns];
  for (size_t col = kUnknowns; col-- > 0;) {
    double sum = v[order[col]];
    for (size_t j = col + 1; j < kUnknowns; ++j) {
      sum -= m[order[col]][j] * z[j];
    }
    z[col] = sum / m[order[col]][col];
  }
  const double flop = z[0] / scale[0];
  const double flop_times_fact_cell = z[1] / scale[1];
  const double mat_cell = z[2] / scale[2];
  double row_overhead = z[3] / scale[3];

  if (!(flop > 0.0) || !(flop_times_fact_cell > 0.0) || !(mat_cell > 0.0)) {
    return Status::FailedPrecondition(
        "degenerate calibration: fitted a non-positive constant (flop=", flop,
        ", flop*fact_cell=", flop_times_fact_cell, ", mat_cell=", mat_cell,
        "); the linear work model cannot explain these measurements");
  }
  // The per-row overhead behaves like an intercept: measurement noise can
  // push its estimate slightly below zero without invalidating the fit.
  if (row_overhead < 0.0) row_overhead = 0.0;

  AmalurCostModelOptions fitted = defaults_;
  fitted.flop_cost = flop;
  fitted.factorized_cell_cost = flop_times_fact_cell / flop;
  fitted.materialize_cell_cost = mat_cell;
  fitted.factorized_row_overhead = row_overhead;
  fitted.calibrated = true;
  std::ostringstream source;
  source << "least-squares fit over " << usable.size() << " observations";
  fitted.constants_source = source.str();
  return fitted;
}

Calibration Calibrator::CalibrateFromLog(const std::string& log_path) const {
  Calibration calibration;
  calibration.options = defaults_;
  Result<ObservationLogContents> contents = ObservationLog::Read(log_path);
  if (!contents.ok()) {
    calibration.source =
        "analytic defaults (" + contents.status().ToString() + ")";
    calibration.options.constants_source = calibration.source;
    return calibration;
  }
  calibration.observations_skipped = contents->skipped_lines;
  Result<AmalurCostModelOptions> fitted = Fit(contents->observations);
  if (!fitted.ok()) {
    calibration.source =
        "analytic defaults (" + fitted.status().ToString() + ")";
    calibration.options.constants_source = calibration.source;
    return calibration;
  }
  calibration.options = *fitted;
  calibration.calibrated = true;
  calibration.observations_used = contents->observations.size();
  std::ostringstream source;
  source << "fitted from " << calibration.observations_used
         << " observations in '" << log_path << "'";
  if (calibration.observations_skipped > 0) {
    source << " (" << calibration.observations_skipped
           << " corrupt lines skipped)";
  }
  calibration.source = source.str();
  calibration.options.constants_source = calibration.source;
  return calibration;
}

Status WriteCalibrationFile(const std::string& path,
                            const Calibration& calibration) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot write calibration file '", path, "'");
  }
  out << "{\"flop_cost\": " << FormatDouble(calibration.options.flop_cost)
      << ", \"factorized_cell_cost\": "
      << FormatDouble(calibration.options.factorized_cell_cost)
      << ", \"materialize_cell_cost\": "
      << FormatDouble(calibration.options.materialize_cell_cost)
      << ", \"factorized_row_overhead\": "
      << FormatDouble(calibration.options.factorized_row_overhead)
      << ", \"observations_used\": " << calibration.observations_used
      << ", \"source\": \"" << calibration.source << "\"}\n";
  out.flush();
  if (!out.good()) {
    return Status::IOError("short write to calibration file '", path, "'");
  }
  return Status::OK();
}

Result<Calibration> LoadCalibrationFile(const std::string& path,
                                        const AmalurCostModelOptions& defaults) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("calibration file '", path, "' does not exist");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  Calibration calibration;
  calibration.options = defaults;
  struct Field {
    const char* key;
    double* slot;
  };
  const Field fields[] = {
      {"flop_cost", &calibration.options.flop_cost},
      {"factorized_cell_cost", &calibration.options.factorized_cell_cost},
      {"materialize_cell_cost", &calibration.options.materialize_cell_cost},
      {"factorized_row_overhead",
       &calibration.options.factorized_row_overhead},
  };
  for (const Field& field : fields) {
    if (!FindNumber(text, field.key, field.slot)) {
      return Status::InvalidArgument("calibration file '", path,
                                     "': missing or non-finite '", field.key,
                                     "'");
    }
  }
  if (calibration.options.flop_cost <= 0 ||
      calibration.options.factorized_cell_cost <= 0 ||
      calibration.options.materialize_cell_cost <= 0 ||
      calibration.options.factorized_row_overhead < 0) {
    return Status::InvalidArgument(
        "calibration file '", path,
        "': constants must be positive (row overhead >= 0)");
  }
  // Optional; when present it must be a finite number and a count a double
  // holds exactly, so the conversion below is defined.
  if (text.find("\"observations_used\"") != std::string::npos) {
    double used = 0.0;
    if (!FindNumber(text, "observations_used", &used) ||
        !(used >= 0 && used <= kMaxExactCount && used == std::floor(used))) {
      return Status::InvalidArgument("calibration file '", path,
                                     "': 'observations_used' must be an "
                                     "integer in [0, 2^53]");
    }
    calibration.observations_used = static_cast<size_t>(used);
  }
  std::string file_source;
  if (FindString(text, "source", &file_source) && !file_source.empty()) {
    calibration.source = file_source;
  } else {
    calibration.source = "calibration file '" + path + "'";
  }
  calibration.calibrated = true;
  calibration.options.calibrated = true;
  calibration.options.constants_source = calibration.source;
  return calibration;
}

Calibration ResolveCalibration(const AmalurCostModelOptions& defaults,
                               const std::string& explicit_path) {
  std::string path = explicit_path;
  if (path.empty()) {
    const char* env = std::getenv(kCalibrationFileEnvVar);
    if (env != nullptr) path = env;
  }
  if (path.empty()) {
    Calibration calibration;
    calibration.options = defaults;
    return calibration;  // analytic defaults, calibrated=false
  }
  Result<Calibration> loaded = LoadCalibrationFile(path, defaults);
  if (!loaded.ok()) {
    // Planning never breaks on a bad calibration file: fall back to the
    // defaults and carry the reason into every plan explanation.
    Calibration calibration;
    calibration.options = defaults;
    calibration.source =
        "analytic defaults (" + loaded.status().ToString() + ")";
    calibration.options.calibrated = false;
    calibration.options.constants_source = calibration.source;
    return calibration;
  }
  return *std::move(loaded);
}

}  // namespace cost
}  // namespace amalur
