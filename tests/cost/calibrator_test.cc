// The fitting side of the calibration loop: a synthetic log generated from
// known constants must be recovered to within 1%; logs that cannot support
// a fit (missing, empty, one-row, rank-deficient, sign-degenerate) must
// fall back to the analytic defaults with a Status/source string explaining
// why; the fitted-constants file must round-trip; and resolution must honor
// explicit path > $AMALUR_CALIBRATION_FILE > defaults.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cost/calibrator.h"
#include "cost/observation_log.h"

namespace amalur {
namespace cost {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

AmalurCostModelOptions TrueConstants() {
  AmalurCostModelOptions truth;
  truth.flop_cost = 2.0e-9;
  truth.factorized_cell_cost = 1.5;
  truth.materialize_cell_cost = 1.2e-8;
  truth.factorized_row_overhead = 4.0e-9;
  return truth;
}

/// Generates the noiseless measurement the analytical model predicts for
/// `truth` — exactly the linear expressions the calibrator inverts.
Observation Synthetic(const std::string& name, double iterations,
                      double compute_cells, double expansion_rows,
                      double target_cells,
                      const AmalurCostModelOptions& truth) {
  Observation o;
  o.scenario = name;
  o.training_iterations = iterations;
  o.compute_cells = compute_cells;
  o.expansion_rows = expansion_rows;
  o.target_cells = target_cells;
  const double i = iterations;
  const double r = o.rhs_cols;
  o.factorized_seconds =
      2.0 * i * r * compute_cells * truth.flop_cost *
          truth.factorized_cell_cost +
      2.0 * i * r * expansion_rows * truth.flop_cost +
      i * expansion_rows * truth.factorized_row_overhead;
  o.materialized_seconds = target_cells * truth.materialize_cell_cost +
                           2.0 * i * r * target_cells * truth.flop_cost;
  return o;
}

/// Varied sizes AND horizons: a single shared horizon leaves the one-time
/// materialization cost inseparable from the per-iteration constants.
std::vector<Observation> SyntheticLog(const AmalurCostModelOptions& truth) {
  return {
      Synthetic("a5", 5, 4.0e5, 3.0e4, 1.1e6, truth),
      Synthetic("a20", 20, 4.0e5, 3.0e4, 1.1e6, truth),
      Synthetic("b5", 5, 9.0e5, 4.0e4, 9.0e5, truth),
      Synthetic("b20", 20, 9.0e5, 4.0e4, 9.0e5, truth),
      Synthetic("c60", 60, 2.5e6, 4.0e4, 2.5e6, truth),
      Synthetic("d10", 10, 1.2e6, 8.0e4, 2.1e6, truth),
  };
}

void ExpectWithinOnePercent(double actual, double expected, const char* what) {
  EXPECT_NEAR(actual, expected, 0.01 * std::fabs(expected)) << what;
}

TEST(CalibratorTest, RecoversKnownConstantsWithinOnePercent) {
  const AmalurCostModelOptions truth = TrueConstants();
  auto fitted = Calibrator().Fit(SyntheticLog(truth));
  ASSERT_TRUE(fitted.ok()) << fitted.status();
  ExpectWithinOnePercent(fitted->flop_cost, truth.flop_cost, "flop_cost");
  ExpectWithinOnePercent(fitted->factorized_cell_cost,
                         truth.factorized_cell_cost, "factorized_cell_cost");
  ExpectWithinOnePercent(fitted->materialize_cell_cost,
                         truth.materialize_cell_cost, "materialize_cell_cost");
  ExpectWithinOnePercent(fitted->factorized_row_overhead,
                         truth.factorized_row_overhead,
                         "factorized_row_overhead");
  EXPECT_TRUE(fitted->calibrated);
  EXPECT_NE(fitted->constants_source.find("least-squares"), std::string::npos);
}

TEST(CalibratorTest, PreservesWorkloadKnobsFromDefaults) {
  AmalurCostModelOptions defaults;
  defaults.training_iterations = 77.0;
  auto fitted = Calibrator(defaults).Fit(SyntheticLog(TrueConstants()));
  ASSERT_TRUE(fitted.ok()) << fitted.status();
  // Workload knobs are the caller's, never fitted.
  EXPECT_DOUBLE_EQ(fitted->training_iterations, 77.0);
}

TEST(CalibratorTest, EmptyLogIsInvalidArgument) {
  auto fitted = Calibrator().Fit({});
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument);
}

TEST(CalibratorTest, OneObservationIsInvalidArgument) {
  auto fitted =
      Calibrator().Fit({Synthetic("only", 20, 4e5, 3e4, 1e6, TrueConstants())});
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument);
}

TEST(CalibratorTest, UnusableObservationsDoNotCount) {
  Observation broken = Synthetic("broken", 20, 4e5, 3e4, 1e6, TrueConstants());
  broken.factorized_seconds = 0.0;  // a zero wall-clock is a broken run
  auto fitted = Calibrator().Fit({broken, broken, broken});
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument);
}

TEST(CalibratorTest, DuplicatedObservationsAreRankDeficient) {
  const Observation one = Synthetic("dup", 20, 4e5, 3e4, 1e6, TrueConstants());
  auto fitted = Calibrator().Fit({one, one, one, one, one, one});
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(fitted.status().ToString().find("rank-deficient"),
            std::string::npos);
}

TEST(CalibratorTest, SingleSharedHorizonIsRankDeficient) {
  // Structurally, with every observation at the same iteration count I the
  // null direction (1, 0, -2I, -2) exists: flop trades against the one-time
  // materialization cost and the row overhead. Varied sizes alone cannot
  // save the fit — only a second horizon can.
  const AmalurCostModelOptions truth = TrueConstants();
  auto fitted = Calibrator().Fit({
      Synthetic("a", 20, 4.0e5, 3.0e4, 1.1e6, truth),
      Synthetic("b", 20, 9.0e5, 4.0e4, 9.0e5, truth),
      Synthetic("c", 20, 2.5e6, 4.0e4, 2.5e6, truth),
      Synthetic("d", 20, 1.2e6, 8.0e4, 2.1e6, truth),
  });
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CalibratorTest, NonPositiveFittedConstantIsDegenerate) {
  // Measurements generated from a negative flop cost are linearly
  // consistent (every synthetic wall-clock is still positive), so the fit
  // succeeds numerically — and must then be rejected on sign.
  AmalurCostModelOptions impossible = TrueConstants();
  impossible.flop_cost = -2.0e-10;
  impossible.factorized_cell_cost = -15.0;  // keeps flop*fact_cell > 0
  impossible.materialize_cell_cost = 2.0e-8;
  auto fitted = Calibrator().Fit({
      Synthetic("a5", 5, 4.0e5, 3.0e4, 1.1e6, impossible),
      Synthetic("a20", 20, 4.0e5, 3.0e4, 1.1e6, impossible),
      Synthetic("b5", 5, 9.0e5, 4.0e4, 9.0e5, impossible),
      Synthetic("b20", 20, 9.0e5, 4.0e4, 9.0e5, impossible),
  });
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(fitted.status().ToString().find("non-positive"),
            std::string::npos);
}

TEST(CalibratorTest, CalibrateFromMissingLogFallsBackWithReason) {
  AmalurCostModelOptions defaults;
  const Calibration calibration =
      Calibrator(defaults).CalibrateFromLog(TempPath("no_such.jsonl"));
  EXPECT_FALSE(calibration.calibrated);
  EXPECT_DOUBLE_EQ(calibration.options.flop_cost, defaults.flop_cost);
  EXPECT_NE(calibration.source.find("analytic defaults"), std::string::npos);
  EXPECT_NE(calibration.source.find("does not exist"), std::string::npos);
  EXPECT_EQ(calibration.options.constants_source, calibration.source);
}

TEST(CalibratorTest, CalibrateFromLogFitsAndCountsCorruptLines) {
  const std::string path = TempPath("calibrate_from_log.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    for (const Observation& o : SyntheticLog(TrueConstants())) {
      out << o.ToJsonLine() << "\n";
    }
    out << "corrupt trailing line from a killed writer\n";
  }
  const Calibration calibration = Calibrator().CalibrateFromLog(path);
  EXPECT_TRUE(calibration.calibrated);
  EXPECT_EQ(calibration.observations_used, 6u);
  EXPECT_EQ(calibration.observations_skipped, 1u);
  EXPECT_NE(calibration.source.find("fitted from 6 observations"),
            std::string::npos);
  EXPECT_NE(calibration.source.find("1 corrupt lines skipped"),
            std::string::npos);
  EXPECT_TRUE(calibration.options.calibrated);
  ExpectWithinOnePercent(calibration.options.materialize_cell_cost,
                         TrueConstants().materialize_cell_cost,
                         "materialize_cell_cost");
}

TEST(CalibratorTest, CalibrationFileRoundTrips) {
  const std::string path = TempPath("calibration_roundtrip.json");
  Calibration fitted;
  fitted.calibrated = true;
  fitted.observations_used = 14;
  fitted.source = "fitted from 14 observations in 'observations.jsonl'";
  fitted.options = TrueConstants();
  fitted.options.calibrated = true;
  ASSERT_TRUE(WriteCalibrationFile(path, fitted).ok());

  auto loaded = LoadCalibrationFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->calibrated);
  EXPECT_EQ(loaded->observations_used, 14u);
  EXPECT_EQ(loaded->source, fitted.source);
  EXPECT_EQ(loaded->options.flop_cost, fitted.options.flop_cost);
  EXPECT_EQ(loaded->options.factorized_cell_cost,
            fitted.options.factorized_cell_cost);
  EXPECT_EQ(loaded->options.materialize_cell_cost,
            fitted.options.materialize_cell_cost);
  EXPECT_EQ(loaded->options.factorized_row_overhead,
            fitted.options.factorized_row_overhead);
}

TEST(CalibratorTest, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_EQ(LoadCalibrationFile(TempPath("absent.json")).status().code(),
            StatusCode::kNotFound);

  const std::string bad = TempPath("bad_calibration.json");
  {
    std::ofstream out(bad, std::ios::trunc);
    out << "{\"flop_cost\": -1.0, \"factorized_cell_cost\": 1.0, "
           "\"materialize_cell_cost\": 1.0, \"factorized_row_overhead\": 0}\n";
  }
  EXPECT_EQ(LoadCalibrationFile(bad).status().code(),
            StatusCode::kInvalidArgument);

  const std::string incomplete = TempPath("incomplete_calibration.json");
  {
    std::ofstream out(incomplete, std::ios::trunc);
    out << "{\"flop_cost\": 1e-9}\n";
  }
  EXPECT_EQ(LoadCalibrationFile(incomplete).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CalibratorTest, ObservationsUsedMustBeAnExactCount) {
  const std::string path = TempPath("observations_used_calibration.json");
  const auto write = [&](const char* used) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"flop_cost\": 1e-9, \"factorized_cell_cost\": 1.0, "
           "\"materialize_cell_cost\": 1e-8, \"factorized_row_overhead\": 0, "
           "\"observations_used\": "
        << used << "}\n";
  };
  for (const char* used : {"1e300", "1e20", "2.5", "-3", "9007199254740994",
                           "1e400", "-1e400", "\"14\""}) {
    SCOPED_TRACE(used);
    write(used);
    const Result<Calibration> loaded = LoadCalibrationFile(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find("observations_used"),
              std::string::npos)
        << loaded.status();
    // Planning falls back to the defaults and says why.
    const Calibration resolved = ResolveCalibration({}, path);
    EXPECT_FALSE(resolved.calibrated);
    EXPECT_NE(resolved.source.find("observations_used"), std::string::npos)
        << resolved.source;
  }
  for (const auto& [used, count] :
       {std::pair<const char*, size_t>{"0", 0}, {"14", 14},
        {"9007199254740992", size_t{1} << 53}}) {
    SCOPED_TRACE(used);
    write(used);
    const Result<Calibration> loaded = LoadCalibrationFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->observations_used, count);
  }
}

TEST(CalibratorTest, ResolveCalibrationPrecedence) {
  const std::string explicit_path = TempPath("resolve_explicit.json");
  const std::string env_path = TempPath("resolve_env.json");
  Calibration a;
  a.calibrated = true;
  a.source = "explicit-file-constants";
  a.options = TrueConstants();
  ASSERT_TRUE(WriteCalibrationFile(explicit_path, a).ok());
  Calibration b = a;
  b.source = "env-file-constants";
  b.options.flop_cost = 3.0e-9;
  ASSERT_TRUE(WriteCalibrationFile(env_path, b).ok());

  setenv(kCalibrationFileEnvVar, env_path.c_str(), 1);
  // 1. The explicit path (the TrainRequest knob) beats the environment.
  Calibration resolved = ResolveCalibration({}, explicit_path);
  EXPECT_TRUE(resolved.calibrated);
  EXPECT_EQ(resolved.source, "explicit-file-constants");
  // 2. With no explicit path, the environment file decides.
  resolved = ResolveCalibration();
  EXPECT_TRUE(resolved.calibrated);
  EXPECT_EQ(resolved.source, "env-file-constants");
  EXPECT_DOUBLE_EQ(resolved.options.flop_cost, 3.0e-9);
  unsetenv(kCalibrationFileEnvVar);
  // 3. Nothing configured: analytic defaults, explicitly labeled as such.
  resolved = ResolveCalibration();
  EXPECT_FALSE(resolved.calibrated);
  EXPECT_EQ(resolved.source, "analytic defaults");
}

TEST(CalibratorTest, ResolveNeverFailsOnBadFile) {
  AmalurCostModelOptions defaults;
  const Calibration resolved =
      ResolveCalibration(defaults, TempPath("resolve_absent.json"));
  EXPECT_FALSE(resolved.calibrated);
  EXPECT_DOUBLE_EQ(resolved.options.flop_cost, defaults.flop_cost);
  EXPECT_NE(resolved.source.find("analytic defaults"), std::string::npos);
  EXPECT_NE(resolved.source.find("does not exist"), std::string::npos);
}

}  // namespace
}  // namespace cost
}  // namespace amalur
