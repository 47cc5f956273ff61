// Reproduces paper Figure 5 empirically: the factorize/materialize decision
// plane over tuple ratio (join fan-out) x feature ratio (dimension width).
// For every grid cell the harness measures both strategies and prints the
// measured winner plus both estimators' predictions, then summarizes the
// three areas: I (clearly factorize), II (clearly materialize) and III (the
// contested band where the heuristic of [27] loses cases the DI-metadata
// cost model recovers).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cost/amalur_cost_model.h"
#include "cost/calibrator.h"
#include "cost/observation_log.h"
#include "testing/generator.h"
#include "testing/morpheus_heuristic.h"
#include "testing/scenario_builder.h"

namespace {

using namespace amalur;

char Letter(cost::Strategy s) {
  return s == cost::Strategy::kFactorize ? 'F' : 'M';
}

/// One measured grid cell, kept so the calibrated model can re-predict the
/// whole plane without re-measuring.
struct Cell {
  cost::CostFeatures features;
  cost::Strategy measured = cost::Strategy::kMaterialize;
};

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t kIterations = smoke ? 5 : 20;
  const size_t kAltIterations = smoke ? 2 : 5;
  const size_t kOtherRows = smoke ? 200 : 2000;
  const size_t kRepeats = smoke ? 1 : 3;
  const double tuple_ratios[] = {1, 2, 3, 5, 8, 12};
  const double feature_ratios[] = {1, 2, 5, 10, 20};

  core::Amalur system;
  cost::MorpheusHeuristic morpheus;
  cost::AmalurCostModelOptions options;
  options.training_iterations = static_cast<double>(kIterations);
  cost::AmalurCostModel amalur_model(options);

  std::printf("=== Figure 5: decision areas over TR x FR ===\n");
  std::printf("(left join, rS2=%zu, cS1=2; cell = measured/morpheus/amalur%s)\n\n",
              kOtherRows, smoke ? "; SMOKE MODE — sizes scaled down" : "");
  std::printf("%8s |", "TR \\ FR");
  for (double fr : feature_ratios) std::printf("  %5.0f  |", fr);
  std::printf("\n---------+");
  for (size_t i = 0; i < std::size(feature_ratios); ++i) {
    std::printf("---------+");
  }
  std::printf("\n");

  std::vector<Cell> cells;
  int morpheus_correct = 0, amalur_correct = 0, total = 0;
  int area_one = 0, area_two = 0, area_three = 0;
  for (double tr : tuple_ratios) {
    std::printf("%8.0f |", tr);
    for (double fr : feature_ratios) {
      rel::SiloPairSpec spec;
      spec.kind = rel::JoinKind::kLeftJoin;
      spec.other_rows = kOtherRows;
      spec.base_rows = static_cast<size_t>(tr * kOtherRows);
      spec.base_features = 2;
      spec.other_features = static_cast<size_t>(fr * 2);
      spec.seed = static_cast<uint64_t>(tr * 1000 + fr);
      rel::SiloPair pair = rel::GenerateSiloPair(spec);
      auto metadata = factorized::DerivePairMetadata(pair);
      AMALUR_CHECK(metadata.ok()) << metadata.status();
      const core::IntegrationHandle integration =
          bench::HandleOf(*std::move(metadata));
      const cost::CostFeatures features =
          cost::CostFeatures::FromMetadata(integration.metadata);

      const bench::StrategyTiming timing = bench::MeasureTraining(
          &system, integration, bench::GdRequest(kIterations), kRepeats);
      char cell_name[48];
      std::snprintf(cell_name, sizeof(cell_name), "fig5_tr%.0f_fr%.0f", tr,
                    fr);
      bench::LogObservation(features, kIterations, timing, cell_name);
      // Second horizon for the calibration log only (single-repeat): a
      // single shared iteration count cannot separate the one-time
      // materialization cost from the per-iteration constants, and the fit
      // would be rank-deficient.
      bench::LogObservation(
          features, kAltIterations,
          bench::MeasureTraining(&system, integration,
                                 bench::GdRequest(kAltIterations), 1),
          std::string(cell_name) + "_short_horizon");
      const cost::Strategy measured = timing.Winner();
      cells.push_back({features, measured});
      const cost::Strategy morpheus_says = morpheus.Decide(features);
      const cost::Strategy amalur_says = amalur_model.Decide(features);
      std::printf("  %c/%c/%c  |", Letter(measured), Letter(morpheus_says),
                  Letter(amalur_says));

      total += 1;
      morpheus_correct += morpheus_says == measured ? 1 : 0;
      amalur_correct += amalur_says == measured ? 1 : 0;
      // Areas: both estimators agree with the measurement -> easy area
      // (I for factorize, II for materialize); disagreement -> area III.
      if (morpheus_says == measured && amalur_says == measured) {
        (measured == cost::Strategy::kFactorize ? area_one : area_two) += 1;
      } else {
        area_three += 1;
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\nAccuracy vs measured winner: Morpheus %.0f%%, Amalur %.0f%% "
      "(%d cells)\n",
      100.0 * morpheus_correct / total, 100.0 * amalur_correct / total, total);
  std::printf(
      "Decision areas: I (easy factorize) = %d, II (easy materialize) = %d, "
      "III (contested) = %d\n",
      area_one, area_two, area_three);

  // After-calibration pass: fit constants to the observation log this run
  // just extended (plus whatever earlier bench runs contributed) and
  // re-predict the plane from the stored cells — no re-measuring.
  const cost::Calibration calibration =
      cost::Calibrator(options).CalibrateFromLog(
          cost::ObservationLog::DefaultPath());
  std::printf("\nCalibration: %s\n", calibration.source.c_str());
  cost::AmalurCostModel calibrated_model(calibration.options);
  int calibrated_correct = 0;
  size_t cell_index = 0;
  std::printf("Calibrated decision map (measured/calibrated):\n%8s |",
              "TR \\ FR");
  for (double fr : feature_ratios) std::printf("  %5.0f  |", fr);
  std::printf("\n");
  for (double tr : tuple_ratios) {
    std::printf("%8.0f |", tr);
    for (size_t f = 0; f < std::size(feature_ratios); ++f, ++cell_index) {
      const Cell& cell = cells[cell_index];
      const cost::Strategy calibrated_says =
          calibrated_model.Decide(cell.features);
      calibrated_correct += calibrated_says == cell.measured ? 1 : 0;
      std::printf("   %c/%c   |", Letter(cell.measured),
                  Letter(calibrated_says));
    }
    std::printf("\n");
  }
  std::printf("Accuracy vs measured winner after calibration: %.0f%% "
              "(was %.0f%%)\n",
              100.0 * calibrated_correct / total,
              100.0 * amalur_correct / total);
  return 0;
}
