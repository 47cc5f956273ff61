// Reproduces paper Table I as a performance experiment: for each dataset
// relationship — the four pairwise relationships (full outer join, inner
// join, left join, union) plus the two graph shapes the edge-list spec
// unlocks (snowflake, union-of-stars) — the harness runs the full pipeline:
// automatic integration through the Amalur facade, then factorized vs
// materialized training forced through the same Train path. It prints
// per-scenario timings, the measured winner and the optimizer's prediction,
// and emits machine-readable `BENCH_table1.json` so the decision quality
// and perf trajectory can be tracked across commits. The paper's
// qualitative claim: factorization wins where integration duplicates data
// (join fan-out, chained or sharded), materialization wins where it does
// not (unions, 1:1 joins).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/amalur.h"
#include "cost/amalur_cost_model.h"
#include "cost/calibrator.h"
#include "cost/cost_features.h"
#include "cost/observation_log.h"
#include "relational/generator.h"

namespace {

using namespace amalur;

/// Smoke mode divides every scenario's row counts by this factor (and drops
/// repeats/iterations) so CI can run the full scenario table in seconds.
size_t RowScale() { return bench::SmokeMode() ? 40 : 1; }

/// A fully prepared scenario: its own facade instance with the sources
/// registered and the integration derived.
struct PreparedScenario {
  std::string name;  // table label
  std::string slug;  // json identifier
  std::unique_ptr<core::Amalur> system;
  core::IntegrationHandle integration;
};

core::Amalur* NewSystem(std::vector<PreparedScenario>* out,
                        const char* name, const char* slug) {
  // Generic short column names (x0, z0, u0...) need strong evidence to
  // match; a stricter threshold keeps the key match and rejects noise.
  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  out->push_back({name, slug, std::make_unique<core::Amalur>(options), {}});
  return out->back().system.get();
}

void FinishScenario(std::vector<PreparedScenario>* out,
                    const core::IntegrationSpec& spec) {
  auto integration = out->back().system->Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  out->back().integration = *std::move(integration);
}

std::vector<PreparedScenario> MakeScenarios() {
  std::vector<PreparedScenario> out;
  // Smoke-scaled sizes: every scenario row survives, just smaller.
  const auto scaled = [](size_t rows) {
    return std::max<size_t>(2, rows / RowScale());
  };

  const auto pair_scenario = [&out, &scaled](const char* name, const char* slug,
                                             rel::SiloPairSpec spec) {
    spec.base_rows = scaled(spec.base_rows);
    spec.other_rows = scaled(spec.other_rows);
    core::Amalur* system = NewSystem(&out, name, slug);
    rel::SiloPair pair = rel::GenerateSiloPair(spec);
    AMALUR_CHECK_OK(
        system->catalog()->RegisterSource({"S1", pair.base, "silo-1", false}));
    AMALUR_CHECK_OK(
        system->catalog()->RegisterSource({"S2", pair.other, "silo-2", false}));
    core::IntegrationSpec integration_spec;
    integration_spec.sources = {"S1", "S2"};
    integration_spec.relationships = {spec.kind};
    FinishScenario(&out, integration_spec);
  };

  // Example 1: full outer join — partially overlapping rows and columns
  // (feature augmentation / general FL).
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kFullOuterJoin;
    spec.base_rows = 20000;
    spec.other_rows = 8000;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.shared_features = 2;
    spec.match_fraction = 0.5;
    spec.row_overlap = 0.5;
    spec.seed = 11;
    pair_scenario("1 full outer join", "full_outer_join", spec);
  }
  // Example 2: inner join — shared sample space (VFL).
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kInnerJoin;
    spec.base_rows = 20000;
    spec.other_rows = 20000;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.match_fraction = 1.0;
    spec.row_overlap = 1.0;
    spec.seed = 12;
    pair_scenario("2 inner join     ", "inner_join", spec);
  }
  // Example 3: left join with fan-out — the classic feature-augmentation
  // star schema (only the base holds the label).
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kLeftJoin;
    spec.base_rows = 40000;
    spec.other_rows = 4000;  // fan-out 10
    spec.base_features = 2;
    spec.other_features = 60;
    spec.seed = 13;
    pair_scenario("3 left join      ", "left_join", spec);
  }
  // Example 4: union — shared feature space, disjoint rows (HFL).
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kUnion;
    spec.base_rows = 20000;
    spec.other_rows = 20000;
    spec.base_features = 0;
    spec.other_features = 0;
    spec.shared_features = 30;
    spec.match_fraction = 0.0;
    spec.row_overlap = 0.0;
    spec.other_has_label = true;
    spec.seed = 14;
    pair_scenario("4 union          ", "union", spec);
  }
  // Example 5: snowflake — fact -> dim -> sub-dim chain; redundancy
  // compounds along the composed fan-out (edge-list spec form).
  {
    rel::SnowflakeSpec spec;
    spec.fact_rows = scaled(40000);
    spec.fact_features = 2;
    spec.level_rows = {scaled(2000), scaled(50)};
    spec.level_features = {30, 20};
    spec.seed = 15;
    rel::Snowflake snowflake = rel::GenerateSnowflake(spec);
    core::Amalur* system = NewSystem(&out, "5 snowflake      ", "snowflake");
    for (const rel::Table& table : snowflake.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                              {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  // Example 6: union-of-stars — two horizontally partitioned fact shards,
  // each a star with its own dimension (edge-list spec form).
  {
    rel::UnionOfStarsSpec spec;
    spec.shards = 2;
    spec.fact_rows = scaled(20000);
    spec.fact_features = 2;
    spec.dim_rows = scaled(1000);
    spec.dim_features = 30;
    spec.seed = 16;
    rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);
    core::Amalur* system =
        NewSystem(&out, "6 union of stars ", "union_of_stars");
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                              {"fact0", "fact1", rel::JoinKind::kUnion},
                              {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  // Example 7: conformed snowflake — one shared dimension referenced
  // through two intermediate dimensions (a DAG, not a tree); the shared
  // silo's columns integrate once and its fan-out compounds through both
  // parent chains.
  {
    rel::ConformedSnowflakeSpec spec;
    spec.fact_rows = scaled(40000);
    spec.fact_features = 2;
    spec.branches = 2;
    spec.branch_rows = scaled(1000);
    spec.branch_features = 20;
    spec.shared_rows = scaled(50);
    spec.shared_features = 20;
    spec.seed = 17;
    rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);
    core::Amalur* system =
        NewSystem(&out, "7 conformed snflk", "conformed_snowflake");
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact", "branch0", rel::JoinKind::kLeftJoin},
                              {"fact", "branch1", rel::JoinKind::kLeftJoin},
                              {"branch0", "shared", rel::JoinKind::kLeftJoin},
                              {"branch1", "shared", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  return out;
}

/// Trains under a forced strategy `repeats` times and returns the median
/// training seconds, all through `Amalur::Train`.
double MedianTrainSeconds(core::Amalur* system,
                          const core::IntegrationHandle& integration,
                          core::TrainRequest request,
                          core::ExecutionStrategy strategy, size_t repeats) {
  request.force_strategy = strategy;
  std::vector<double> seconds;
  for (size_t r = 0; r < repeats; ++r) {
    auto model = system->Train(integration, request);
    AMALUR_CHECK(model.ok()) << model.status();
    seconds.push_back(model->outcome().seconds);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

struct Measurement {
  std::string scenario;
  std::string shape;
  double factorized_seconds = 0.0;
  double materialized_seconds = 0.0;
  std::string measured;              // measured winner
  std::string predicted;             // optimizer's choice, analytic defaults
  std::string predicted_calibrated;  // optimizer's choice, fitted constants
  size_t target_rows = 0;
  size_t target_cols = 0;
  cost::CostFeatures features;
};

void WriteJson(const std::vector<Measurement>& measurements,
               const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(out,
                 "  {\"scenario\": \"%s\", \"shape\": \"%s\", "
                 "\"factorized_seconds\": %.6f, \"materialized_seconds\": "
                 "%.6f, \"speedup\": %.3f, \"measured\": \"%s\", "
                 "\"predicted\": \"%s\", \"predicted_calibrated\": \"%s\", "
                 "\"target_rows\": %zu, \"target_cols\": %zu}%s\n",
                 m.scenario.c_str(), m.shape.c_str(), m.factorized_seconds,
                 m.materialized_seconds,
                 m.materialized_seconds / std::max(m.factorized_seconds, 1e-12),
                 m.measured.c_str(), m.predicted.c_str(),
                 m.predicted_calibrated.c_str(), m.target_rows, m.target_cols,
                 i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t kIterations = smoke ? 5 : 20;
  const size_t kAltIterations = smoke ? 2 : 5;
  const size_t kRepeats = smoke ? 1 : 3;
  cost::AmalurCostModelOptions options;
  options.training_iterations = static_cast<double>(kIterations);
  cost::AmalurCostModel model(options);

  std::printf("=== Table I scenarios: factorized vs materialized training ===\n");
  std::printf("(GD linear regression, %zu iterations; medians of %zu run%s;\n"
              " each scenario integrated through Amalur::Integrate(spec)%s)\n\n",
              kIterations, kRepeats, kRepeats == 1 ? "" : "s",
              smoke ? "; SMOKE MODE — sizes scaled down" : "");
  std::printf("%-18s %10s %10s %8s %9s %9s %10s %15s\n", "scenario",
              "fact (s)", "mat (s)", "speedup", "measured", "amalur",
              "T shape", "graph");

  std::vector<Measurement> measurements;
  for (PreparedScenario& scenario : MakeScenarios()) {
    core::TrainRequest request;
    request.label_column = "y";
    request.gd.iterations = kIterations;
    request.gd.learning_rate = 0.05;

    const double fact_seconds = MedianTrainSeconds(
        scenario.system.get(), scenario.integration, request,
        core::ExecutionStrategy::kFactorize, kRepeats);
    const double mat_seconds = MedianTrainSeconds(
        scenario.system.get(), scenario.integration, request,
        core::ExecutionStrategy::kMaterialize, kRepeats);

    const metadata::DiMetadata& md = scenario.integration.metadata;
    const cost::CostFeatures features = cost::CostFeatures::FromMetadata(md);
    bench::LogObservation(features, kIterations,
                          {fact_seconds, mat_seconds}, scenario.slug);
    // Second, shorter training horizon, logged for calibration only: the
    // materialization cost is a one-time cost amortized over iterations, so
    // a log where every observation shares one horizon cannot separate the
    // per-iteration constants from the one-time ones (the calibrator
    // rejects it as rank-deficient).
    core::TrainRequest alt_request = request;
    alt_request.gd.iterations = kAltIterations;
    bench::LogObservation(
        features, kAltIterations,
        {MedianTrainSeconds(scenario.system.get(), scenario.integration,
                            alt_request, core::ExecutionStrategy::kFactorize,
                            kRepeats),
         MedianTrainSeconds(scenario.system.get(), scenario.integration,
                            alt_request, core::ExecutionStrategy::kMaterialize,
                            kRepeats)},
        scenario.slug + "_short_horizon");
    Measurement m;
    m.scenario = scenario.slug;
    m.shape = metadata::IntegrationShapeToString(md.shape());
    m.factorized_seconds = fact_seconds;
    m.materialized_seconds = mat_seconds;
    m.measured = cost::StrategyToString(fact_seconds < mat_seconds
                                            ? cost::Strategy::kFactorize
                                            : cost::Strategy::kMaterialize);
    m.predicted = cost::StrategyToString(model.Decide(features));
    m.target_rows = md.target_rows();
    m.target_cols = md.target_cols();
    m.features = features;
    measurements.push_back(m);

    char shape[32];
    std::snprintf(shape, sizeof(shape), "%zux%zu", md.target_rows(),
                  md.target_cols());
    std::printf("%-18s %10.3f %10.3f %7.2fx %9s %9s %10s %15s\n",
                scenario.name.c_str(), fact_seconds, mat_seconds,
                mat_seconds / std::max(fact_seconds, 1e-12),
                m.measured.c_str(), m.predicted.c_str(), shape,
                m.shape.c_str());
  }

  // Calibration pass: fit the cost-model constants to the observation log
  // this run just extended, persist them for the optimizer
  // ($AMALUR_CALIBRATION_FILE / AmalurOptions::cost), and
  // re-predict every scenario — the before/after decision map is the whole
  // point of the calibration loop.
  const cost::Calibration calibration =
      cost::Calibrator(options).CalibrateFromLog(
          cost::ObservationLog::DefaultPath());
  std::printf("\nCalibration: %s\n", calibration.source.c_str());
  // Written even on fallback: the file then carries the (positive, valid)
  // analytic defaults with the fallback reason in its source field, so the
  // CI artifact always exists and always says where its constants came from.
  const Status status =
      cost::WriteCalibrationFile("CALIBRATION.json", calibration);
  if (status.ok()) {
    std::printf("Wrote CALIBRATION.json (flop_cost=%.3e, "
                "factorized_cell_cost=%.3f, materialize_cell_cost=%.3e, "
                "factorized_row_overhead=%.3e)\n",
                calibration.options.flop_cost,
                calibration.options.factorized_cell_cost,
                calibration.options.materialize_cell_cost,
                calibration.options.factorized_row_overhead);
  } else {
    std::fprintf(stderr, "CALIBRATION.json: %s\n", status.ToString().c_str());
  }

  cost::AmalurCostModel calibrated_model(calibration.options);
  size_t default_wrong = 0, calibrated_wrong = 0;
  std::printf("\n%-20s %9s %9s %11s\n", "decision map", "measured", "default",
              "calibrated");
  for (Measurement& m : measurements) {
    m.predicted_calibrated =
        cost::StrategyToString(calibrated_model.Decide(m.features));
    default_wrong += m.predicted != m.measured ? 1 : 0;
    calibrated_wrong += m.predicted_calibrated != m.measured ? 1 : 0;
    std::printf("%-20s %9s %9s %11s%s\n", m.scenario.c_str(),
                m.measured.c_str(), m.predicted.c_str(),
                m.predicted_calibrated.c_str(),
                m.predicted_calibrated == m.measured ? "" : "  <- MISPREDICT");
  }
  std::printf("Mispredictions: default %zu/%zu, calibrated %zu/%zu\n",
              default_wrong, measurements.size(), calibrated_wrong,
              measurements.size());

  WriteJson(measurements, "BENCH_table1.json");
  std::printf(
      "\nWrote BENCH_table1.json (%zu scenarios).\n"
      "Expected shape (paper §IV): factorization wins where integration\n"
      "duplicates source data (fan-out joins, chained or sharded);\n"
      "materialization wins for unions and 1:1 joins (Example IV.1's\n"
      "full-tgd prescreen).\n",
      measurements.size());
  return 0;
}
