// Reproduces paper Table III: "Percentage of correct factorization decisions
// of Amalur vs Morpheus".
//
// Setting (paper footnote 3, scaled): cS1 = 1, cS2 = 100, rS1 swept over a
// geometric grid (capped at 50k rows for laptop runtimes; the paper sweeps
// to 5M on a server), rS2 = 0.2 * rS1. Ten scenarios per quadrant of the
// 2x2 grid {redundancy in sources} x {redundancy in target}:
//   * target redundancy  = join fan-out (each S2 row serves 5 S1 rows)
//                          vs a 1:1 partial match (no fan-out),
//   * source redundancy  = 50% duplicate rows appended inside S2 vs none.
// Ground truth = measured end-to-end training time of both strategies; each
// estimator's decision is scored against it. AMALUR_BENCH_SMOKE=1 divides
// rS1 by 20, shortens the horizons and measures once; every scenario stays.

#include <cstdio>

#include "bench/bench_util.h"
#include "cost/amalur_cost_model.h"
#include "testing/generator.h"
#include "testing/morpheus_heuristic.h"
#include "testing/scenario_builder.h"

namespace {

using namespace amalur;

struct QuadrantResult {
  int amalur_correct = 0;
  int morpheus_correct = 0;
  int total = 0;
};

QuadrantResult RunQuadrant(bool source_redundancy, bool target_redundancy,
                           bool smoke) {
  // Ten scenarios per quadrant: the rS1 sweep x two training horizons. The
  // horizon varies the amortization of the one-time materialization cost —
  // a workload parameter the Amalur cost model prices explicitly and the
  // fixed TR/FR thresholds of [27] cannot see.
  const size_t row_scale = smoke ? 20 : 1;
  const size_t sweep[] = {1000 / row_scale, 5000 / row_scale,
                          10000 / row_scale, 20000 / row_scale,
                          50000 / row_scale};
  const size_t horizons[] = {smoke ? size_t{2} : 5, smoke ? size_t{10} : 60};
  core::Amalur system;
  cost::MorpheusHeuristic morpheus;

  QuadrantResult result;
  for (size_t size_index = 0; size_index < std::size(sweep); ++size_index) {
    for (size_t h = 0; h < std::size(horizons); ++h) {
      const size_t rs1 = sweep[size_index];
      const size_t iterations = horizons[h];
      rel::SiloPairSpec spec;
      spec.base_rows = rs1;
      spec.base_features = 1;    // cS1 = 1
      spec.other_features = 100;  // cS2 = 100
      spec.other_rows = rs1 / 5;  // rS2 = 0.2 rS1
      if (target_redundancy) {
        // Left join over the shared keys: S2 rows repeat in T. The
        // *effective* fan-out varies with the match fraction, which the
        // shape-level tuple ratio (always rT/rS2 = 5 here) cannot see.
        spec.kind = rel::JoinKind::kLeftJoin;
        spec.match_fraction = size_index % 2 == 0 ? 1.0 : 0.5;
        spec.row_overlap = 1.0;
      } else {
        // Inner join, 1:1 partial match: the target repeats nothing and has
        // no NULL padding (Example IV.1's no-extra-redundancy case).
        spec.kind = rel::JoinKind::kInnerJoin;
        spec.match_fraction = 0.2;
        spec.row_overlap = 1.0;
      }
      spec.other_dup_rate = source_redundancy ? 0.5 : 0.0;
      spec.seed = 1000 * size_index + 31 * h + (source_redundancy ? 7 : 0) +
                  (target_redundancy ? 3 : 0);

      rel::SiloPair pair = rel::GenerateSiloPair(spec);
      auto metadata = factorized::DerivePairMetadata(pair);
      AMALUR_CHECK(metadata.ok()) << metadata.status();
      const core::IntegrationHandle integration =
          bench::HandleOf(*std::move(metadata));
      const cost::CostFeatures features =
          cost::CostFeatures::FromMetadata(integration.metadata);
      cost::AmalurCostModelOptions options;
      options.training_iterations = static_cast<double>(iterations);
      cost::AmalurCostModel amalur_model(options);

      const bench::StrategyTiming timing =
          bench::MeasureTraining(&system, integration,
                                 bench::GdRequest(iterations), smoke ? 1 : 3);
      char cell_name[64];
      std::snprintf(cell_name, sizeof(cell_name),
                    "table3_rs1_%zu_it%zu_src%d_tgt%d", rs1, iterations,
                    source_redundancy ? 1 : 0, target_redundancy ? 1 : 0);
      bench::LogObservation(features, iterations, timing, cell_name);
      const cost::Strategy truth = timing.Winner();
      result.total += 1;
      result.amalur_correct += amalur_model.Decide(features) == truth ? 1 : 0;
      result.morpheus_correct += morpheus.Decide(features) == truth ? 1 : 0;
    }
  }
  return result;
}

void PrintCell(const char* label, const QuadrantResult& q) {
  std::printf("%s  Morpheus: %3.0f%%   Amalur: %3.0f%%   (%d scenarios)\n",
              label, 100.0 * q.morpheus_correct / q.total,
              100.0 * q.amalur_correct / q.total, q.total);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  std::printf(
      "=== Table III: correct factorize/materialize decisions ===%s\n"
      "Setting: cS1=1, cS2=100, rS1 in {1k..50k}, rS2=0.2*rS1; 10 scenarios\n"
      "per quadrant (size sweep x training horizons {5, 60} iterations).\n"
      "Ground truth = measured end-to-end training time of both strategies.\n"
      "Paper reports: src+tgt 70/70, src-only 70/70, tgt-only 20/80,\n"
      "none 30/70 (Morpheus/Amalur).\n\n",
      smoke ? " (SMOKE MODE — sizes scaled down)" : "");

  const QuadrantResult both = RunQuadrant(true, true, smoke);
  const QuadrantResult source_only = RunQuadrant(true, false, smoke);
  const QuadrantResult target_only = RunQuadrant(false, true, smoke);
  const QuadrantResult neither = RunQuadrant(false, false, smoke);

  std::printf("Redundancy in sources=yes, target=yes:\n");
  PrintCell("  ", both);
  std::printf("Redundancy in sources=yes, target=no :\n");
  PrintCell("  ", source_only);
  std::printf("Redundancy in sources=no , target=yes:\n");
  PrintCell("  ", target_only);
  std::printf("Redundancy in sources=no , target=no :\n");
  PrintCell("  ", neither);
  return 0;
}
