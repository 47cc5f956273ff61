// Ablation study of the training backends behind the optimizer's strategy
// choice. Two questions:
//
//  1. Backend choice vs target sparsity: dense materialization multiplies
//     through outer-join NULL padding, factorization never materializes
//     it. Sweep the unmatched fraction of a full outer join and time both
//     backends on identical GD runs.
//
//  2. Fan-out deduplication: the factorized kernels compute once per
//     *unique source row* and expand through the indicator. The
//     Morpheus-style reference shares the kernels, so the ablation here
//     contrasts the factorized path against dense materialization as the
//     join fan-out grows — the speedup is exactly the deduplication win.
//
// Both are the executor's own training runs (`bench::TrainSeconds`).
// AMALUR_BENCH_SMOKE=1 shrinks the tables and the iterations; every row
// stays.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

using namespace amalur;

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t iterations = smoke ? 3 : 20;
  const size_t rows = smoke ? 500 : 20000;
  const size_t dimension_rows = smoke ? 100 : 4000;

  std::printf("=== Ablation 1: backend vs target NULL padding ===\n");
  std::printf("(full outer join, %zu+%zu rows, 20 features/side; the match\n",
              rows, rows);
  std::printf("fraction controls how much of T is NULL padding)\n\n");
  std::printf("%9s %10s %12s %12s\n", "matched", "null frac", "dense (s)",
              "factor. (s)");
  for (double match : {1.0, 0.5, 0.2, 0.05}) {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kFullOuterJoin;
    spec.base_rows = rows;
    spec.other_rows = rows;
    spec.base_features = 20;
    spec.other_features = 20;
    spec.match_fraction = match;
    spec.row_overlap = match;
    spec.seed = static_cast<uint64_t>(match * 1000);
    rel::SiloPair pair = rel::GenerateSiloPair(spec);
    auto metadata = factorized::DerivePairMetadata(pair);
    AMALUR_CHECK(metadata.ok()) << metadata.status();

    la::DenseMatrix target = metadata->MaterializeTargetMatrix();
    size_t zeros = 0;
    for (size_t i = 0; i < target.size(); ++i) {
      zeros += target.data()[i] == 0.0 ? 1 : 0;
    }
    const double null_fraction =
        static_cast<double>(zeros) / static_cast<double>(target.size());

    const double dense = bench::TrainSeconds(
        *metadata, core::ExecutionStrategy::kMaterialize, iterations);
    const double factorized = bench::TrainSeconds(
        *metadata, core::ExecutionStrategy::kFactorize, iterations);
    std::printf("%8.0f%% %10.2f %12.3f %12.3f\n", 100 * match, null_fraction,
                dense, factorized);
  }

  std::printf("\n=== Ablation 2: fan-out deduplication win ===\n");
  std::printf("(left join, rS2=%zu, 40 dimension features; fan-out = rS1/rS2)\n\n",
              dimension_rows);
  std::printf("%8s %12s %12s %9s\n", "fan-out", "dense (s)", "factor. (s)",
              "speedup");
  for (size_t fanout : {1, 2, 5, 10, 20}) {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kLeftJoin;
    spec.other_rows = dimension_rows;
    spec.base_rows = dimension_rows * fanout;
    spec.base_features = 2;
    spec.other_features = 40;
    spec.seed = 77 + fanout;
    rel::SiloPair pair = rel::GenerateSiloPair(spec);
    auto metadata = factorized::DerivePairMetadata(pair);
    AMALUR_CHECK(metadata.ok()) << metadata.status();
    const bench::StrategyTiming timing =
        bench::MeasureTraining(*metadata, iterations, smoke ? 1 : 3);
    std::printf("%8zu %12.3f %12.3f %8.2fx\n", fanout,
                timing.materialized_seconds, timing.factorized_seconds,
                timing.Speedup());
  }
  std::printf(
      "\nExpected: the factorized advantage grows ~linearly with fan-out\n"
      "(compute is per unique source row).\n");
  return 0;
}
