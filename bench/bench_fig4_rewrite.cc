// Reproduces paper Figure 4's computation as a micro-benchmark: the LMM
// rewrite  T·X → I₁D₁M₁ᵀX + ((I₂D₂M₂ᵀ) ∘ R₂)X  versus the materialized
// T·X, on the running example's structure scaled up (full outer join with
// overlapping columns m, a). Also measures the transpose rewrite used by
// gradients and the Morpheus-style rewrite (1) for reference (it is faster
// but WRONG on overlapping silos — it double-counts; correctness is checked
// in the test suite, speed is reported here).
//
// Each cell is the median of a few timed repeats. Smoke mode
// (AMALUR_BENCH_SMOKE=1) shrinks every size tenfold and repeats less.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "factorized/factorized_table.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

namespace {

using namespace amalur;

/// Running-example structure at `scale` rows: full outer join, shared
/// columns, 30% row overlap, a private column per side.
metadata::DiMetadata MakeScaledRunningExample(size_t scale) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kFullOuterJoin;
  spec.base_rows = scale;
  spec.other_rows = scale * 3 / 4;
  spec.base_features = 1;   // hr
  spec.other_features = 1;  // o
  spec.shared_features = 2;  // m, a analogues
  spec.match_fraction = 0.3;
  spec.row_overlap = 0.4;
  spec.seed = 404;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::move(metadata).ValueOrDie();
}

/// Median wall-clock milliseconds of `repeats` calls to `op`.
template <typename Op>
double MedianMs(size_t repeats, const Op& op) {
  std::vector<double> ms;
  for (size_t r = 0; r < repeats; ++r) {
    Stopwatch watch;
    const la::DenseMatrix result = op();
    ms.push_back(1e3 * watch.ElapsedSeconds());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t repeats = smoke ? 3 : 7;

  std::printf("=== Figure 4: LMM rewrite vs materialized (median of %zu, ms) "
              "===\n",
              repeats);
  std::printf("(running-example full outer join with S1 at `scale` rows; X "
              "has 4 columns; mat+lmm includes building T; morpheus ignores "
              "R and double-counts)\n\n");
  std::printf("%8s %11s %11s %11s %13s %12s %11s\n", "scale", "lmm amalur",
              "lmm mat", "mat+lmm", "lmm morpheus", "tlmm amalur",
              "tlmm mat");
  const size_t kScales[] = {1000, 10000, 100000};
  for (size_t scale : kScales) {
    const size_t rows = smoke ? scale / 10 : scale;
    const metadata::DiMetadata metadata = MakeScaledRunningExample(rows);
    const factorized::FactorizedTable table(metadata);
    const factorized::MorpheusReference morpheus(metadata);
    const la::DenseMatrix dense = table.Materialize();
    Rng rng(1);
    const la::DenseMatrix x =
        la::DenseMatrix::RandomGaussian(table.cols(), 4, &rng);
    Rng transpose_rng(2);
    const la::DenseMatrix xt =
        la::DenseMatrix::RandomGaussian(table.rows(), 4, &transpose_rng);

    const double lmm_amalur =
        MedianMs(repeats, [&] { return table.LeftMultiply(x); });
    const double lmm_mat = MedianMs(repeats, [&] { return dense.Multiply(x); });
    const double mat_then_lmm = MedianMs(repeats, [&] {
      return metadata.MaterializeTargetMatrix().Multiply(x);
    });
    const double lmm_morpheus =
        MedianMs(repeats, [&] { return morpheus.LeftMultiply(x); });
    const double tlmm_amalur =
        MedianMs(repeats, [&] { return table.TransposeLeftMultiply(xt); });
    const double tlmm_mat =
        MedianMs(repeats, [&] { return dense.TransposeMultiply(xt); });
    std::printf("%8zu %11.3f %11.3f %11.3f %13.3f %12.3f %11.3f\n", rows,
                lmm_amalur, lmm_mat, mat_then_lmm, lmm_morpheus,
                tlmm_amalur, tlmm_mat);
  }
  return 0;
}
