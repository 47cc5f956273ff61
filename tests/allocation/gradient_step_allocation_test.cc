#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/parallel_for.h"
#include "counting_allocator.h"
#include "factorized/factorized_table.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

/// Factorized gradient descent must not request a block of 1 KiB or more
/// after its first iteration: the step's vectors are sized once per view,
/// and the trainer keeps one gradient for the whole run. Tiny blocks (the
/// `std::function` closures of the parallel loops) are allowed.

namespace amalur {
namespace ml {
namespace {

using allocation::CountAllocations;
using allocation::Counts;

/// A left join whose base fans out into the other silo (a class with
/// fan-out) and keeps one target row per base row (a class without), with
/// shared columns so some rows carry masked redundancy sets. Every
/// target-sized vector is well over 1 KiB.
std::shared_ptr<const factorized::FactorizedTable> MakeTable() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 3000;
  spec.other_rows = 150;
  spec.base_features = 3;
  spec.other_features = 6;
  spec.shared_features = 2;
  spec.match_fraction = 0.8;
  spec.seed = 1807;
  auto metadata = factorized::DerivePairMetadata(rel::GenerateSiloPair(spec));
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::make_shared<const factorized::FactorizedTable>(
      std::move(metadata).ValueOrDie());
}

TEST(GradientStepAllocationTest, NoLargeBlockAfterTheFirstIteration) {
  const auto table = MakeTable();
  const size_t label = *table->metadata().target_schema().IndexOf("y");
  la::DenseMatrix labels = FactorizedFeatures(table, label).Labels();
  la::DenseMatrix binary = labels;
  binary.TransformInPlace([](double v) { return v > 0.0 ? 1.0 : 0.0; });

  for (size_t threads : {1, 4}) {
    common::ScopedNumThreads scope(threads);
    for (bool logistic : {false, true}) {
      SCOPED_TRACE(std::string(logistic ? "logistic" : "linear") +
                   ", threads " + std::to_string(threads));
      const auto train = [&](size_t iterations) {
        // A fresh view per run: its step buffers are sized by iteration 1.
        const FactorizedFeatures features(table, label);
        GradientDescentOptions gd;
        gd.iterations = iterations;
        gd.learning_rate = 0.05;
        gd.l2 = 0.01;
        return CountAllocations([&] {
          if (logistic) {
            TrainLogisticRegression(features, binary, gd);
          } else {
            TrainLinearRegression(features, labels, gd);
          }
        });
      };
      train(2);  // starts the pool's workers before anything is counted
      const Counts one = train(1);
      const Counts thirty = train(30);
      EXPECT_EQ(thirty.large_blocks, one.large_blocks)
          << "iterations 2-30 requested "
          << thirty.large_blocks - one.large_blocks
          << " blocks of 1 KiB or more (" << thirty.blocks - one.blocks
          << " blocks in all)";
      EXPECT_GT(one.large_blocks, 0u) << "the counter sees the first iteration";
    }
  }
}

TEST(GradientStepAllocationTest, RepeatedStepsOnOneViewRequestNoLargeBlock) {
  const auto table = MakeTable();
  const FactorizedFeatures features(
      table, *table->metadata().target_schema().IndexOf("y"));
  const la::DenseMatrix labels = features.Labels();
  la::DenseMatrix w(features.cols(), 1);
  la::DenseMatrix gradient(features.cols(), 1);
  for (size_t threads : {1, 4}) {
    common::ScopedNumThreads scope(threads);
    features.GradientStep(w, labels, Loss::kSquared, &gradient);
    const Counts counts = CountAllocations([&] {
      for (int step = 0; step < 20; ++step) {
        features.GradientStep(w, labels,
                              step % 2 == 0 ? Loss::kSquared : Loss::kLogistic,
                              &gradient);
        w.AddScaled(gradient, -1e-6);
      }
    });
    EXPECT_EQ(counts.large_blocks, 0u) << "threads " << threads;
  }
}

}  // namespace
}  // namespace ml
}  // namespace amalur
