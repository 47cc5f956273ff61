#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/amalur.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/training_matrix.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

/// End-to-end parallel/serial equivalence: gradient-descent training (which
/// exercises the dense GEMM family, the factorized rewrites and the sigmoid
/// fast path every iteration) must produce the same weights at every thread
/// count. The factorized and dense-materialized pipelines are built from
/// disjoint-write kernels only, so their weights are bitwise-equal to the
/// 1-thread run; the facade knob (`TrainRequest.num_threads`) is checked
/// through `Amalur::Train` including its `threads_used` reporting.

namespace amalur {
namespace ml {
namespace {

std::vector<size_t> TestedThreadCounts() {
  std::vector<size_t> counts = {1, 2};
  const size_t hw = common::DefaultNumThreads();
  if (hw != 1 && hw != 2) counts.push_back(hw);
  counts.push_back(5);
  return counts;
}

metadata::DiMetadata MakeScenarioMetadata(uint64_t seed) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 300;
  spec.other_rows = 50;  // fan-out 6
  spec.base_features = 2;
  spec.other_features = 6;
  spec.seed = seed;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::move(metadata).ValueOrDie();
}

class ParallelTrainingTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetNumThreads(0); }
};

TEST_F(ParallelTrainingTest, FactorizedWeightsBitwiseEqualAcrossThreads) {
  auto table = std::make_shared<factorized::FactorizedTable>(
      MakeScenarioMetadata(31));
  FactorizedFeatures features(table, 0);
  const la::DenseMatrix labels = features.Labels();
  GradientDescentOptions gd;
  gd.iterations = 15;
  gd.learning_rate = 0.05;

  common::SetNumThreads(1);
  const LinearModel serial = TrainLinearRegression(features, labels, gd);
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    const LinearModel parallel = TrainLinearRegression(features, labels, gd);
    EXPECT_TRUE(parallel.weights == serial.weights)
        << "thread count " << threads;
    EXPECT_EQ(parallel.loss_history, serial.loss_history)
        << "thread count " << threads;
  }
}

TEST_F(ParallelTrainingTest, MaterializedWeightsBitwiseEqualAcrossThreads) {
  const metadata::DiMetadata metadata = MakeScenarioMetadata(32);
  const la::DenseMatrix target = metadata.MaterializeTargetMatrix();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < target.cols(); ++j) feature_cols.push_back(j);
  MaterializedMatrix features(target.SelectColumns(feature_cols));
  const la::DenseMatrix labels = target.SelectColumns({0});
  GradientDescentOptions gd;
  gd.iterations = 15;
  gd.learning_rate = 0.05;

  common::SetNumThreads(1);
  const LinearModel serial = TrainLinearRegression(features, labels, gd);
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    const LinearModel parallel = TrainLinearRegression(features, labels, gd);
    EXPECT_TRUE(parallel.weights == serial.weights)
        << "thread count " << threads;
  }
}

TEST_F(ParallelTrainingTest, LogisticSigmoidFastPathEqualAcrossThreads) {
  auto table = std::make_shared<factorized::FactorizedTable>(
      MakeScenarioMetadata(33));
  FactorizedFeatures features(table, 0);
  // 0/1-ize the labels for logistic regression.
  la::DenseMatrix labels = features.Labels();
  labels.TransformInPlace([](double v) { return v > 0.0 ? 1.0 : 0.0; });
  GradientDescentOptions gd;
  gd.iterations = 10;
  gd.learning_rate = 0.1;

  common::SetNumThreads(1);
  const LinearModel serial = TrainLogisticRegression(features, labels, gd);
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    const LinearModel parallel = TrainLogisticRegression(features, labels, gd);
    EXPECT_TRUE(parallel.weights == serial.weights)
        << "thread count " << threads;
  }
}

TEST_F(ParallelTrainingTest, SigmoidMatchesSerialMapFormulation) {
  Rng rng(34);
  const la::DenseMatrix x = la::DenseMatrix::RandomGaussian(5000, 1, &rng);
  la::DenseMatrix reference(x.rows(), 1);
  for (size_t i = 0; i < x.rows(); ++i) {
    const double v = x.At(i, 0);
    const double e = std::exp(v >= 0 ? -v : v);
    reference.At(i, 0) = v >= 0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
  }
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    EXPECT_TRUE(Sigmoid(x) == reference) << "thread count " << threads;
  }
}

TEST_F(ParallelTrainingTest, FacadeThreadKnobIsScopedAndReported) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 200;
  spec.other_rows = 40;
  spec.base_features = 2;
  spec.other_features = 4;
  spec.seed = 35;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur system(options);
  AMALUR_CHECK_OK(
      system.catalog()->RegisterSource({"S1", pair.base, "silo-1", false}));
  AMALUR_CHECK_OK(
      system.catalog()->RegisterSource({"S2", pair.other, "silo-2", false}));
  auto integration = system.Integrate("S1", "S2", rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(integration.ok()) << integration.status();

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 8;
  request.gd.learning_rate = 0.05;
  request.force_strategy = core::ExecutionStrategy::kFactorize;

  request.num_threads = 1;
  auto serial = system.Train(*integration, request);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(serial->outcome().threads_used, 1u);
  EXPECT_NE(serial->plan().explanation.find("executed with 1 thread"),
            std::string::npos)
      << serial->plan().explanation;

  for (size_t threads : {size_t{2}, size_t{4}}) {
    request.num_threads = threads;
    auto parallel = system.Train(*integration, request);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    // Reported width = request capped by what the pool can actually run.
    EXPECT_EQ(parallel->outcome().threads_used,
              std::min(threads, common::ThreadPool::Global()->parallelism()));
    EXPECT_TRUE(parallel->weights() == serial->weights())
        << "thread count " << threads;
    // The override is scoped to the run: the global default is untouched.
    EXPECT_EQ(common::NumThreads(), common::DefaultNumThreads());
  }
}

}  // namespace
}  // namespace ml
}  // namespace amalur
