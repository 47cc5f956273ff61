#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "factorized/factorized_table.h"
#include "testing/scenario_builder.h"

/// Parallel/serial equivalence for the factorized rewrite kernels. Every
/// parallel loop in FactorizedTable partitions disjoint output (unique rows,
/// a class's target rows, or target-column bands) and preserves the serial
/// floating-point accumulation order, so results must be *bitwise* equal to
/// the 1-thread run at every thread count — asserted with operator== across
/// {1, 2, hardware, 5} threads for all four Table I relationships.

namespace amalur {
namespace factorized {
namespace {

std::vector<size_t> TestedThreadCounts() {
  std::vector<size_t> counts = {1, 2};
  const size_t hw = common::DefaultNumThreads();
  if (hw != 1 && hw != 2) counts.push_back(hw);
  counts.push_back(5);
  return counts;
}

FactorizedTable MakeTable(rel::JoinKind kind, uint64_t seed) {
  rel::SiloPairSpec spec;
  spec.kind = kind;
  spec.base_rows = 250;
  spec.other_rows = 60;  // fan-out in the join scenarios
  spec.base_features = 3;
  spec.other_features = 5;
  spec.shared_features = 2;
  if (kind == rel::JoinKind::kUnion) {
    spec.base_features = 0;
    spec.other_features = 0;
    spec.shared_features = 4;
    spec.match_fraction = 0.0;
    spec.row_overlap = 0.0;
    spec.other_has_label = true;
  } else if (kind == rel::JoinKind::kFullOuterJoin) {
    spec.match_fraction = 0.5;
    spec.row_overlap = 0.5;
  }
  spec.seed = seed;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return FactorizedTable(std::move(metadata).ValueOrDie());
}

class ParallelFactorizedTest
    : public ::testing::TestWithParam<rel::JoinKind> {
 protected:
  void TearDown() override { common::SetNumThreads(0); }

  template <typename Fn>
  void ExpectBitwiseStable(Fn kernel) {
    common::SetNumThreads(1);
    const la::DenseMatrix serial = kernel();
    for (size_t threads : TestedThreadCounts()) {
      common::SetNumThreads(threads);
      EXPECT_TRUE(kernel() == serial) << "thread count " << threads;
    }
  }
};

TEST_P(ParallelFactorizedTest, LeftMultiplyBitwiseEqualAcrossThreads) {
  FactorizedTable table = MakeTable(GetParam(), 21);
  Rng rng(1);
  const la::DenseMatrix x =
      la::DenseMatrix::RandomGaussian(table.cols(), 3, &rng);
  ExpectBitwiseStable([&] { return table.LeftMultiply(x); });
}

TEST_P(ParallelFactorizedTest, TransposeLeftMultiplyBitwiseEqualAcrossThreads) {
  FactorizedTable table = MakeTable(GetParam(), 22);
  Rng rng(2);
  const la::DenseMatrix x =
      la::DenseMatrix::RandomGaussian(table.rows(), 2, &rng);
  ExpectBitwiseStable([&] { return table.TransposeLeftMultiply(x); });
}

TEST_P(ParallelFactorizedTest, AggregatesBitwiseEqualAcrossThreads) {
  FactorizedTable table = MakeTable(GetParam(), 24);
  ExpectBitwiseStable([&] { return table.ColSums(); });
  ExpectBitwiseStable([&] { return table.RowSquaredNorms(); });
}

TEST_P(ParallelFactorizedTest, ParallelRewriteStillMatchesMaterialized) {
  // The rewrite-correctness invariant must hold while parallel: TX computed
  // factorized == TX computed on the materialized target.
  FactorizedTable table = MakeTable(GetParam(), 25);
  Rng rng(4);
  const la::DenseMatrix x =
      la::DenseMatrix::RandomGaussian(table.cols(), 2, &rng);
  const la::DenseMatrix t = table.Materialize();
  for (size_t threads : TestedThreadCounts()) {
    common::SetNumThreads(threads);
    EXPECT_LT(table.LeftMultiply(x).MaxAbsDiff(t.Multiply(x)), 1e-10)
        << "thread count " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRelationships, ParallelFactorizedTest,
                         ::testing::Values(rel::JoinKind::kInnerJoin,
                                           rel::JoinKind::kLeftJoin,
                                           rel::JoinKind::kFullOuterJoin,
                                           rel::JoinKind::kUnion),
                         [](const auto& info) {
                           switch (info.param) {
                             case rel::JoinKind::kInnerJoin:
                               return "InnerJoin";
                             case rel::JoinKind::kLeftJoin:
                               return "LeftJoin";
                             case rel::JoinKind::kFullOuterJoin:
                               return "FullOuterJoin";
                             case rel::JoinKind::kUnion:
                               return "Union";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace factorized
}  // namespace amalur
