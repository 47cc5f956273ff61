#include <gtest/gtest.h>

#include "core/amalur.h"
#include "testing/generator.h"

/// Zero-row holdout boundary contracts: predicting over an empty (but
/// schema-correct) table is a legal no-op — an empty answer — while
/// evaluating one is `kInvalidArgument`, because every metric's empty
/// average is 0.0 and the resulting report would impersonate a perfect
/// model. Schema validation still runs first either way.

namespace amalur {
namespace core {
namespace {

ModelHandle TrainModel(Amalur* amalur) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 120;
  spec.other_rows = 30;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.seed = 53;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  AMALUR_CHECK_OK(
      amalur->catalog()->RegisterSource({"a", pair.base, "", false}));
  AMALUR_CHECK_OK(
      amalur->catalog()->RegisterSource({"b", pair.other, "", false}));
  auto integration = amalur->Integrate("a", "b", rel::JoinKind::kLeftJoin);
  AMALUR_CHECK(integration.ok()) << integration.status();
  TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 30;
  request.gd.learning_rate = 0.05;
  auto model = amalur->Train(*integration, request);
  AMALUR_CHECK(model.ok()) << model.status();
  return *std::move(model);
}

/// A zero-row table carrying the model's full training schema (features +
/// label), each column present and numeric, just empty.
rel::Table EmptyHoldout(const ModelHandle& model) {
  rel::Table holdout("holdout");
  AMALUR_CHECK_OK(holdout.AddColumn(
      rel::Column::FromDoubles(model.label_column(), {})));
  for (const std::string& name : model.feature_names()) {
    AMALUR_CHECK_OK(holdout.AddColumn(rel::Column::FromDoubles(name, {})));
  }
  return holdout;
}

TEST(ModelBoundaryTest, ZeroRowPredictReturnsAnEmptyAnswer) {
  Amalur amalur;
  ModelHandle model = TrainModel(&amalur);
  rel::Table holdout = EmptyHoldout(model);
  ASSERT_EQ(holdout.NumRows(), 0u);

  auto predictions = model.Predict(holdout);
  ASSERT_TRUE(predictions.ok()) << predictions.status();
  EXPECT_EQ(predictions->rows(), 0u);
  EXPECT_EQ(predictions->cols(), 1u);
}

TEST(ModelBoundaryTest, ZeroRowEvaluateIsInvalidArgument) {
  Amalur amalur;
  ModelHandle model = TrainModel(&amalur);
  rel::Table holdout = EmptyHoldout(model);

  Status status = model.Evaluate(holdout).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  // The error explains the degeneration instead of just rejecting.
  EXPECT_NE(status.message().find("zero-row"), std::string::npos) << status;
}

TEST(ModelBoundaryTest, SchemaValidationStillRunsOnZeroRowTables) {
  // An empty table with the WRONG schema is a schema error, not an empty
  // success: the missing-column contract outranks the zero-row shortcut.
  Amalur amalur;
  ModelHandle model = TrainModel(&amalur);

  rel::Table missing("missing");
  AMALUR_CHECK_OK(missing.AddColumn(
      rel::Column::FromDoubles(model.feature_names().front(), {})));
  EXPECT_TRUE(model.Predict(missing).status().IsInvalidArgument());
  EXPECT_TRUE(model.Evaluate(missing).status().IsInvalidArgument());
}

}  // namespace
}  // namespace core
}  // namespace amalur
