// Serving tier walkthrough: train once, deploy an immutable snapshot into
// the read-mostly ModelRegistry, score batched requests through the
// factorized partial-score cache, then redeploy a retrained model while the
// first snapshot keeps serving.
//
// The scenario is the classic feature-augmentation star: a fact table of
// customer orders left-joined against a small product dimension (fan-out
// 10). Factorized serving scores each fact row by indicator lookup into
// per-dimension partial scores — the dimension block is never re-multiplied
// per request.

#include <cstdio>
#include <vector>

#include "core/amalur.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"
#include "testing/generator.h"

int main() {
  using namespace amalur;

  // --- Integrate and train (the offline side) -----------------------------
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 5000;
  spec.other_rows = 500;  // fan-out 10
  spec.base_features = 2;
  spec.other_features = 20;
  spec.seed = 29;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  core::Amalur system;
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"orders", pair.base, "warehouse", /*privacy_sensitive=*/false}));
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"products", pair.other, "catalog-db", /*privacy_sensitive=*/false}));
  auto integration =
      system.Integrate("orders", "products", rel::JoinKind::kLeftJoin);
  AMALUR_CHECK(integration.ok()) << integration.status();

  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 60;
  request.gd.learning_rate = 0.05;
  auto model = system.Train(*integration, request, "spend-predictor");
  AMALUR_CHECK(model.ok()) << model.status();
  std::printf("trained 'spend-predictor' (%s) over %zu target rows\n",
              core::ExecutionStrategyToString(model->outcome().strategy_used),
              integration->metadata.target_rows());

  // --- Deploy (publish an immutable snapshot) -----------------------------
  serving::ModelRegistry registry;
  auto deployed = model->Deploy(&registry, "spend");
  AMALUR_CHECK(deployed.ok()) << deployed.status();
  std::printf("deployed as '%s' v%llu: %zu scorable rows, %zu features\n",
              (*deployed)->name().c_str(),
              static_cast<unsigned long long>((*deployed)->version()),
              (*deployed)->rows(), (*deployed)->feature_names().size());

  // --- Serve batched requests (the online side) ---------------------------
  // A request references target rows by index; the registry hands back the
  // current snapshot and the batch scores through the partial-score cache.
  auto resolve = registry.Get("spend");
  AMALUR_CHECK(resolve.ok()) << resolve.status();
  std::vector<serving::RowRef> batch;
  for (size_t i = 0; i < 8; ++i) batch.push_back({i * 137});
  auto scores = (*resolve)->PredictBatch(batch);
  AMALUR_CHECK(scores.ok()) << scores.status();
  std::printf("\nbatch of %zu rows through v%llu:\n", batch.size(),
              static_cast<unsigned long long>((*resolve)->version()));
  for (size_t i = 0; i < batch.size(); ++i) {
    std::printf("  row %5zu -> %+.4f\n", batch[i].row, scores->At(i, 0));
  }

  auto report = (*resolve)->EvaluateBatch(batch);
  AMALUR_CHECK(report.ok()) << report.status();
  std::printf("batch mse against deploy-time labels: %.4f\n", report->mse);

  // --- Redeploy without stopping the world ---------------------------------
  // Retrain (more iterations) and publish v2. The v1 snapshot held above is
  // untouched — in-flight requests finish on the version they resolved.
  request.gd.iterations = 200;
  auto retrained = system.Train(*integration, request);
  AMALUR_CHECK(retrained.ok()) << retrained.status();
  auto v2 = registry.Redeploy("spend", *retrained);
  AMALUR_CHECK(v2.ok()) << v2.status();

  auto old_scores = (*resolve)->PredictBatch(batch);  // v1, still serving
  auto new_scores = (*v2)->PredictBatch(batch);
  AMALUR_CHECK(old_scores.ok() && new_scores.ok());
  std::printf("\nafter redeploy: registry serves v%llu; held v%llu still "
              "answers\n",
              static_cast<unsigned long long>((*v2)->version()),
              static_cast<unsigned long long>((*resolve)->version()));
  std::printf("  row %zu: v1 %+.4f  vs  v2 %+.4f\n", batch[0].row,
              old_scores->At(0, 0), new_scores->At(0, 0));

  serving::ServingStats stats = (*resolve)->stats();
  std::printf("\nv1 served %llu requests / %llu rows (%llu cache hits)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.cache_hits));
  return 0;
}
