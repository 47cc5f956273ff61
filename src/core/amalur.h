#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/catalog.h"
#include "core/executor.h"
#include "core/optimizer.h"
#include "cost/amalur_cost_model.h"
#include "cost/calibrator.h"
#include "integration/entity_resolution.h"
#include "integration/schema_matching.h"
#include "metadata/di_metadata.h"
#include "ml/training_matrix.h"

/// \file amalur.h
/// The Amalur system facade — the end-to-end pipeline of Figure 3. Users
/// register silo tables, describe *what* to integrate with an
/// `IntegrationSpec` — either a flat source list (two sources or an n-ary
/// star) or an explicit **integration graph**: a list of
/// `core::IntegrationEdge`s forming a tree of left joins and unions, which
/// unlocks snowflake schemas (dimension-of-dimension chains) and
/// union-of-stars scenarios (horizontally partitioned fact shards, each
/// with its own dimensions). The system validates and topologically orders
/// the graph, then runs automatic schema matching → target-schema
/// synthesis → tgd generation → row matching → metadata derivation per
/// edge. Training returns a `ModelHandle` that serves predictions and
/// evaluations — in-sample through the factorized runtime whatever plan
/// trained it, or on new relational data; the optimizer's choice of
/// factorized, materialized or federated execution (and the graph's shape)
/// is inspectable through `Explain`.
///
///     core::Amalur amalur;
///     amalur.catalog()->RegisterSource({"claims",  claims,  "dept", false});
///     amalur.catalog()->RegisterSource({"patients", patients, "reg", false});
///     amalur.catalog()->RegisterSource({"regions", regions, "geo", false});
///
///     core::IntegrationSpec spec;
///     spec.name = "claims-snowflake";    // registered in the catalog
///     spec.edges = {{"claims", "patients", rel::JoinKind::kLeftJoin},
///                   {"patients", "regions", rel::JoinKind::kLeftJoin}};
///     auto integration = amalur.Integrate(spec);
///
///     core::TrainRequest request;
///     request.label_column = "cost";
///     auto model = amalur.Train(*integration, request, "cost-model");
///     auto in_sample = model->Predict();          // factorized serving
///     auto report = model->Evaluate(holdout_table);
///     core::Plan plan = amalur.Explain(*model);   // strategy + shape + cost
///
/// Handle lifetime: `IntegrationHandle` and `ModelHandle` are self-contained
/// value objects, so they remain valid across catalog mutations and even
/// after the `Amalur` instance is destroyed. They share one immutable copy
/// of the derived metadata instead of copying it: every handle of one
/// integration, and every model trained on it, holds the same
/// `DiMetadata` state, row-slot index included, which lives as long as the
/// last of them. Repeated `Integrate` calls over one graph hand back copies
/// of one integration (see `Amalur::Integrate`), so their handles share
/// that state too. Handles stored in the catalog under a name
/// (`IntegrationSpec::name`, the `model_name` argument of `Train`) are
/// copies too; `Catalog::GetIntegration`/`GetModel` pointers stay valid
/// until the catalog itself is destroyed.

namespace amalur {

// The serving tier (src/serving/) sits above core: core only hands trained
// handles over to it, so the declarations stay forward-only here and
// `ModelHandle::Deploy` is defined next to the registry.
namespace serving {
class DeployedModel;
class ModelRegistry;
}  // namespace serving

namespace core {

/// Configuration of the system's components.
struct AmalurOptions {
  integration::SchemaMatcherOptions matcher;
  integration::EntityResolverOptions resolver;
  cost::AmalurCostModelOptions cost;
};

/// Declarative description of one integration scenario: which registered
/// sources participate and how their rows relate (Table I). Two equivalent
/// forms exist — the explicit edge list (`edges`, the general form) and the
/// flat `sources`/`relationships` list (a convenience that lowers into
/// edges hanging off one base).
struct IntegrationSpec {
  /// Optional catalog name. Non-empty → the resulting handle is registered
  /// via `Catalog::RegisterIntegration` (unique names, `kAlreadyExists` on
  /// re-use) and can be fetched later with `Catalog::GetIntegration`.
  std::string name;

  /// **Edge-list form.** When non-empty, the integration is this graph: a
  /// DAG of `kLeftJoin` / `kInnerJoin` edges (parent retained, child
  /// dimension — chains allowed, which is how snowflake schemas are
  /// expressed; an inner edge additionally drops target rows where the
  /// child has no match) and `kUnion` edges (sibling fact shards —
  /// union-of-stars). A dimension referenced by several join edges is a
  /// *conformed dimension*: its columns appear once in the target and its
  /// silo is integrated once. A single edge may also be `kFullOuterJoin`;
  /// it keeps its own relationship in the derived metadata. The graph must
  /// be connected and acyclic with one fact root and at most one parent per
  /// fact shard; violations return precise `kInvalidArgument` messages.
  /// When `edges` is set, `relationships` is ignored and `sources` (if
  /// non-empty) merely declares the expected participant set.
  std::vector<IntegrationEdge> edges;

  /// **Flat form** (used when `edges` is empty). Ordered names of >= 2
  /// registered sources. The first entry is the base table (the running
  /// example's S1; the fact table of a star). Two sources lower into one
  /// edge; three or more into a star (base left-joined to each dimension).
  std::vector<std::string> sources;

  /// Flat form only: dataset relationship per edge (base, sources[i+1]) —
  /// either exactly one entry, applied to every edge, or sources.size()-1
  /// entries. Star scenarios (>= 3 sources) require `kLeftJoin` on every
  /// edge; use the edge-list form for mixed-relationship graphs.
  std::vector<rel::JoinKind> relationships = {rel::JoinKind::kInnerJoin};
};

/// Per-dataset evaluation metrics of a trained model (task-dependent:
/// regression fills `mse`, classification fills `log_loss`/`accuracy`).
struct EvaluationReport {
  size_t rows = 0;
  /// Mean squared error of predictions vs. labels (regression tasks).
  double mse = 0.0;
  /// Binary log-loss of predicted probabilities (classification tasks).
  double log_loss = 0.0;
  /// Fraction of correct 0/1 predictions at threshold 0.5 (classification).
  double accuracy = 0.0;
  /// The task's headline metric: `mse` for regression, `accuracy` for
  /// classification.
  double primary = 0.0;
};

/// Fills the task-dependent report for `predictions` vs `labels` (rows x 1
/// each): the one builder behind `ModelHandle::Evaluate` and
/// `serving::DeployedModel::EvaluateBatch`.
EvaluationReport MakeEvaluationReport(TrainingTask task,
                                      const la::DenseMatrix& predictions,
                                      const la::DenseMatrix& labels);

/// A trained model returned by `Amalur::Train`: the executor's outcome plus
/// everything needed to serve the model on new relational data. Handles are
/// self-contained values (weights and schema are copied); registering under
/// a model name additionally records a `ModelEntry` in the catalog.
class ModelHandle {
 public:
  ModelHandle() = default;

  /// Catalog registration name (empty for unregistered models).
  const std::string& name() const { return name_; }
  TrainingTask task() const { return task_; }
  /// Target-schema column the model predicts.
  const std::string& label_column() const { return label_column_; }
  /// Feature columns in weight order (target schema minus the label).
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  /// Sources of the integration the model was trained over.
  const std::vector<std::string>& source_names() const {
    return source_names_;
  }
  /// The optimizer plan that was executed (including the cost estimate that
  /// justified it; see also `Amalur::Explain`).
  const Plan& plan() const { return plan_; }
  /// Raw training outcome: weights, loss history, timings, bytes moved.
  const TrainOutcome& outcome() const { return outcome_; }
  /// Final weights in `feature_names()` order (cols x 1).
  const la::DenseMatrix& weights() const { return outcome_.weights; }

  /// Scores `data` with the trained weights: y-hat = F w for regression,
  /// sigma(F w) for classification (rows x 1). Columns are aligned to the
  /// training schema *by name* — positional order never matters, so a
  /// shuffled holdout table scores identically. Every feature column must
  /// be present in `data` and numeric; a missing or string-typed column is
  /// `kInvalidArgument`. The label column is not required. A zero-row table
  /// with the right schema scores to an empty 0 x 1 matrix.
  Result<la::DenseMatrix> Predict(const rel::Table& data) const;

  /// Scores the integration's own target rows (in-sample serving, rT x 1)
  /// with the factorized LMM straight over the silo matrices, whatever plan
  /// trained the model, through a view over the integration's row-slot
  /// index. The target table is never built, so a privacy-constrained
  /// integration scores too, and every row equals
  /// `serving::DeployedModel::PredictBatch` for the same row bit for bit.
  Result<la::DenseMatrix> Predict() const;

  /// Predicts over `data` and scores against its label column (which must
  /// be present under `label_column()` and numeric — same by-name alignment
  /// and `kInvalidArgument` contract as `Predict`). A zero-row table is
  /// `kInvalidArgument` too: every metric's empty average is 0.0, so the
  /// resulting report would impersonate a perfect model.
  Result<EvaluationReport> Evaluate(const rel::Table& data) const;

  /// In-sample evaluation against the target's label column, routed through
  /// the factorized runtime exactly like the no-argument `Predict()`; equal
  /// in every field to a full-batch `DeployedModel::EvaluateBatch`.
  Result<EvaluationReport> Evaluate() const;

  /// Deploys this model into the serving tier: builds an immutable
  /// `serving::DeployedModel` snapshot (weights, schema, factorized view,
  /// partial-score cache) and publishes it in `registry` under `name`
  /// (empty = the model's catalog name). Same error contract as
  /// `ModelRegistry::Deploy`; a null `registry` is `kInvalidArgument`.
  /// Defined with the registry in src/serving/.
  Result<std::shared_ptr<const serving::DeployedModel>> Deploy(
      serving::ModelRegistry* registry, const std::string& name = "") const;

  /// Deploy-time snapshot state, read by the serving tier: the metadata of
  /// the integration the model was trained on (shared with it, null for a
  /// default-constructed handle), a factorized view over it, and the
  /// label's target-schema position.
  const std::shared_ptr<const metadata::DiMetadata>& metadata() const {
    return metadata_;
  }
  /// A view over `metadata()` and its row-slot index, whatever plan trained
  /// the model (null for a default-constructed handle). Builds nothing
  /// once the integration's index exists.
  std::shared_ptr<const factorized::FactorizedTable> factorized_table() const;
  size_t label_index() const { return label_index_; }

  /// The factorized view that `Predict()`, `Evaluate()` and every
  /// deployment score over: `factorized_table()`, or `kFailedPrecondition`
  /// for a default-constructed handle.
  Result<std::shared_ptr<const factorized::FactorizedTable>> InSampleView()
      const;

 private:
  friend class Amalur;

  /// y-hat = F w, or sigma(F w) for classification, over any backend.
  la::DenseMatrix PredictOver(const ml::TrainingMatrix& features) const;

  std::string name_;
  TrainingTask task_ = TrainingTask::kLinearRegression;
  std::string label_column_;
  std::vector<std::string> feature_names_;
  std::vector<std::string> source_names_;
  Plan plan_;
  TrainOutcome outcome_;
  /// In-sample serving state: the integration's metadata, shared with it.
  std::shared_ptr<const metadata::DiMetadata> metadata_;
  size_t label_index_ = 0;
};

/// The system facade.
class Amalur {
 public:
  /// Cost-model constants are resolved once per instance and plan every
  /// `Explain` and `Train` call: a fitted-constants file named by
  /// `$AMALUR_CALIBRATION_FILE` overrides `options.cost` (the analytic
  /// defaults unless the caller set constants), falling back to them — with
  /// the reason surfaced in every plan explanation — when the file is
  /// missing or malformed. To plan with a particular file, pass
  /// `cost::ResolveCalibration({}, path).options` as `options.cost`.
  explicit Amalur(AmalurOptions options = {}) : options_(std::move(options)) {
    options_.cost = cost::ResolveCalibration(options_.cost).options;
  }

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Runs the automatic integration pipeline over the spec's graph. The
  /// spec's edge set (explicit, or lowered from the flat form) is validated
  /// (connected, acyclic, one fact root) and topologically ordered; then one
  /// pipeline runs per edge, whatever the graph's shape: schema matching
  /// against the parent, key discovery (matched string columns and
  /// surrogate keys serve as join evidence only, never as features),
  /// target-schema synthesis (matched numeric columns merge into one target
  /// column; a conformed dimension's columns land once; shard columns
  /// matched across a union edge merge) and row matching (exact-key when a
  /// surrogate key was discovered, fuzzy entity resolution otherwise).
  ///
  /// The schema mapping takes `metadata::GraphMappingKind`'s relationship
  /// (a one-edge spec keeps its edge's; a larger graph maps as a left join,
  /// or a union when it stacks fact shards), and `DiMetadata::DeriveGraph`
  /// derives every spec: fact rows in order, fanned out by 1:N edges,
  /// restricted by inner edges, extended by a full outer edge, composed
  /// along dimension chains into one indicator per silo, and stacked per
  /// union shard. The handle's `shape` is the derived metadata's.
  ///
  /// The handle carries every edge artifact (column matches, row
  /// matchings); when `spec.name` is non-empty the whole handle is
  /// registered as a first-class catalog object.
  ///
  /// **Repeated graphs.** The instance remembers its last successful
  /// integration. When a call plans the same graph again (the same sources
  /// in the same order and the same edges, left, right and kind, whichever
  /// spec form planned them), it returns a copy of that integration under
  /// `spec.name`, and schema matching, key discovery, row matching and
  /// derivation do not run. A hit is exact, because nothing else feeds the
  /// pipeline: a registered source is never overwritten or erased, the
  /// options are fixed at construction, schema matching samples with a
  /// fixed seed, and every step gives the same bits at any pool width. Any
  /// other graph runs the pipeline and, once the whole call has succeeded
  /// (a named spec's registration included), becomes the remembered one; a
  /// failed call changes nothing. A named hit registers like a miss, so
  /// reusing a name is still `kAlreadyExists`.
  ///
  /// A hit copies the handle's column matches, mapping and row matchings
  /// (2.4 MB for three 50,000-pair matchings); the derived metadata
  /// (D_k, CI_k, R_k and the row-slot index) is shared with the first
  /// call's handle, not copied. The remembered integration stays alive
  /// until the next successful `Integrate` of another graph, or until this
  /// `Amalur` is destroyed, and while a caller holds a hit's handle the
  /// remembered row matchings stay alive beside its copy. Concurrent calls
  /// are safe: the remembered handle is read and replaced under a lock that
  /// is never held while the pipeline runs or the catalog is called.
  Result<IntegrationHandle> Integrate(const IntegrationSpec& spec);

  /// Two-source convenience overload; delegates to the spec form.
  Result<IntegrationHandle> Integrate(const std::string& base_name,
                                      const std::string& other_name,
                                      rel::JoinKind kind);

  /// Plans and executes a training run over an integration. The optimizer
  /// chooses the strategy unless `request.force_strategy` pins one
  /// (privacy-constrained integrations cannot be forced onto data-moving
  /// strategies). When `model_name` is non-empty the trained model is also
  /// registered in the catalog with its final loss as the metric. An
  /// integration whose target has no rows is `kInvalidArgument`, whatever
  /// the strategy.
  Result<ModelHandle> Train(const IntegrationHandle& integration,
                            const TrainRequest& request,
                            const std::string& model_name = "");

  /// The optimizer's plan for an integration: chosen strategy, the cost
  /// estimate backing the decision, and a human-readable justification.
  Plan Explain(const IntegrationHandle& integration) const;

  /// The plan a trained model actually executed (including a forced
  /// strategy, which is recorded in the plan's explanation).
  const Plan& Explain(const ModelHandle& model) const { return model.plan(); }

 private:
  AmalurOptions options_;
  Catalog catalog_;
  /// Guards `last_integration_`; held only to read or swap the pointer.
  common::Mutex last_integration_mu_;
  /// The last successful integration, unnamed (see `Integrate`).
  std::shared_ptr<const IntegrationHandle> last_integration_
      GUARDED_BY(last_integration_mu_);
};

}  // namespace core
}  // namespace amalur
