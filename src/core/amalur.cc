#include "core/amalur.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "core/integration_graph.h"
#include "factorized/factorized_table.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/training_matrix.h"
#include "relational/row_index.h"

namespace amalur {
namespace core {

namespace {

bool IsNumeric(const rel::Column& column) {
  return column.type() != rel::DataType::kString;
}

/// Stops at the first repeat; the index grows with the rows it has seen.
bool AllValuesDistinct(const rel::Column& column) {
  rel::RowIndex seen;
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsNull(i)) continue;
    const size_t first = seen.FindOrInsert(
        column.CellHash(i), i,
        [&column](size_t row) { return column.CellHash(row); },
        [&](size_t row) { return column.CellsEqual(row, i); });
    if (first != i) return false;
  }
  return true;
}

/// Identifier detection: a matched numeric pair is a surrogate key (join
/// evidence, not a feature) when its name looks like an id and its values
/// are unique in at least one source (the primary-key side; the foreign-key
/// side repeats under join fan-out). A name ending in "id" counts only when
/// both columns are int64, so measurements such as `lipid` or `humid` stay
/// features. Keys as features poison downstream models; this is standard
/// feature-selection hygiene in DI-for-ML pipelines.
bool IsIdLikePair(const rel::Column& left, const rel::Column& right) {
  static const std::set<std::string> kIdNames{"id",  "key", "k",    "pk",
                                              "uid", "nr",  "rowid"};
  const std::string name = CanonicalizeIdentifier(left.name());
  const bool int64_pair = left.type() == rel::DataType::kInt64 &&
                          right.type() == rel::DataType::kInt64;
  const bool id_name =
      kIdNames.count(name) > 0 ||
      (int64_pair && name.size() > 2 && name.substr(name.size() - 2) == "id");
  return id_name && (AllValuesDistinct(left) || AllValuesDistinct(right));
}

/// Claims a unique target-column name (collisions get a numeric suffix).
class NameClaimer {
 public:
  std::string Claim(const std::string& name) {
    std::string out = name;
    int suffix = 2;
    while (used_.count(out) > 0) out = name + "_" + std::to_string(suffix++);
    used_.insert(out);
    return out;
  }

 private:
  std::set<std::string> used_;
};

/// Normalizes a spec into its edge-list form and plans the graph. The flat
/// `sources`/`relationships` form is validated as before (a single
/// relationship broadcast over all edges, stars restricted to left joins)
/// and then lowered into edges off the base, `sources[0]`; an explicit edge
/// list goes straight to the graph planner, which enforces connectivity,
/// acyclicity and the one-fact-root/union placement rules with precise
/// error messages.
Result<IntegrationGraphPlan> NormalizeSpec(const IntegrationSpec& spec) {
  if (!spec.edges.empty()) {
    return PlanIntegrationGraph(spec.edges, spec.sources);
  } else {
    const std::vector<std::string>& sources = spec.sources;
    if (sources.size() < 2) {
      return Status::InvalidArgument("an integration needs >= 2 sources, got ",
                                     sources.size());
    }
    std::set<std::string> unique(sources.begin(), sources.end());
    if (unique.size() != sources.size()) {
      return Status::InvalidArgument("duplicate source in integration spec");
    }
    const size_t edges = sources.size() - 1;
    std::vector<rel::JoinKind> relationships = spec.relationships;
    if (relationships.size() == 1) {
      relationships.assign(edges, relationships[0]);
    } else if (relationships.size() != edges) {
      return Status::InvalidArgument("expected one relationship per edge (",
                                     edges, " edges) or a single broadcast "
                                     "relationship, got ",
                                     relationships.size());
    }
    if (sources.size() > 2) {
      for (rel::JoinKind kind : relationships) {
        if (kind != rel::JoinKind::kLeftJoin) {
          return Status::InvalidArgument(
              "star integrations (>= 3 sources) require the left-join "
              "relationship on every edge, got ", rel::JoinKindToString(kind),
              "; use the edge-list spec form for mixed-relationship graphs");
        }
      }
    }
    std::vector<IntegrationEdge> lowered;
    for (size_t e = 0; e < edges; ++e) {
      lowered.push_back({sources[0], sources[e + 1], relationships[e]});
    }
    return PlanIntegrationGraph(lowered, sources);
  }
}

/// True when `handle` integrated the graph `plan` describes: the same
/// sources in the same order and the same edges.
bool SameGraph(const IntegrationHandle& handle,
               const IntegrationGraphPlan& plan) {
  return handle.source_names == plan.sources &&
         std::equal(handle.edges.begin(), handle.edges.end(),
                    plan.edges.begin(), plan.edges.end(),
                    [](const IntegrationEdge& a, const IntegrationEdge& b) {
                      return a.left == b.left && a.right == b.right &&
                             a.kind == b.kind;
                    });
}

/// The integration pipeline of `Amalur::Integrate` over a planned graph:
/// everything but the name and the catalog registration.
Result<IntegrationHandle> RunPipeline(const IntegrationGraphPlan& plan,
                                      const Catalog& catalog,
                                      const AmalurOptions& options) {
  const size_t n_sources = plan.sources.size();
  std::vector<const SourceEntry*> entries(n_sources);
  for (size_t k = 0; k < n_sources; ++k) {
    AMALUR_ASSIGN_OR_RETURN(entries[k], catalog.GetSource(plan.sources[k]));
  }

  IntegrationHandle handle;
  handle.source_names = plan.sources;
  handle.edges = plan.edges;
  for (const SourceEntry* entry : entries) {
    handle.privacy_constrained |= entry->privacy_sensitive;
  }

  // ---- 1. Per-edge schema matching and key discovery, walking the graph
  // in topological order. Join edges (left or inner) need a key (or ER
  // evidence) between parent and child; union edges need overlapping
  // columns to merge. A conformed dimension is matched against every
  // parent. A node's key columns — from *any* incident edge — never become
  // features.
  struct EdgePlan {
    std::vector<std::string> parent_keys;  // numeric surrogate keys
    std::vector<std::string> child_keys;
    /// child column index -> matched parent column index (merged features).
    std::map<size_t, size_t> merged;
    std::vector<integration::SourceColumnMatch> source_matches;
  };
  const size_t n_edges = plan.metadata_edges.size();
  std::vector<EdgePlan> edge_plans(n_edges);
  std::vector<std::set<std::string>> key_columns(n_sources);
  for (size_t e = 0; e < n_edges; ++e) {
    const metadata::MetadataEdge& edge = plan.metadata_edges[e];
    const rel::Table& parent = entries[edge.parent]->table;
    const rel::Table& child = entries[edge.child]->table;
    std::vector<integration::ColumnMatch> matches =
        integration::MatchSchemas(parent, child, options.matcher);
    if (matches.empty()) {
      if (edge.kind == rel::JoinKind::kUnion) {
        return Status::FailedPrecondition(
            "no column matches between fact shards '",
            plan.sources[edge.parent], "' and '", plan.sources[edge.child],
            "'; a union edge needs overlapping columns");
      }
      return Status::FailedPrecondition(
          "no column matches between '", plan.sources[edge.parent],
          "' and '", plan.sources[edge.child],
          "'; a join edge needs a shared key column");
    }
    for (const integration::ColumnMatch& match : matches) {
      const rel::Column& left = parent.column(match.left_column);
      const rel::Column& right = child.column(match.right_column);
      if (!IsNumeric(left)) {
        edge_plans[e].source_matches.push_back(
            {edge.parent, left.name(), edge.child, right.name()});
      } else if (IsIdLikePair(left, right)) {
        // Surrogate keys: join evidence on join edges; on union edges they
        // are still excluded from the feature space (keys poison models)
        // and recorded as inter-shard correspondence.
        key_columns[edge.parent].insert(left.name());
        key_columns[edge.child].insert(right.name());
        edge_plans[e].source_matches.push_back(
            {edge.parent, left.name(), edge.child, right.name()});
        if (edge.kind != rel::JoinKind::kUnion) {
          edge_plans[e].parent_keys.push_back(left.name());
          edge_plans[e].child_keys.push_back(right.name());
        }
      } else {
        edge_plans[e].merged[match.right_column] = match.left_column;
      }
    }
    handle.edge_matches.push_back(std::move(matches));
  }

  // ---- 2. Target-schema synthesis in topological order: each node's
  // non-key numeric columns either merge into the target column of the
  // parent column they matched (overlapping features across a join edge;
  // shared shard columns across a union edge) or claim a fresh target
  // column. A conformed dimension is visited once — its columns land in the
  // target exactly once however many parents reference it; merge evidence
  // is taken from any of its parent edges, first match in declaration
  // order. A column matched to a parent *key* (which has no target column)
  // stays a feature of its own rather than silently dropping.
  std::vector<std::vector<size_t>> parent_edges_of(n_sources);
  for (size_t e = 0; e < n_edges; ++e) {
    parent_edges_of[plan.metadata_edges[e].child].push_back(e);
  }
  NameClaimer names;
  std::vector<rel::Field> target_fields;
  std::vector<std::vector<integration::ColumnCorrespondence>> corr(n_sources);
  std::vector<std::vector<std::string>> target_name_of(n_sources);
  for (size_t k = 0; k < n_sources; ++k) {
    const rel::Table& table = entries[k]->table;
    target_name_of[k].assign(table.NumColumns(), "");
    for (size_t j = 0; j < table.NumColumns(); ++j) {
      const rel::Column& column = table.column(j);
      if (!IsNumeric(column) || key_columns[k].count(column.name()) > 0) {
        continue;
      }
      bool merged_into_parent = false;
      for (size_t pe : parent_edges_of[k]) {
        const EdgePlan& eplan = edge_plans[pe];
        auto merged = eplan.merged.find(j);
        if (merged == eplan.merged.end()) continue;
        const size_t parent = plan.metadata_edges[pe].parent;
        const std::string& parent_target =
            target_name_of[parent][merged->second];
        if (!parent_target.empty()) {
          corr[k].push_back({column.name(), parent_target});
          target_name_of[k][j] = parent_target;
          merged_into_parent = true;
          break;
        }
      }
      if (merged_into_parent) continue;
      const std::string target_name = names.Claim(column.name());
      target_fields.push_back({target_name, column.type(), true});
      corr[k].push_back({column.name(), target_name});
      target_name_of[k][j] = target_name;
    }
  }
  if (target_fields.empty()) {
    return Status::FailedPrecondition("no numeric columns to integrate");
  }

  std::vector<integration::SchemaMapping::SourceSpec> source_specs;
  std::vector<integration::SourceColumnMatch> source_matches;
  for (size_t k = 0; k < n_sources; ++k) {
    source_specs.push_back({plan.sources[k], entries[k]->table.schema(),
                            std::move(corr[k])});
  }
  for (const EdgePlan& eplan : edge_plans) {
    source_matches.insert(source_matches.end(), eplan.source_matches.begin(),
                          eplan.source_matches.end());
  }
  AMALUR_ASSIGN_OR_RETURN(
      handle.mapping,
      integration::SchemaMapping::Create(
          metadata::GraphMappingKind(plan.metadata_edges),
          std::move(source_specs),
          rel::Schema(std::move(target_fields)), std::move(source_matches)));

  // ---- 3. Row matching per join edge (exact keys when a surrogate key was
  // discovered, fuzzy entity resolution otherwise); union edges match no
  // rows and keep an empty placeholder so matchings stay parallel to edges.
  for (size_t e = 0; e < n_edges; ++e) {
    const metadata::MetadataEdge& edge = plan.metadata_edges[e];
    rel::RowMatching matching;
    if (edge.kind != rel::JoinKind::kUnion) {
      const rel::Table& parent = entries[edge.parent]->table;
      const rel::Table& child = entries[edge.child]->table;
      if (!edge_plans[e].parent_keys.empty()) {
        AMALUR_ASSIGN_OR_RETURN(
            matching,
            rel::MatchRowsOnKeys(parent, child, edge_plans[e].parent_keys,
                                 edge_plans[e].child_keys));
      } else {
        AMALUR_ASSIGN_OR_RETURN(
            matching,
            integration::ResolveEntities(parent, child, handle.edge_matches[e],
                                         options.resolver));
      }
    }
    handle.matchings.push_back(std::move(matching));
  }

  // ---- 4. The three metadata matrices, one derivation for every spec.
  std::vector<const rel::Table*> tables;
  tables.reserve(n_sources);
  for (const SourceEntry* entry : entries) tables.push_back(&entry->table);
  AMALUR_ASSIGN_OR_RETURN(
      handle.metadata,
      metadata::DiMetadata::DeriveGraph(handle.mapping, tables,
                                        plan.metadata_edges, handle.matchings));
  handle.shape = handle.metadata.shape();
  return handle;
}

}  // namespace

Result<IntegrationHandle> Amalur::Integrate(const std::string& base_name,
                                            const std::string& other_name,
                                            rel::JoinKind kind) {
  IntegrationSpec spec;
  spec.sources = {base_name, other_name};
  spec.relationships = {kind};
  return Integrate(spec);
}

Result<IntegrationHandle> Amalur::Integrate(const IntegrationSpec& spec) {
  AMALUR_ASSIGN_OR_RETURN(const IntegrationGraphPlan plan, NormalizeSpec(spec));
  std::shared_ptr<const IntegrationHandle> last;
  {
    common::MutexLock lock(last_integration_mu_);
    last = last_integration_;
  }
  const bool hit = last != nullptr && SameGraph(*last, plan);
  if (!hit) {
    AMALUR_ASSIGN_OR_RETURN(IntegrationHandle derived,
                            RunPipeline(plan, catalog_, options_));
    last = std::make_shared<const IntegrationHandle>(std::move(derived));
  }
  IntegrationHandle handle = *last;
  handle.name = spec.name;
  if (!handle.name.empty()) {
    AMALUR_RETURN_NOT_OK(catalog_.RegisterIntegration(handle));
  }
  if (!hit) {
    // The replaced integration is released after the lock, on return.
    common::MutexLock lock(last_integration_mu_);
    last_integration_.swap(last);
  }
  return handle;
}

Plan Amalur::Explain(const IntegrationHandle& integration) const {
  return Optimizer(options_.cost)
      .Choose(integration.metadata, integration.privacy_constrained);
}

Result<ModelHandle> Amalur::Train(const IntegrationHandle& integration,
                                  const TrainRequest& request,
                                  const std::string& model_name) {
  // Every strategy divides by the row count; an empty target (say, an inner
  // join whose keys never match) is the integration's problem, not the
  // optimizer's or the learning rate's.
  if (integration.metadata.target_rows() == 0) {
    std::string sources;
    for (const std::string& source : integration.source_names) {
      sources += (sources.empty() ? "" : ", ") + source;
    }
    return Status::InvalidArgument(
        "the integration of {", sources,
        "} has an empty target table: no rows to train on (do the join "
        "keys match any rows?)");
  }
  Plan plan = Explain(integration);
  if (request.force_strategy.has_value()) {
    if (integration.privacy_constrained &&
        *request.force_strategy != ExecutionStrategy::kFederate) {
      return Status::FailedPrecondition(
          "cannot force the ", ExecutionStrategyToString(*request.force_strategy),
          " strategy: the integration is privacy-constrained and data may "
          "not leave the silos");
    }
    plan.explanation =
        std::string("forced to ") +
        ExecutionStrategyToString(*request.force_strategy) +
        " by the request (optimizer chose " +
        ExecutionStrategyToString(plan.strategy) + "); " + plan.explanation;
    plan.strategy = *request.force_strategy;
  }
  Executor executor;
  AMALUR_ASSIGN_OR_RETURN(TrainOutcome outcome,
                          executor.Run(integration.metadata, plan, request));
  plan.explanation += "; executed with " +
                      std::to_string(outcome.threads_used) +
                      (outcome.threads_used == 1 ? " thread" : " threads");
  if (outcome.strategy_used == ExecutionStrategy::kFederate) {
    // Per-run federated accounting lands in the executed plan so `Explain`
    // answers "how many silos, how many rounds, how many bytes" directly.
    plan.explanation += "; federated: " +
                        std::to_string(outcome.federated_silos) + " silos, " +
                        std::to_string(outcome.federated_rounds) +
                        " rounds, " +
                        std::to_string(outcome.bytes_transferred) +
                        " bytes transferred";
  }

  ModelHandle model;
  model.name_ = model_name;
  model.task_ = request.task;
  model.label_column_ = request.label_column;
  for (const std::string& name : integration.metadata.target_schema().Names()) {
    if (name != request.label_column) model.feature_names_.push_back(name);
  }
  model.source_names_ = integration.source_names;
  model.plan_ = plan;
  model.outcome_ = std::move(outcome);
  // In-sample serving state: the integration's metadata, whose copies share
  // one state (the handle must outlive the integration). The label
  // position was validated by the executor.
  model.label_index_ =
      *integration.metadata.target_schema().IndexOf(request.label_column);
  model.metadata_ =
      std::make_shared<const metadata::DiMetadata>(integration.metadata);

  if (!model_name.empty()) {
    ModelEntry entry;
    entry.name = model_name;
    entry.task = TrainingTaskToString(request.task);
    entry.hyperparameters = {
        {"iterations", static_cast<double>(request.gd.iterations)},
        {"learning_rate", request.gd.learning_rate},
        {"l2", request.gd.l2}};
    entry.metric = model.outcome_.loss_history.empty()
                       ? 0.0
                       : model.outcome_.loss_history.back();
    entry.training_sources = integration.source_names;
    entry.strategy = ExecutionStrategyToString(model.outcome_.strategy_used);
    AMALUR_RETURN_NOT_OK(catalog_.RegisterModel(std::move(entry)));
  }
  return model;
}

namespace {

/// Resolves a training-schema column in holdout data *by name* — serving
/// must never trust positional order (a shuffled holdout table would
/// silently score features against the wrong weights). Missing or
/// non-numeric columns are the caller's data problem: `kInvalidArgument`.
Result<size_t> ResolveServingColumn(const rel::Table& data,
                                    const std::string& name,
                                    const char* role) {
  auto index = data.ColumnIndex(name);
  if (!index.ok()) {
    return Status::InvalidArgument(
        "holdout data is missing ", role, " column '", name,
        "' of the training schema; serving aligns columns by name");
  }
  if (data.column(*index).type() == rel::DataType::kString) {
    return Status::InvalidArgument(
        "holdout column '", name, "' is a string column but the training "
        "schema expects a numeric ", role);
  }
  return *index;
}

}  // namespace

Result<la::DenseMatrix> ModelHandle::Predict(const rel::Table& data) const {
  // A zero-row holdout table is well-formed input (e.g. an empty shard or a
  // filter that matched nothing): the contract is an empty 0 x 1 score
  // matrix, guaranteed here regardless of backend behavior. Schema
  // validation still applies below — a zero-row table with a *wrong* schema
  // stays kInvalidArgument.
  std::vector<size_t> indices;
  indices.reserve(feature_names_.size());
  for (const std::string& name : feature_names_) {
    AMALUR_ASSIGN_OR_RETURN(size_t index,
                            ResolveServingColumn(data, name, "feature"));
    indices.push_back(index);
  }
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix features, data.ToMatrix(indices));
  return PredictOver(ml::MaterializedMatrix(std::move(features)));
}

la::DenseMatrix ModelHandle::PredictOver(
    const ml::TrainingMatrix& features) const {
  return task_ == TrainingTask::kLogisticRegression
             ? ml::PredictLogistic(features, outcome_.weights)
             : ml::PredictLinear(features, outcome_.weights);
}

std::shared_ptr<const factorized::FactorizedTable>
ModelHandle::factorized_table() const {
  if (metadata_ == nullptr) return nullptr;
  return std::make_shared<const factorized::FactorizedTable>(*metadata_);
}

Result<std::shared_ptr<const factorized::FactorizedTable>>
ModelHandle::InSampleView() const {
  if (metadata_ == nullptr) {
    return Status::FailedPrecondition(
        "this model handle carries no integration data; train it through "
        "Amalur::Train first");
  }
  return factorized_table();
}

Result<la::DenseMatrix> ModelHandle::Predict() const {
  // Silo pushdown: the LMM runs over the source matrices through the same
  // training-matrix view the factorized trainer uses — no rT x cT
  // intermediate.
  AMALUR_ASSIGN_OR_RETURN(auto table, InSampleView());
  return PredictOver(ml::FactorizedFeatures(std::move(table), label_index_));
}

EvaluationReport MakeEvaluationReport(TrainingTask task,
                                      const la::DenseMatrix& predictions,
                                      const la::DenseMatrix& labels) {
  EvaluationReport report;
  report.rows = predictions.rows();
  report.mse = ml::MeanSquaredError(predictions, labels);
  if (task == TrainingTask::kLogisticRegression) {
    report.log_loss = ml::LogLoss(predictions, labels);
    report.accuracy = ml::BinaryAccuracy(predictions, labels);
    report.primary = report.accuracy;
  } else {
    report.primary = report.mse;
  }
  return report;
}

Result<EvaluationReport> ModelHandle::Evaluate(const rel::Table& data) const {
  if (data.NumRows() == 0) {
    // Sharp edge: the metrics all define the empty average as 0.0, so a
    // zero-row holdout would yield an ok report with mse = 0 — an all-zero
    // report that impersonates a perfect model. Fail loudly instead.
    return Status::InvalidArgument(
        "cannot evaluate over the zero-row table '", data.name(),
        "': every metric would degenerate to 0 and read as a perfect score");
  }
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix predictions, Predict(data));
  AMALUR_ASSIGN_OR_RETURN(size_t label_index,
                          ResolveServingColumn(data, label_column_, "label"));
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix labels,
                          data.ToMatrix({label_index}));
  return MakeEvaluationReport(task_, predictions, labels);
}

Result<EvaluationReport> ModelHandle::Evaluate() const {
  AMALUR_ASSIGN_OR_RETURN(auto table, InSampleView());
  const ml::FactorizedFeatures features(std::move(table), label_index_);
  // The label column is gathered from the silos through the slot index.
  return MakeEvaluationReport(task_, PredictOver(features), features.Labels());
}

}  // namespace core
}  // namespace amalur
