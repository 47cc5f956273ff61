#include "replay.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/parallel_for.h"
#include "factorized/factorized_table.h"
#include "federated/vfl.h"
#include "integration/entity_resolution.h"
#include "integration/schema_matching.h"
#include "ml/linear_models.h"

namespace facadebench {

namespace {

namespace metadata = amalur::metadata;
namespace rel = amalur::rel;

Status Mismatch(const std::string& what) {
  return Status::Internal("replay differs from the facade: ", what);
}

size_t SourceIndex(const std::vector<std::string>& names,
                   const std::string& name) {
  return static_cast<size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

bool SameMatches(const std::vector<amalur::integration::ColumnMatch>& a,
                 const std::vector<amalur::integration::ColumnMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].left_column != b[i].left_column ||
        a[i].right_column != b[i].right_column ||
        !BitEqual(a[i].score, b[i].score)) {
      return false;
    }
  }
  return true;
}

bool SameMatching(const rel::RowMatching& a, const rel::RowMatching& b) {
  return a.matched == b.matched && a.left_only == b.left_only &&
         a.right_only == b.right_only;
}

/// The surrogate-key pairs of one edge: matched numeric parent columns the
/// facade kept out of the target schema (join evidence, not features).
void EdgeKeys(const core::IntegrationHandle& handle, size_t edge,
              const rel::Table& parent, size_t parent_index,
              const rel::Table& child, std::vector<std::string>* parent_keys,
              std::vector<std::string>* child_keys) {
  const std::vector<std::string> mapped =
      handle.mapping.MappedColumns(parent_index);
  const std::set<std::string> mapped_set(mapped.begin(), mapped.end());
  for (const auto& match : handle.edge_matches[edge]) {
    const rel::Column& column = parent.column(match.left_column);
    if (column.type() == rel::DataType::kString) continue;
    if (mapped_set.count(column.name()) > 0) continue;
    parent_keys->push_back(column.name());
    child_keys->push_back(child.column(match.right_column).name());
  }
}

Status CompareMetadata(const metadata::DiMetadata& replayed,
                       const metadata::DiMetadata& facade) {
  if (replayed.target_rows() != facade.target_rows() ||
      replayed.target_cols() != facade.target_cols() ||
      replayed.num_sources() != facade.num_sources()) {
    return Mismatch("derived target shape");
  }
  for (size_t k = 0; k < facade.num_sources(); ++k) {
    if (replayed.source(k).indicator.values() !=
        facade.source(k).indicator.values()) {
      return Mismatch("indicator of source " + facade.source(k).name);
    }
  }
  return Status::OK();
}

}  // namespace

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool BitEqual(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void TimedMessageBus::Send(const std::string& from, const std::string& to,
                           la::DenseMatrix payload) {
  ScopedSpan span(tracer_, "federated.wire");
  MessageBus::Send(from, to, std::move(payload));
}

void TimedMessageBus::SendBytes(const std::string& from, const std::string& to,
                                std::vector<uint64_t> payload) {
  ScopedSpan span(tracer_, "federated.wire");
  MessageBus::SendBytes(from, to, std::move(payload));
}

void TimedMessageBus::SendCiphertextWords(const std::string& from,
                                          const std::string& to,
                                          std::vector<uint64_t> packed) {
  ScopedSpan span(tracer_, "federated.wire");
  MessageBus::SendCiphertextWords(from, to, std::move(packed));
}

amalur::Result<la::DenseMatrix> TimedMessageBus::Receive(
    const std::string& from, const std::string& to) {
  ScopedSpan span(tracer_, "federated.wire");
  return MessageBus::Receive(from, to);
}

amalur::Result<std::vector<uint64_t>> TimedMessageBus::ReceiveBytes(
    const std::string& from, const std::string& to) {
  ScopedSpan span(tracer_, "federated.wire");
  return MessageBus::ReceiveBytes(from, to);
}

Status ReplayIntegrate(const core::IntegrationHandle& handle,
                       const std::vector<const rel::Table*>& tables,
                       const core::AmalurOptions& options,
                       Derivation derivation, Tracer* tracer, uint64_t phase) {
  const size_t n_edges = handle.edges.size();
  if (tables.size() != handle.source_names.size() ||
      handle.edge_matches.size() != n_edges ||
      handle.matchings.size() != n_edges) {
    return Mismatch("handle shape");
  }
  std::vector<metadata::MetadataEdge> edges;
  for (const core::IntegrationEdge& edge : handle.edges) {
    edges.push_back({SourceIndex(handle.source_names, edge.left),
                     SourceIndex(handle.source_names, edge.right),
                     edge.kind});
  }

  for (size_t e = 0; e < n_edges; ++e) {
    std::vector<amalur::integration::ColumnMatch> matches;
    {
      ScopedSpan span(tracer, "integration.match_schemas", phase);
      matches = amalur::integration::MatchSchemas(
          *tables[edges[e].parent], *tables[edges[e].child], options.matcher);
    }
    if (!SameMatches(matches, handle.edge_matches[e])) {
      return Mismatch("column matches of edge " + handle.edges[e].left + "->" +
                      handle.edges[e].right);
    }
  }

  for (size_t e = 0; e < n_edges; ++e) {
    if (edges[e].kind == rel::JoinKind::kUnion) continue;
    const rel::Table& parent = *tables[edges[e].parent];
    const rel::Table& child = *tables[edges[e].child];
    std::vector<std::string> parent_keys, child_keys;
    EdgeKeys(handle, e, parent, edges[e].parent, child, &parent_keys,
             &child_keys);
    amalur::Result<rel::RowMatching> matching = rel::RowMatching{};
    if (!parent_keys.empty()) {
      ScopedSpan span(tracer, "relational.match_rows", phase);
      matching = rel::MatchRowsOnKeys(parent, child, parent_keys, child_keys);
    } else {
      ScopedSpan span(tracer, "integration.resolve_entities", phase);
      matching = amalur::integration::ResolveEntities(
          parent, child, handle.edge_matches[e], options.resolver);
    }
    AMALUR_RETURN_NOT_OK(matching.status());
    if (!SameMatching(*matching, handle.matchings[e])) {
      return Mismatch("row matching of edge " + handle.edges[e].left + "->" +
                      handle.edges[e].right);
    }
  }

  uint64_t derive_span = 0;
  amalur::Result<metadata::DiMetadata> derived = metadata::DiMetadata{};
  {
    ScopedSpan span(tracer, "metadata.derive", phase);
    derive_span = span.id();
    switch (derivation) {
      case Derivation::kPair:
        derived = metadata::DiMetadata::Derive(handle.mapping, tables,
                                               handle.matchings[0]);
        break;
      case Derivation::kStar:
        derived = metadata::DiMetadata::DeriveStar(handle.mapping, tables,
                                                   handle.matchings);
        break;
      case Derivation::kGraph:
        derived = metadata::DiMetadata::DeriveGraph(handle.mapping, tables,
                                                    edges, handle.matchings);
        break;
    }
  }
  AMALUR_RETURN_NOT_OK(derived.status());
  AMALUR_RETURN_NOT_OK(CompareMetadata(*derived, handle.metadata));

  // DuplicateRatio runs inside the derivation; re-run it per source over the
  // same columns the derivation uses (the mapped ones, in mapping order).
  double source_cells = 0.0;
  for (size_t k = 0; k < tables.size(); ++k) {
    std::vector<size_t> columns;
    for (const std::string& name : handle.mapping.MappedColumns(k)) {
      AMALUR_ASSIGN_OR_RETURN(size_t index, tables[k]->ColumnIndex(name));
      columns.push_back(index);
    }
    double ratio = 0.0;
    {
      ScopedSpan span(tracer, "integration.duplicate_ratio", derive_span);
      ratio = amalur::integration::DuplicateRatio(*tables[k], columns);
    }
    if (!BitEqual(ratio, handle.metadata.source(k).duplicate_ratio)) {
      return Mismatch("duplicate ratio of " + handle.source_names[k]);
    }
    const la::DenseMatrix& data = handle.metadata.source(k).data;
    source_cells += static_cast<double>(data.rows() * data.cols());
  }
  if (tracer != nullptr) {
    tracer->Count(phase, "metadata.target_cells",
                  static_cast<double>(handle.metadata.target_rows() *
                                      handle.metadata.target_cols()));
    tracer->Count(phase, "metadata.source_cells", source_cells);
  }
  return Status::OK();
}

Status ReplayTrain(const core::Amalur& system,
                   const core::IntegrationHandle& integration,
                   const core::TrainRequest& request,
                   const core::ModelHandle& model, Tracer* tracer,
                   uint64_t phase) {
  core::Plan plan;
  {
    ScopedSpan span(tracer, "cost.plan", phase);
    plan = system.Explain(integration);
  }
  const core::ExecutionStrategy strategy =
      request.force_strategy.value_or(plan.strategy);
  if (strategy != model.outcome().strategy_used) {
    return Mismatch("planned strategy");
  }
  const auto label =
      integration.metadata.target_schema().IndexOf(request.label_column);
  if (!label.has_value()) return Mismatch("label column");
  amalur::common::ScopedNumThreads threads(request.num_threads);

  switch (strategy) {
    case core::ExecutionStrategy::kFactorize: {
      std::shared_ptr<const amalur::factorized::FactorizedTable> table;
      {
        ScopedSpan span(tracer, "factorized.plan_build", phase);
        table = std::make_shared<amalur::factorized::FactorizedTable>(
            integration.metadata);
      }
      const amalur::ml::FactorizedFeatures features(table, *label);
      la::DenseMatrix labels;
      {
        ScopedSpan span(tracer, "factorized.labels", phase);
        labels = features.Labels();
      }
      const TimedTrainingMatrix timed(features, tracer);
      amalur::ml::LinearModel trained;
      {
        ScopedSpan span(tracer, "ml.gd", phase);
        trained =
            request.task == core::TrainingTask::kLogisticRegression
                ? amalur::ml::TrainLogisticRegression(timed, labels, request.gd)
                : amalur::ml::TrainLinearRegression(timed, labels, request.gd);
      }
      if (!BitEqual(trained.weights, model.weights()) ||
          trained.loss_history != model.outcome().loss_history) {
        return Mismatch("factorized weights or loss history");
      }
      if (tracer != nullptr) {
        tracer->Count(phase, "ml.iterations",
                      static_cast<double>(trained.loss_history.size()));
      }
      return Status::OK();
    }
    case core::ExecutionStrategy::kFederate: {
      if (integration.metadata.IsHorizontallyPartitioned()) {
        return Status::Unimplemented("replay of horizontal FL");
      }
      amalur::federated::NaryVflAlignment alignment;
      {
        ScopedSpan span(tracer, "federated.align", phase);
        AMALUR_ASSIGN_OR_RETURN(alignment, amalur::federated::AlignForVflNary(
                                               integration.metadata, *label));
      }
      amalur::federated::VflOptions options;
      options.iterations = request.gd.iterations;
      options.learning_rate = request.gd.learning_rate;
      options.l2 = request.gd.l2;
      options.privacy = request.privacy;
      options.policy = request.federated_policy;
      TimedMessageBus bus(tracer);
      amalur::Result<amalur::federated::NaryVflResult> result =
          amalur::federated::NaryVflResult{};
      {
        ScopedSpan span(tracer, "federated.train", phase);
        result = amalur::federated::TrainVerticalFlrNary(
            alignment.parties, alignment.labels, options, &bus);
      }
      AMALUR_RETURN_NOT_OK(result.status());
      // Scatter θ_k back into target-feature order, as the executor does.
      la::DenseMatrix weights(integration.metadata.target_cols() - 1, 1);
      for (size_t k = 0; k < alignment.parties.size(); ++k) {
        const std::vector<size_t>& columns = alignment.parties[k].columns;
        for (size_t j = 0; j < columns.size(); ++j) {
          const size_t feature =
              columns[j] < *label ? columns[j] : columns[j] - 1;
          weights.At(feature, 0) = result->thetas[k].At(j, 0);
        }
      }
      if (!BitEqual(weights, model.weights()) ||
          result->loss_history != model.outcome().loss_history ||
          result->bytes_transferred != model.outcome().bytes_transferred) {
        return Mismatch("federated weights, loss history or bytes");
      }
      if (tracer != nullptr) {
        tracer->Count(phase, "federated.messages",
                      static_cast<double>(bus.TotalMessages()));
        tracer->Count(phase, "federated.bytes",
                      static_cast<double>(bus.TotalBytes()));
      }
      return Status::OK();
    }
    case core::ExecutionStrategy::kMaterialize:
      break;
  }
  return Status::Unimplemented("replay of materialized training");
}

Status ReplayDeploy(const core::ModelHandle& model,
                    const serving::DeployedModel& deployed, Tracer* tracer,
                    uint64_t phase) {
  std::shared_ptr<serving::DeployedModel> snapshot;
  uint64_t snapshot_span = 0;
  {
    ScopedSpan span(tracer, "serving.snapshot", phase);
    snapshot_span = span.id();
    AMALUR_ASSIGN_OR_RETURN(snapshot,
                            serving::DeployedModel::Create(deployed.name(),
                                                           model));
  }
  // Create extracted the partial scores internally; re-run the extraction
  // over the same factorized view and the same padded weights.
  std::shared_ptr<const amalur::factorized::FactorizedTable> table =
      model.factorized_table();
  if (table == nullptr) {
    if (model.metadata() == nullptr) return Mismatch("model without data");
    ScopedSpan span(tracer, "factorized.plan_build", snapshot_span);
    table = std::make_shared<amalur::factorized::FactorizedTable>(
        *model.metadata());
  }
  la::DenseMatrix target_weights(table->cols(), 1);
  for (size_t j = 0, f = 0; j < table->cols(); ++j) {
    if (j != model.label_index()) target_weights.At(j, 0) = model.weights().At(f++, 0);
  }
  amalur::factorized::PartialScores partials;
  {
    ScopedSpan span(tracer, "factorized.partial_scores", snapshot_span);
    partials = table->ExtractPartialScores(target_weights);
  }

  std::vector<serving::RowRef> rows(deployed.rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i].row = i;
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix facade_scores,
                          deployed.PredictBatch(rows));
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix replay_scores,
                          snapshot->PredictBatch(rows));
  if (!BitEqual(facade_scores, replay_scores)) return Mismatch("snapshot scores");
  if (model.task() == core::TrainingTask::kLinearRegression) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!BitEqual(partials.ScoreRow(i), facade_scores.At(i, 0))) {
        return Mismatch("partial scores of row " + std::to_string(i));
      }
    }
  }
  if (tracer != nullptr) {
    const serving::ServingStats stats = deployed.stats();
    tracer->Count(phase, "serving.cache_hits",
                  static_cast<double>(stats.cache_hits));
    tracer->Count(phase, "serving.rows", static_cast<double>(stats.rows));
  }
  return Status::OK();
}

}  // namespace facadebench
