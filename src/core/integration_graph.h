#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/catalog.h"
#include "metadata/di_metadata.h"

/// \file integration_graph.h
/// The graph planner behind every `IntegrationSpec`: validates an edge set
/// (connected, acyclic, one fact root, unions only between fact shards, at
/// most one parent per *fact*, full-outer edges only on one-edge specs) and
/// emits a topological plan — sources ordered root first, shard-major,
/// with every edge's parent preceding its child — the exact layout
/// `DiMetadata::DeriveGraph` requires. The plan does not classify the
/// graph's shape: `Amalur::Integrate` runs one per-edge pipeline over any
/// plan, and the derived metadata reports the shape. Graphs are DAGs, not
/// trees: a dimension referenced by several join edges (a warehouse
/// *conformed dimension* — one `date` or `customer` table serving two
/// parents) is visited once, after its last parent, and its parent edges
/// are emitted together.

namespace amalur {
namespace core {

/// A validated, topologically ordered integration graph.
struct IntegrationGraphPlan {
  /// Sources in topological order: the fact root first, each shard's fact
  /// before its dimension subtree, shards in union order.
  std::vector<std::string> sources;
  /// The edges reordered so parents precede children (depth-first from the
  /// root: join children before union siblings).
  std::vector<IntegrationEdge> edges;
  /// The same edges with endpoints resolved to indices into `sources`.
  std::vector<metadata::MetadataEdge> metadata_edges;

  /// The fact root's name (== sources[0]).
  const std::string& root() const { return sources.front(); }
};

/// Validates `edges` and plans the traversal. `declared_sources`, when
/// non-empty, is the spec's explicit source list: every edge endpoint must
/// appear in it and every declared source must be reached by an edge.
/// Malformed graphs return `kInvalidArgument` with a precise message
/// (self-loop, duplicate edge, unknown source, a multi-parent fact shard,
/// cycle, disconnected graph, union under a dimension, non-pairwise full
/// outer edges).
Result<IntegrationGraphPlan> PlanIntegrationGraph(
    const std::vector<IntegrationEdge>& edges,
    const std::vector<std::string>& declared_sources);

}  // namespace core
}  // namespace amalur
