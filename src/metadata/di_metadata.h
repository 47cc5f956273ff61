#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "integration/schema_mapping.h"
#include "metadata/indicator_matrix.h"
#include "metadata/mapping_matrix.h"
#include "metadata/redundancy_matrix.h"
#include "relational/join.h"
#include "relational/table.h"

/// \file di_metadata.h
/// The "tale of three matrices" (§III): for one integration scenario, the
/// per-source processed data matrix `D_k`, compressed mapping `CM_k`,
/// compressed indicator `CI_k` and redundancy mask `R_k`, derived from a
/// schema mapping and one row matching per source pair (entity-resolution
/// output).
///
/// One derivation (`DiMetadata::DeriveGraph`) serves every Table I
/// relationship and graph shape, with one row rule: target rows start as
/// the fact shards' rows in order; each join edge maps a row to one row per
/// matched child row (a fan-out repeats the row), keeps an unmatched row
/// with the child absent (left join, full outer join) or drops it (inner
/// join); and a full outer join, legal only as a graph's only edge,
/// appends the child rows no parent row matched. A left-join target row i
/// is therefore fact row i. `rel::HashJoin` lays rows out matched-first
/// instead; it is a test reference, not this layer's row order.

namespace amalur {
namespace metadata {

/// Structural shape of an integration scenario's source graph. Pairwise is
/// the two-source form of §III; star/snowflake/union-of-stars are the n-ary
/// generalizations the edge-list `IntegrationSpec` describes: a star joins
/// one fact table to depth-1 dimensions, a snowflake chains dimensions of
/// dimensions, and a union-of-stars stacks horizontally partitioned fact
/// shards (each with its own dimension subtree) into one target. A
/// *conformed snowflake* is a snowflake whose join edges form a DAG rather
/// than a tree: at least one dimension (a warehouse "conformed dimension" —
/// think one `date` or `customer` table) is referenced by several parents,
/// yet appears exactly once in the target schema. Union-of-stars graphs may
/// also share a dimension between shards; they keep the union-of-stars
/// shape and report the shared count via `num_shared_dimensions()`.
enum class IntegrationShape : int8_t {
  kPairwise = 0,
  kStar = 1,
  kSnowflake = 2,
  kUnionOfStars = 3,
  kConformedSnowflake = 4,
};

const char* IntegrationShapeToString(IntegrationShape shape);

/// One edge of an integration graph over the `tables` of `DeriveGraph`,
/// by source index. `kLeftJoin` edges join a retained parent to a child
/// dimension; `kInnerJoin` edges do the same but additionally *restrict*
/// the target row set to rows where the child is present; `kUnion` edges
/// stack a sibling fact shard under the root; a `kFullOuterJoin` edge (a
/// graph's only edge) also keeps the child rows no parent row matched.
/// Several join edges may share one child — a conformed dimension.
struct MetadataEdge {
  size_t parent = 0;
  size_t child = 0;
  rel::JoinKind kind = rel::JoinKind::kLeftJoin;
};

/// The schema-mapping kind of an edge set: a union when any edge is a
/// union, the edge's own kind for a one-edge graph, otherwise a left join.
rel::JoinKind GraphMappingKind(const std::vector<MetadataEdge>& edges);

/// Everything the factorized runtime needs to know about one source.
struct SourceMetadata {
  std::string name;
  /// D_k: the source's mapped numeric columns (NULL -> 0), rS_k × cS_k.
  la::DenseMatrix data;
  /// Column names of D_k, in order.
  std::vector<std::string> column_names;
  CompressedMapping mapping;
  CompressedIndicator indicator;
  RedundancyMask redundancy;
  /// NULL fraction over the mapped columns (cost-model feature).
  double null_ratio = 0.0;
  /// Within-source exact-duplicate fraction over mapped columns
  /// (cost-model feature: "redundancy in source tables").
  double duplicate_ratio = 0.0;
};

/// A row index in the per-class row lists below and in the factorized
/// plans built from them: 32 bits halve the memory the kernels stream, and
/// targets and sources stay below 2^32 rows.
using RowId = uint32_t;

/// The target rows `source` contributes to (CI_k != -1), grouped into
/// redundancy row classes: entry c lists, ascending, the rows whose
/// `redundancy.row_set` is c − 1 (entry 0: the rows with nothing masked).
/// With `ignore_redundancy` there is one class holding every contributed
/// row. The factorized planner builds one plan per class and the cost model
/// counts each class's distinct source rows, so both group rows alike.
/// Two passes over the target rows; each list is allocated at its exact size.
std::vector<std::vector<RowId>> RowClassTargets(const SourceMetadata& source,
                                                bool ignore_redundancy = false);

/// Derived DI metadata for a full integration scenario.
class DiMetadata {
 public:
  /// Empty metadata (no sources); fill via `DeriveGraph`.
  DiMetadata() = default;

  /// A two-source scenario: `DeriveGraph` over the one edge
  /// `tables[0] -> tables[1]` of the mapping's kind, matched by `matching`
  /// (ignored for `kUnion`). A lowering kept for
  /// `facadebench/cpp/replay.cc` and the tests.
  static Result<DiMetadata> Derive(const integration::SchemaMapping& mapping,
                                   const std::vector<const rel::Table*>& tables,
                                   const rel::RowMatching& matching);

  /// An n-source *star*: `DeriveGraph` over the depth-1 left-join edges
  /// `tables[0] -> tables[k]`, matched by `matchings[k-1]`. A lowering kept
  /// for `facadebench/cpp/replay.cc` and the tests.
  static Result<DiMetadata> DeriveStar(
      const integration::SchemaMapping& mapping,
      const std::vector<const rel::Table*>& tables,
      const std::vector<rel::RowMatching>& matchings);

  /// Derives metadata for any integration *graph*: a DAG of sources rooted
  /// at `tables[0]` whose edges are joins (parent retained, child
  /// dimension) or unions (sibling fact shards). `Amalur::Integrate`
  /// derives every spec here. Rows follow the file comment's row rule; on
  /// top of it:
  ///
  ///  * **Snowflake** (dimension-of-dimension chains): a sub-dimension's
  ///    indicator is the *composition* of the matchings along its chain —
  ///    CI_sub[i] = m_dim→sub[ CI_dim[i] ] — so the factorized runtime sees
  ///    one fan-out per silo, however deep the chain.
  ///  * **Conformed dimensions** (a dimension with several join-edge
  ///    parents): each parent chain composes independently and the results
  ///    merge into ONE indicator — the dimension's columns appear once in
  ///    the target schema and its redundancy is counted once. Chains that
  ///    resolve a target row that reaches the target to *different*
  ///    dimension rows contradict the conformed contract and fail with
  ///    `kFailedPrecondition`, as does an edge into a conformed dimension
  ///    whose matching fans out.
  ///  * **Inner-join edges** drop a row of a shard that references the
  ///    edge's parent when *that edge's own* composed chain does not
  ///    resolve the child: a conformed dimension resolved through a
  ///    different parent's chain does not rescue the row.
  ///  * **Union-of-stars** (`kUnion` edges between fact shards): target rows
  ///    are the shard blocks stacked in source order; each shard's sources
  ///    get block-local indicators (-1 outside their shard), which makes
  ///    cross-shard redundancy vanish structurally. A dimension may be
  ///    shared between shards (its indicator is then defined in several
  ///    blocks).
  ///
  /// A one-edge graph has the `kPairwise` shape.
  ///
  /// Requirements: every edge satisfies `parent < child` (sources in
  /// topological order, root first), no (parent, child) pair repeats, every
  /// non-root source has >= 1 parent edge, fact shards (the root,
  /// union-edge children) have at most one, a `kFullOuterJoin` edge is the
  /// graph's only edge, `matchings[e]` relates `tables[edges[e].parent]`
  /// rows to `tables[edges[e].child]` rows without repeating a pair and is
  /// empty for union edges, and `mapping.kind()` is
  /// `GraphMappingKind(edges)`.
  static Result<DiMetadata> DeriveGraph(
      const integration::SchemaMapping& mapping,
      const std::vector<const rel::Table*>& tables,
      const std::vector<MetadataEdge>& edges,
      const std::vector<rel::RowMatching>& matchings);

  size_t num_sources() const { return sources_.size(); }
  const SourceMetadata& source(size_t k) const {
    AMALUR_CHECK_LT(k, sources_.size()) << "source index";
    return sources_[k];
  }
  size_t target_rows() const { return target_rows_; }
  size_t target_cols() const { return target_cols_; }
  const rel::Schema& target_schema() const { return target_schema_; }
  rel::JoinKind kind() const { return kind_; }
  /// Structural shape of the scenario's source graph (cost-model input and
  /// `Explain` payload).
  IntegrationShape shape() const { return shape_; }
  /// Number of horizontally stacked fact shards (1 unless union-of-stars).
  size_t num_shards() const { return num_shards_; }
  /// Shards with a non-empty target-row block — the ones that can actually
  /// participate in per-shard execution (an empty fact silo, or a shard
  /// fully dropped by an inner-join edge, contributes no rows). The single
  /// source of truth behind `AlignForHfl`'s participant set and the
  /// optimizer's FedAvg explanation.
  size_t num_active_shards() const {
    size_t active = 0;
    for (size_t s = 0; s + 1 < shard_offsets_.size(); ++s) {
      if (shard_offsets_[s] < shard_offsets_[s + 1]) ++active;
    }
    return active;
  }
  /// Longest key-join chain from a fact to a leaf dimension (1 for stars
  /// and pairwise joins, >= 2 for snowflakes, 0 for pure unions).
  size_t join_depth() const { return join_depth_; }
  /// Number of conformed (shared) dimensions: sources referenced by several
  /// join-edge parents (0 for trees).
  size_t num_shared_dimensions() const { return num_shared_dimensions_; }

  /// Whether the scenario is horizontally partitioned (a pairwise union or
  /// a union-of-stars). The single source of truth for the federated
  /// protocol choice: horizontal scenarios split by fact shard (FedAvg),
  /// vertical ones by silo (n-ary vertical FLR) — optimizer explanations
  /// and executor dispatch must agree through this predicate.
  bool IsHorizontallyPartitioned() const {
    return shape_ == IntegrationShape::kUnionOfStars ||
           kind_ == rel::JoinKind::kUnion;
  }

  /// Every shard whose row block source k's indicator can reach, ascending
  /// (a shard = one fact plus its dimension subtree; always {0} for
  /// join-only scenarios). A singleton for all tree-shaped graphs; a
  /// conformed dimension referenced from several shards lists each.
  /// Consumers assembling per-shard data iterate exactly these blocks (CI_k
  /// is -1 everywhere else).
  const std::vector<size_t>& shards_reaching(size_t k) const {
    AMALUR_CHECK_LT(k, source_shards_.size()) << "source index";
    return source_shards_[k];
  }
  /// Target-row block of shard s: rows [ShardRowBegin(s), ShardRowEnd(s)).
  /// Shard blocks are contiguous and stacked in shard order.
  size_t ShardRowBegin(size_t s) const {
    AMALUR_CHECK_LT(s + 1, shard_offsets_.size()) << "shard index";
    return shard_offsets_[s];
  }
  size_t ShardRowEnd(size_t s) const {
    AMALUR_CHECK_LT(s + 1, shard_offsets_.size()) << "shard index";
    return shard_offsets_[s + 1];
  }

  /// T_k = I_k D_k M_kᵀ — the source's (unmasked) contribution (Figure 4c).
  la::DenseMatrix SourceContribution(size_t k) const;

  /// T = Σ_k (T_k ∘ R_k): the materialized target in matrix form, absent
  /// cells as 0 (the paper's convention).
  la::DenseMatrix MaterializeTargetMatrix() const;

  /// Tuple ratio rT / rS_k and feature ratio cT / cS_k of source k — the
  /// Morpheus heuristic features (§IV.B).
  double TupleRatio(size_t k) const;
  double FeatureRatio(size_t k) const;

  std::string ToString() const;

 private:
  std::vector<SourceMetadata> sources_;
  size_t target_rows_ = 0;
  size_t target_cols_ = 0;
  rel::Schema target_schema_;
  rel::JoinKind kind_ = rel::JoinKind::kInnerJoin;
  IntegrationShape shape_ = IntegrationShape::kPairwise;
  size_t num_shards_ = 1;
  size_t join_depth_ = 1;
  size_t num_shared_dimensions_ = 0;
  /// Per-source reachable shards, ascending (parallel to `sources_`;
  /// singleton except for cross-shard conformed dimensions).
  std::vector<std::vector<size_t>> source_shards_;
  /// Shard target-row block boundaries (size num_shards_ + 1).
  std::vector<size_t> shard_offsets_;
};

}  // namespace metadata
}  // namespace amalur
