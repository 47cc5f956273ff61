#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
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

/// A row index in the row-slot index below and in the kernels that read it:
/// 32 bits halve the memory the kernels stream, and targets and sources
/// stay below 2^32 rows.
using RowId = uint32_t;

/// slot_k(i) of a target row that source k does not contribute to.
constexpr RowId kNoSlot = std::numeric_limits<RowId>::max();

/// One redundancy row class of one source: its target rows share the same
/// allowed (non-redundant) columns. Join fan-out is factored out: each
/// distinct D_k row of the class has one slot.
struct SlotClass {
  /// The class's distinct D_k rows, in slot order.
  std::vector<RowId> unique_source_rows;
  /// Allowed (D_k column, target column) pairs, in D_k column order.
  std::vector<size_t> dk_cols;
  std::vector<size_t> t_cols;  // parallel to dk_cols
  /// Slot of unique_source_rows[0], counted from the source's first slot.
  size_t first_slot = 0;
};

/// One source's non-empty classes and slot range.
struct SourceSlots {
  std::vector<SlotClass> classes;  // masked-set order
  size_t first_slot = 0;           // in the all-source slot numbering
  size_t num_slots = 0;
  size_t covered_rows = 0;  // target rows with CI_k != -1
};

/// **The row-slot index** of an integration, derived from CI_k, CM_k and
/// R_k alone. Each source k groups the target rows it contributes to into
/// redundancy row classes (class 0: nothing masked; class c: the rows whose
/// `redundancy.row_set` is c − 1) and numbers the distinct D_k rows of each
/// class with *slots*; the index keeps one slot per target row and source:
/// slot_k(i) is the slot of the D_k row that target row i reads in its
/// class, or `kNoSlot` where CI_k(i) = −1. Slots are class-major (class c's
/// follow class c−1's) and, inside a class, follow each D_k row's first
/// appearance in ascending target rows; source k's slots follow source
/// k−1's, so one per-slot buffer holds every source. A D_k row that sits in
/// two classes has one slot in each. The slot array is row-major (target
/// row i's slots, sources ascending, are adjacent), so a pass over the
/// target rows reads it in order. The factorized kernels and serving read
/// this index, and the cost model counts its cells.
struct RowSlotIndex {
  std::vector<SourceSlots> sources;
  /// rT × num_sources, row-major: slot_k(i) at [i * num_sources + k].
  std::vector<RowId> slots;
  /// Σ_k num_slots.
  size_t total_slots = 0;
};

class DiMetadata;

/// Builds the row-slot index of `metadata`, uncached. With
/// `ignore_redundancy` every source has one class holding every row it
/// contributes to (the Morpheus baseline's grouping).
RowSlotIndex BuildRowSlotIndex(const DiMetadata& metadata,
                               bool ignore_redundancy);

/// Derived DI metadata for a full integration scenario. Immutable once
/// derived: copies share one state behind a shared pointer, so copying a
/// `DiMetadata` copies no matrix, and every copy reads the one row-slot
/// index that `slot_index()` builds on first use. A move copies too, so a
/// moved-from `DiMetadata` stays valid.
class DiMetadata {
 public:
  /// Empty metadata (no sources); fill via `DeriveGraph`.
  DiMetadata();
  DiMetadata(const DiMetadata&) = default;
  DiMetadata& operator=(const DiMetadata&) = default;

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

  size_t num_sources() const { return state_->sources.size(); }
  const SourceMetadata& source(size_t k) const {
    AMALUR_CHECK_LT(k, state_->sources.size()) << "source index";
    return state_->sources[k];
  }
  size_t target_rows() const { return state_->target_rows; }
  size_t target_cols() const { return state_->target_cols; }
  const rel::Schema& target_schema() const { return state_->target_schema; }
  rel::JoinKind kind() const { return state_->kind; }
  /// Structural shape of the scenario's source graph (cost-model input and
  /// `Explain` payload).
  IntegrationShape shape() const { return state_->shape; }
  /// Number of horizontally stacked fact shards (1 unless union-of-stars).
  size_t num_shards() const { return state_->num_shards; }
  /// Shards with a non-empty target-row block — the ones that can actually
  /// participate in per-shard execution (an empty fact silo, or a shard
  /// fully dropped by an inner-join edge, contributes no rows). The single
  /// source of truth behind `AlignForHfl`'s participant set and the
  /// optimizer's FedAvg explanation.
  size_t num_active_shards() const {
    const std::vector<size_t>& offsets = state_->shard_offsets;
    size_t active = 0;
    for (size_t s = 0; s + 1 < offsets.size(); ++s) {
      if (offsets[s] < offsets[s + 1]) ++active;
    }
    return active;
  }
  /// Longest key-join chain from a fact to a leaf dimension (1 for stars
  /// and pairwise joins, >= 2 for snowflakes, 0 for pure unions).
  size_t join_depth() const { return state_->join_depth; }
  /// Number of conformed (shared) dimensions: sources referenced by several
  /// join-edge parents (0 for trees).
  size_t num_shared_dimensions() const {
    return state_->num_shared_dimensions;
  }

  /// Whether the scenario is horizontally partitioned (a pairwise union or
  /// a union-of-stars). The single source of truth for the federated
  /// protocol choice: horizontal scenarios split by fact shard (FedAvg),
  /// vertical ones by silo (n-ary vertical FLR) — optimizer explanations
  /// and executor dispatch must agree through this predicate.
  bool IsHorizontallyPartitioned() const {
    return state_->shape == IntegrationShape::kUnionOfStars ||
           state_->kind == rel::JoinKind::kUnion;
  }

  /// Every shard whose row block source k's indicator can reach, ascending
  /// (a shard = one fact plus its dimension subtree; always {0} for
  /// join-only scenarios). A singleton for all tree-shaped graphs; a
  /// conformed dimension referenced from several shards lists each.
  /// Consumers assembling per-shard data iterate exactly these blocks (CI_k
  /// is -1 everywhere else).
  const std::vector<size_t>& shards_reaching(size_t k) const {
    AMALUR_CHECK_LT(k, state_->source_shards.size()) << "source index";
    return state_->source_shards[k];
  }
  /// Target-row block of shard s: rows [ShardRowBegin(s), ShardRowEnd(s)).
  /// Shard blocks are contiguous and stacked in shard order.
  size_t ShardRowBegin(size_t s) const {
    AMALUR_CHECK_LT(s + 1, state_->shard_offsets.size()) << "shard index";
    return state_->shard_offsets[s];
  }
  size_t ShardRowEnd(size_t s) const {
    AMALUR_CHECK_LT(s + 1, state_->shard_offsets.size()) << "shard index";
    return state_->shard_offsets[s + 1];
  }

  /// The integration's row-slot index (`RowSlotIndex`), built on the first
  /// call by any copy and shared by every copy after it. Thread-safe.
  const RowSlotIndex& slot_index() const;

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
  /// Everything `DeriveGraph` derives, plus the row-slot index cache.
  struct State {
    std::vector<SourceMetadata> sources;
    size_t target_rows = 0;
    size_t target_cols = 0;
    rel::Schema target_schema;
    rel::JoinKind kind = rel::JoinKind::kInnerJoin;
    IntegrationShape shape = IntegrationShape::kPairwise;
    size_t num_shards = 1;
    size_t join_depth = 1;
    size_t num_shared_dimensions = 0;
    /// Per-source reachable shards, ascending (parallel to `sources`;
    /// singleton except for cross-shard conformed dimensions).
    std::vector<std::vector<size_t>> source_shards;
    /// Shard target-row block boundaries (size num_shards + 1).
    std::vector<size_t> shard_offsets;
    /// `slot_index()`'s cache: written once under `index_once`, read-only
    /// after it.
    mutable common::Once index_once;
    mutable RowSlotIndex index;
  };

  std::shared_ptr<const State> state_;
};

}  // namespace metadata
}  // namespace amalur
