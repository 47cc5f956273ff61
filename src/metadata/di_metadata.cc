#include "metadata/di_metadata.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "integration/entity_resolution.h"

namespace amalur {
namespace metadata {

namespace {

/// Builds D_k, its column names and CM_k for source k of the mapping.
Status BuildColumns(const integration::SchemaMapping& mapping, size_t k,
                    const rel::Table& table, la::DenseMatrix* data,
                    std::vector<std::string>* column_names,
                    std::vector<int64_t>* cm, std::vector<size_t>* schema_cols) {
  const std::vector<int64_t> target_to_schema = mapping.TargetToSourceColumns(k);
  const std::vector<std::string> mapped = mapping.MappedColumns(k);

  // D_k layout: mapped columns in source-schema order.
  std::vector<size_t> indices;
  std::vector<int64_t> schema_to_dk(table.NumColumns(), -1);
  for (const std::string& name : mapped) {
    AMALUR_ASSIGN_OR_RETURN(size_t index, table.ColumnIndex(name));
    schema_to_dk[index] = static_cast<int64_t>(indices.size());
    indices.push_back(index);
    column_names->push_back(name);
  }
  AMALUR_ASSIGN_OR_RETURN(*data, table.ToMatrix(indices));

  cm->assign(target_to_schema.size(), -1);
  for (size_t i = 0; i < target_to_schema.size(); ++i) {
    const int64_t schema_col = target_to_schema[i];
    if (schema_col >= 0) {
      (*cm)[i] = schema_to_dk[static_cast<size_t>(schema_col)];
    }
  }
  *schema_cols = indices;
  return Status::OK();
}

/// Shared tail of every derivation: given the per-source CI vectors, builds
/// D_k, CM_k, I_k and R_k for each source and appends them to `metadata`.
/// The redundancy chain follows source order (earlier sources cover later
/// ones), so callers must list the retained/base sources first.
Status FillSources(const integration::SchemaMapping& mapping,
                   const std::vector<const rel::Table*>& tables,
                   std::vector<std::vector<int64_t>> ci,
                   std::vector<SourceMetadata>* sources) {
  const size_t n_sources = tables.size();
  std::vector<CompressedMapping> mappings;
  std::vector<CompressedIndicator> indicators;
  std::vector<la::DenseMatrix> data(n_sources);
  std::vector<std::vector<std::string>> names(n_sources);
  std::vector<std::vector<size_t>> schema_cols(n_sources);
  for (size_t k = 0; k < n_sources; ++k) {
    std::vector<int64_t> cm;
    AMALUR_RETURN_NOT_OK(BuildColumns(mapping, k, *tables[k], &data[k],
                                      &names[k], &cm, &schema_cols[k]));
    mappings.emplace_back(std::move(cm), data[k].cols());
    indicators.emplace_back(std::move(ci[k]), data[k].rows());
  }
  std::vector<RedundancyMask> masks;
  masks.reserve(n_sources);
  for (size_t k = 0; k < n_sources; ++k) {
    masks.push_back(RedundancyMask::Derive(k, indicators, mappings));
  }
  for (size_t k = 0; k < n_sources; ++k) {
    const rel::Table& table = *tables[k];
    sources->push_back({
        mapping.source(k).name,
        std::move(data[k]),
        std::move(names[k]),
        std::move(mappings[k]),
        std::move(indicators[k]),
        std::move(masks[k]),
        table.NullRatio(schema_cols[k]),
        integration::DuplicateRatio(table, schema_cols[k]),
    });
  }
  return Status::OK();
}

/// out[i] = column[from[i]]; -1 where `from[i]` lies past the column (a
/// row a full outer edge appended, which only the edge's child covers).
std::vector<int64_t> Gather(const std::vector<int64_t>& column,
                            const std::vector<size_t>& from) {
  std::vector<int64_t> out(from.size(), -1);
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i] < column.size()) out[i] = column[from[i]];
  }
  return out;
}

}  // namespace

const char* IntegrationShapeToString(IntegrationShape shape) {
  switch (shape) {
    case IntegrationShape::kPairwise:
      return "pairwise";
    case IntegrationShape::kStar:
      return "star";
    case IntegrationShape::kSnowflake:
      return "snowflake";
    case IntegrationShape::kUnionOfStars:
      return "union-of-stars";
    case IntegrationShape::kConformedSnowflake:
      return "conformed-snowflake";
  }
  return "?";
}

rel::JoinKind GraphMappingKind(const std::vector<MetadataEdge>& edges) {
  rel::JoinKind kind =
      edges.size() == 1 ? edges[0].kind : rel::JoinKind::kLeftJoin;
  for (const MetadataEdge& edge : edges) {
    if (edge.kind == rel::JoinKind::kUnion) kind = edge.kind;
  }
  return kind;
}

Result<DiMetadata> DiMetadata::Derive(const integration::SchemaMapping& mapping,
                                      const std::vector<const rel::Table*>& tables,
                                      const rel::RowMatching& matching) {
  const bool is_union = mapping.kind() == rel::JoinKind::kUnion;
  return DeriveGraph(mapping, tables, {{0, 1, mapping.kind()}},
                     {is_union ? rel::RowMatching{} : matching});
}

Result<DiMetadata> DiMetadata::DeriveStar(
    const integration::SchemaMapping& mapping,
    const std::vector<const rel::Table*>& tables,
    const std::vector<rel::RowMatching>& matchings) {
  std::vector<MetadataEdge> edges;
  for (size_t k = 1; k < tables.size(); ++k) {
    edges.push_back({0, k, rel::JoinKind::kLeftJoin});
  }
  return DeriveGraph(mapping, tables, edges, matchings);
}

Result<DiMetadata> DiMetadata::DeriveGraph(
    const integration::SchemaMapping& mapping,
    const std::vector<const rel::Table*>& tables,
    const std::vector<MetadataEdge>& edges,
    const std::vector<rel::RowMatching>& matchings) {
  const size_t n_sources = tables.size();
  if (n_sources != mapping.num_sources()) {
    return Status::InvalidArgument("expected ", mapping.num_sources(),
                                   " tables, got ", n_sources);
  }
  if (n_sources < 2) {
    return Status::InvalidArgument("a graph scenario needs >= 2 sources");
  }
  if (matchings.size() != edges.size()) {
    return Status::InvalidArgument("expected ", edges.size(),
                                   " matchings, got ", matchings.size());
  }

  // ---- Structural validation. `parent < child` with at least one parent
  // per non-root node makes the edge set a connected DAG rooted at 0 in
  // topological order; several join parents are legal (a conformed
  // dimension), several parents of a *fact* are not, and union edges may
  // only hang off fact nodes.
  std::vector<std::vector<size_t>> parent_edges_of(n_sources);
  std::set<std::pair<size_t, size_t>> seen_pairs;
  for (size_t e = 0; e < edges.size(); ++e) {
    const MetadataEdge& edge = edges[e];
    if (edge.child >= n_sources || edge.parent >= edge.child) {
      return Status::InvalidArgument(
          "graph edge ", e, " must satisfy parent < child < ", n_sources,
          " (sources in topological order, root first)");
    }
    if (edge.kind == rel::JoinKind::kFullOuterJoin && edges.size() > 1) {
      return Status::InvalidArgument(
          "a full outer join is only valid as a graph's only edge, got one "
          "on edge ", e, " of ", edges.size());
    }
    if (!seen_pairs.insert({edge.parent, edge.child}).second) {
      return Status::InvalidArgument("duplicate graph edge ", edge.parent,
                                     " -> ", edge.child);
    }
    parent_edges_of[edge.child].push_back(e);
  }
  for (size_t k = 1; k < n_sources; ++k) {
    if (parent_edges_of[k].empty()) {
      return Status::InvalidArgument(
          "source ", k,
          " has no parent edge; integration graphs must be connected");
    }
  }

  // ---- Fact/shard assignment in edge order. Facts are the root and every
  // node reached through union edges; a shard is one fact plus its
  // dimension subgraph, stacked into the target in ascending fact order.
  std::vector<uint8_t> is_fact(n_sources, 0);
  std::vector<size_t> shard_of(n_sources, 0);
  is_fact[0] = 1;
  std::vector<size_t> fact_of_shard{0};
  for (size_t e = 0; e < edges.size(); ++e) {
    const MetadataEdge& edge = edges[e];
    if (edge.kind != rel::JoinKind::kUnion) continue;
    if (parent_edges_of[edge.child].size() > 1) {
      return Status::InvalidArgument(
          "source ", edge.child,
          " is a fact shard (a union-edge child) with several parent "
          "edges; only dimensions may be conformed");
    }
    if (!is_fact[edge.parent]) {
      return Status::InvalidArgument(
          "union edge ", e, " hangs off dimension source ", edge.parent,
          "; union edges stack fact shards only");
    }
    if (!matchings[e].matched.empty()) {
      return Status::InvalidArgument(
          "union edge ", e, " carries a row matching; unions match no rows");
    }
    is_fact[edge.child] = 1;
    shard_of[edge.child] = fact_of_shard.size();
    fact_of_shard.push_back(edge.child);
  }

  // ---- Depth, reachable-shard sets and the conformed-dimension count, in
  // child order (every parent's values are complete by then).
  std::vector<size_t> depth(n_sources, 0);
  std::vector<std::set<size_t>> shards_reaching(n_sources);
  shards_reaching[0] = {0};
  size_t max_depth = 0;
  size_t shared_dimensions = 0;
  for (size_t c = 1; c < n_sources; ++c) {
    const std::vector<size_t>& parents = parent_edges_of[c];
    if (is_fact[c]) {
      shards_reaching[c] = {shard_of[c]};
      continue;  // depth 0: a fresh shard root
    }
    for (size_t e : parents) {
      const size_t p = edges[e].parent;
      depth[c] = std::max(depth[c], depth[p] + 1);
      shards_reaching[c].insert(shards_reaching[p].begin(),
                                shards_reaching[p].end());
    }
    max_depth = std::max(max_depth, depth[c]);
    if (parents.size() > 1) ++shared_dimensions;
  }

  DiMetadata metadata;
  metadata.kind_ = mapping.kind();
  metadata.target_schema_ = mapping.target_schema();
  metadata.target_cols_ = metadata.target_schema_.num_fields();
  metadata.shape_ = edges.size() == 1 ? IntegrationShape::kPairwise
                    : fact_of_shard.size() > 1
                        ? IntegrationShape::kUnionOfStars
                    : shared_dimensions > 0
                        ? IntegrationShape::kConformedSnowflake
                    : max_depth > 1 ? IntegrationShape::kSnowflake
                                    : IntegrationShape::kStar;
  metadata.num_shards_ = fact_of_shard.size();
  metadata.join_depth_ = max_depth;
  metadata.num_shared_dimensions_ = shared_dimensions;
  const rel::JoinKind expected_kind = GraphMappingKind(edges);
  if (mapping.kind() != expected_kind) {
    return Status::InvalidArgument(
        "graph derivation expects a ", rel::JoinKindToString(expected_kind),
        " mapping for this edge set, got ",
        rel::JoinKindToString(mapping.kind()));
  }

  // ---- Target rows start as the fact shards' rows, stacked in shard order;
  // each fact's CI is the identity inside its block.
  std::vector<size_t> offsets(fact_of_shard.size() + 1, 0);
  for (size_t s = 0; s < fact_of_shard.size(); ++s) {
    offsets[s + 1] = offsets[s] + tables[fact_of_shard[s]]->NumRows();
  }
  std::vector<std::vector<int64_t>> ci(
      n_sources, std::vector<int64_t>(offsets.back(), -1));
  for (size_t s = 0; s < fact_of_shard.size(); ++s) {
    for (size_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      ci[fact_of_shard[s]][i] = static_cast<int64_t>(i - offsets[s]);
    }
  }
  // Conformed-chain disagreements are *recorded* per row, not raised
  // inline: they travel with their rows through every later gather, and a
  // row an inner edge drops takes its conflict with it.
  struct ChainConflict {
    size_t child = 0;
    size_t edge = 0;
    int64_t first_row = 0;
    int64_t second_row = 0;
  };
  std::vector<ChainConflict> conflicts;
  std::vector<int64_t> conflict_of(offsets.back(), -1);

  // ---- One step per join edge, children in source order (every parent's
  // CI is final by then). The edge maps each target row to one row per
  // child row its parent row matched — a fan-out repeats the row — keeps a
  // row whose own chain dangles with the child absent (left, full outer) or
  // drops it (inner), and a full outer edge appends the child rows no
  // parent row matched. Rows outside the parent's shards pass through. The
  // child's CI *composes* the parent's CI with the matching, so a chained
  // dimension still resolves in one indirection (the snowflake
  // derivation); a conformed dimension merges the compositions of all its
  // parent chains into ONE indicator. Inner edges test their own chain, so
  // a conformed dimension reached through another parent never rescues a
  // row whose inner-edge reference dangles.
  for (size_t c = 1; c < n_sources; ++c) {
    for (size_t e : parent_edges_of[c]) {
      const MetadataEdge& edge = edges[e];
      if (edge.kind == rel::JoinKind::kUnion) continue;
      const size_t parent_rows = tables[edge.parent]->NumRows();
      const size_t child_rows = tables[c]->NumRows();
      // Child rows per parent row, in matching order (CSR layout): count
      // into first[r + 1], sum, fill with first[r] as the cursor, shift back.
      std::vector<size_t> first(parent_rows + 1, 0);
      for (const auto& [parent_row, child_row] : matchings[e].matched) {
        if (parent_row >= parent_rows || child_row >= child_rows) {
          return Status::OutOfRange("row match out of range on graph edge ", e);
        }
        ++first[parent_row + 1];
      }
      for (size_t r = 0; r < parent_rows; ++r) first[r + 1] += first[r];
      std::vector<int64_t> children(first.back());
      for (const auto& [parent_row, child_row] : matchings[e].matched) {
        children[first[parent_row]++] = static_cast<int64_t>(child_row);
      }
      for (size_t r = parent_rows; r > 0; --r) first[r] = first[r - 1];
      first[0] = 0;
      // `matched_by[r]`: the last parent row matching child row r.
      std::vector<size_t> matched_by(child_rows, parent_rows);
      bool fans_out = false;
      for (size_t r = 0; r < parent_rows; ++r) {
        fans_out |= first[r + 1] - first[r] > 1;
        for (size_t j = first[r]; j < first[r + 1]; ++j) {
          const size_t child_row = static_cast<size_t>(children[j]);
          if (matched_by[child_row] == r) {
            return Status::FailedPrecondition(
                "graph edge ", e, " matches row ", r, " of source ",
                edge.parent, " to row ", child_row, " of source ", c,
                " twice");
          }
          matched_by[child_row] = r;
        }
      }
      if (fans_out && parent_edges_of[c].size() > 1) {
        return Status::FailedPrecondition(
            "graph edge ", e, " (", edge.parent, " -> ", c,
            ") matches a row of source ", edge.parent,
            " to several rows of conformed dimension source ", c,
            "; edges into a conformed dimension must not fan out");
      }

      // The row gather: new row -> current row (past the end: appended).
      const bool inner = edge.kind == rel::JoinKind::kInnerJoin;
      const std::vector<int64_t>& up = ci[edge.parent];
      std::vector<size_t> from;
      std::vector<int64_t> down;  // the child's row on each new row
      std::vector<size_t> next_offsets{0};
      from.reserve(offsets.back());
      down.reserve(offsets.back());
      for (size_t s = 0; s + 1 < offsets.size(); ++s) {
        const bool reached = shards_reaching[edge.parent].count(s) > 0;
        for (size_t i = offsets[s]; i < offsets[s + 1]; ++i) {
          size_t j = 0, end = 0;
          if (reached && up[i] >= 0) {
            j = first[static_cast<size_t>(up[i])];
            end = first[static_cast<size_t>(up[i]) + 1];
          }
          if (j == end && !(reached && inner)) {
            from.push_back(i);
            down.push_back(-1);
          }
          for (; j < end; ++j) {
            from.push_back(i);
            down.push_back(children[j]);
          }
        }
        next_offsets.push_back(from.size());
      }
      if (edge.kind == rel::JoinKind::kFullOuterJoin) {
        for (size_t r = 0; r < child_rows; ++r) {
          if (matched_by[r] < parent_rows) continue;
          from.push_back(offsets.back());
          down.push_back(static_cast<int64_t>(r));
        }
        next_offsets.back() = from.size();
      }
      if (fans_out || from.size() != offsets.back()) {
        for (std::vector<int64_t>& column : ci) column = Gather(column, from);
        conflict_of = Gather(conflict_of, from);
        offsets = std::move(next_offsets);
      }

      std::vector<int64_t>& mine = ci[c];
      for (size_t i = 0; i < down.size(); ++i) {
        if (down[i] < 0) continue;
        if (mine[i] >= 0 && mine[i] != down[i]) {
          if (conflict_of[i] < 0) {
            conflict_of[i] = static_cast<int64_t>(conflicts.size());
            conflicts.push_back({c, e, mine[i], down[i]});
          }
          continue;  // keep the first chain's value; judged below
        }
        mine[i] = down[i];
      }
    }
  }

  // ---- Only a conflict on a row that reaches the target violates the
  // conformed contract.
  for (size_t i = 0; i < conflict_of.size(); ++i) {
    if (conflict_of[i] < 0) continue;
    const ChainConflict& conflict =
        conflicts[static_cast<size_t>(conflict_of[i])];
    return Status::FailedPrecondition(
        "target row ", i, ": conformed dimension source ", conflict.child,
        " resolves to row ", conflict.first_row,
        " through one parent chain and row ", conflict.second_row,
        " through graph edge ", conflict.edge,
        "; conformed-dimension chains must agree");
  }

  metadata.target_rows_ = offsets.back();
  metadata.source_shards_.reserve(n_sources);
  for (size_t k = 0; k < n_sources; ++k) {
    metadata.source_shards_.emplace_back(shards_reaching[k].begin(),
                                         shards_reaching[k].end());
  }
  metadata.shard_offsets_ = offsets;

  AMALUR_RETURN_NOT_OK(
      FillSources(mapping, tables, std::move(ci), &metadata.sources_));
  return metadata;
}

std::vector<std::vector<RowId>> RowClassTargets(const SourceMetadata& source,
                                                bool ignore_redundancy) {
  const std::vector<int64_t>& indicator = source.indicator.values();
  AMALUR_CHECK(indicator.size() < std::numeric_limits<RowId>::max() &&
               source.data.rows() < std::numeric_limits<RowId>::max())
      << "row classes index rows with 32 bits";
  // Without masked sets every row is in class 0.
  const size_t num_classes =
      ignore_redundancy ? 1 : source.redundancy.column_sets().size() + 1;
  const auto class_of = [&](size_t i) {
    return num_classes == 1
               ? size_t{0}
               : static_cast<size_t>(source.redundancy.row_set(i) + 1);
  };
  std::vector<size_t> counts(num_classes, 0);
  for (size_t i = 0; i < indicator.size(); ++i) {
    if (indicator[i] >= 0) ++counts[class_of(i)];
  }
  std::vector<std::vector<RowId>> classes(num_classes);
  for (size_t c = 0; c < num_classes; ++c) classes[c].reserve(counts[c]);
  for (size_t i = 0; i < indicator.size(); ++i) {
    if (indicator[i] >= 0) classes[class_of(i)].push_back(static_cast<RowId>(i));
  }
  return classes;
}

la::DenseMatrix DiMetadata::SourceContribution(size_t k) const {
  const SourceMetadata& s = source(k);
  // I_k (D_k M_kᵀ): expand columns to target layout, then route rows.
  return s.indicator.ExpandRows(s.mapping.ExpandColumns(s.data));
}

la::DenseMatrix DiMetadata::MaterializeTargetMatrix() const {
  la::DenseMatrix target(target_rows_, target_cols_);
  for (size_t k = 0; k < sources_.size(); ++k) {
    la::DenseMatrix contribution = SourceContribution(k);
    sources_[k].redundancy.ApplyInPlace(&contribution);
    target.AddInPlace(contribution);
  }
  return target;
}

double DiMetadata::TupleRatio(size_t k) const {
  const SourceMetadata& s = source(k);
  return s.data.rows() == 0
             ? 0.0
             : static_cast<double>(target_rows_) /
                   static_cast<double>(s.data.rows());
}

double DiMetadata::FeatureRatio(size_t k) const {
  const SourceMetadata& s = source(k);
  return s.data.cols() == 0
             ? 0.0
             : static_cast<double>(target_cols_) /
                   static_cast<double>(s.data.cols());
}

std::string DiMetadata::ToString() const {
  std::ostringstream out;
  out << "DiMetadata[" << rel::JoinKindToString(kind_) << ", "
      << IntegrationShapeToString(shape_) << ", T " << target_rows_ << "x"
      << target_cols_ << "]\n";
  for (size_t k = 0; k < sources_.size(); ++k) {
    const SourceMetadata& s = sources_[k];
    out << "  " << s.name << ": D " << s.data.rows() << "x" << s.data.cols()
        << ", " << s.mapping.ToString() << ", TR=" << TupleRatio(k)
        << ", FR=" << FeatureRatio(k) << ", null=" << s.null_ratio
        << ", dup=" << s.duplicate_ratio << "\n";
  }
  return out.str();
}

}  // namespace metadata
}  // namespace amalur
