#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "integration/schema_matching.h"
#include "relational/join.h"
#include "relational/table.h"

/// \file entity_resolution.h
/// Entity resolution (record linkage): finds rows of two silos that describe
/// the same real-world entity. The output row matching is the raw material of
/// the paper's indicator matrices (§II: "row matching from entity
/// resolution"). Classic blocking + pairwise-similarity + greedy 1:1
/// assignment pipeline.

namespace amalur {
namespace integration {

/// Knobs for `ResolveEntities`.
struct EntityResolverOptions {
  /// Minimum mean per-column similarity to accept a pair.
  double threshold = 0.85;
  /// Use blocking (first character / rounded numeric of the best matched
  /// column). Disable to compare all pairs (exact but quadratic).
  bool use_blocking = true;
};

/// One scored entity match.
struct EntityMatch {
  size_t left_row;
  size_t right_row;
  double score;
};

/// Resolves entities between `left` and `right`, comparing only the column
/// pairs in `column_matches` (the schema-matching output). Each row matches
/// at most one row of the other table (greedy by descending score). Returns
/// a `RowMatching` with the same contract as key-equality matching.
Result<rel::RowMatching> ResolveEntities(
    const rel::Table& left, const rel::Table& right,
    const std::vector<ColumnMatch>& column_matches,
    const EntityResolverOptions& options = {});

/// Scored variant returning the accepted pairs with their similarities.
Result<std::vector<EntityMatch>> ResolveEntityPairs(
    const rel::Table& left, const rel::Table& right,
    const std::vector<ColumnMatch>& column_matches,
    const EntityResolverOptions& options = {});

/// Exact-duplicate detection within one table over the given columns:
/// returns for each row the id of its duplicate cluster (cluster id = lowest
/// member row). Rows with NULL in all key columns are their own cluster.
std::vector<size_t> DeduplicateRows(const rel::Table& table,
                                    const std::vector<size_t>& columns);

/// Fraction of rows that are duplicates of an earlier row (0 = all distinct).
double DuplicateRatio(const rel::Table& table, const std::vector<size_t>& columns);

}  // namespace integration
}  // namespace amalur
