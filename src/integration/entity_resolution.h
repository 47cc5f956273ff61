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
/// resolution"). A complete candidate filter (Pass-Join segments for string
/// columns, ratio windows for numeric ones), exact pairwise similarity, then
/// greedy 1:1 assignment.

namespace amalur {
namespace integration {

/// Knobs for `ResolveEntities`.
struct EntityResolverOptions {
  /// Minimum mean per-column similarity to accept a pair.
  double threshold = 0.85;
  /// No effect: both values give the exhaustive definition's pairs. Kept
  /// only because the facade benchmark prints it; it goes with the next
  /// change to that benchmark.
  bool use_blocking = true;
};

/// One scored entity match.
struct EntityMatch {
  size_t left_row;
  size_t right_row;
  double score;
};

/// Resolves entities between `left` and `right`, comparing only the column
/// pairs in `column_matches` (the schema-matching output). A pair's score is
/// the mean per-column similarity: edit similarity of the lower-cased
/// strings, relative closeness of numbers, 1 for two NULLs and 0 for one.
/// Each row matches at most one row of the other table (greedy by
/// descending score). Returns a `RowMatching` with the same contract as
/// key-equality matching.
///
/// The search is pruned, the result is not: it equals the all-pairs
/// definition's pairs and scores bit for bit. In a pair that reaches
/// threshold t over m matched columns, each column's similarity is at least
/// the floor t·m − (m − 1). Candidates are every pair whose filter column can
/// reach that floor: a Pass-Join segment index finds them on the first pair
/// of two string columns while the floor exceeds 0.65, else a sorted ratio
/// window on the first pair of two numeric columns while it exceeds 0.45, and
/// a NULL pairs only with a NULL. Below those floors a filter passes most
/// pairs and costs more than it saves, so every pair is a candidate. A
/// candidate whose bounded score (length and character-histogram lower
/// bounds on each edit distance) misses the threshold is skipped; survivors
/// get a banded edit distance.
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
/// member row). Two rows are duplicates when every key column holds equal
/// cells by `rel::Column::CellsEqual` (equal `Value::ToString()` renderings,
/// compared typed, never as joined strings). Rows with NULL in all key
/// columns are their own cluster.
std::vector<size_t> DeduplicateRows(const rel::Table& table,
                                    const std::vector<size_t>& columns);

/// Fraction of rows that are duplicates of an earlier row (0 = all distinct).
double DuplicateRatio(const rel::Table& table, const std::vector<size_t>& columns);

}  // namespace integration
}  // namespace amalur
