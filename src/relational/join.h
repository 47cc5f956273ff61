#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/table.h"

/// \file join.h
/// Hash-based join machinery. Two layers:
///
///  * `MatchRowsOnKeys` — produces the *row matching* between two tables
///    (matched pairs + per-side unmatched rows). This is the relational ground
///    truth that entity resolution approximates, and the raw material of the
///    paper's indicator matrices.
///  * `HashJoin` / `UnionAll` — conventional operators with provenance
///    (source row per output row): the relational reference that tests
///    check matrix-level materialization against. `HashJoin` emits matched
///    rows first; the metadata layer keeps fact rows in order instead.

namespace amalur {
namespace rel {

/// The four dataset relationships of paper Table I.
enum class JoinKind : int8_t {
  kInnerJoin = 0,
  kLeftJoin = 1,
  kFullOuterJoin = 2,
  kUnion = 3,
};

const char* JoinKindToString(JoinKind kind);

/// Row-level matching between two tables.
struct RowMatching {
  /// (left row, right row) pairs with equal keys.
  std::vector<std::pair<size_t, size_t>> matched;
  /// Left rows with no partner.
  std::vector<size_t> left_only;
  /// Right rows with no partner.
  std::vector<size_t> right_only;
};

/// Matches rows whose key columns are equal. Duplicate keys produce the full
/// cross product of the matching groups, i.e. standard join semantics:
/// pairs by left row ascending, right rows ascending within a key;
/// `left_only` and `right_only` ascending.
///
/// The key rule: two key cells are equal exactly when their
/// `Value::ToString()` renderings are, and a NULL never matches, not even
/// another NULL. Cells are compared as typed keys (`Column::Key`), never as
/// rendered strings:
///  - an int64 n matches an int64 n, and a double equal to n that is
///    integral, below 1e17 in magnitude (what `%.17g` prints without an
///    exponent) and not −0.0; so an int64 1 matches a double 1.0;
///  - any other double matches only a double with the same bits, NaNs of
///    one sign counting as equal (so 0.0 and −0.0 do not match);
///  - a string matches a string with the same bytes, and a number only when
///    it is exactly that number's rendering ("1" matches 1, "01" and "1.0"
///    match no number).
/// A composite key matches when every column does.
Result<RowMatching> MatchRowsOnKeys(const Table& left, const Table& right,
                                    const std::vector<std::string>& left_keys,
                                    const std::vector<std::string>& right_keys);

/// A joined table plus provenance: for each output row, the contributing row
/// in each input (`Column::kNullRow` when the side is padded with NULLs).
struct JoinResult {
  Table table;
  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
};

/// Hash join on equal key columns. Output columns are all left columns
/// followed by the right table's non-key columns; a right column whose name
/// collides with a left column is suffixed with "_<right table name>".
/// `kUnion` is not a join; use `UnionAll`.
Result<JoinResult> HashJoin(const Table& left, const Table& right,
                            const std::vector<std::string>& left_keys,
                            const std::vector<std::string>& right_keys,
                            JoinKind kind);

/// Concatenates two tables over a shared output schema given by
/// `left_to_out[j]` = output index of left column j (same for right);
/// unmapped output columns are NULL-filled. Provenance as in `JoinResult`.
Result<JoinResult> UnionAll(const Table& left, const Table& right,
                            const Schema& output_schema,
                            const std::vector<size_t>& left_to_out,
                            const std::vector<size_t>& right_to_out);

}  // namespace rel
}  // namespace amalur
