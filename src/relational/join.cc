#include "relational/join.h"

#include "common/status.h"
#include "relational/row_index.h"

namespace amalur {
namespace rel {

const char* JoinKindToString(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInnerJoin:
      return "inner join";
    case JoinKind::kLeftJoin:
      return "left join";
    case JoinKind::kFullOuterJoin:
      return "full outer join";
    case JoinKind::kUnion:
      return "union";
  }
  return "?";
}

namespace {

/// One side's key columns.
struct KeyColumns {
  std::vector<const Column*> columns;

  /// The 64-bit hash of row `row`'s key cells; false when a key cell is
  /// NULL (SQL semantics: NULL keys never match).
  bool Hash(size_t row, uint64_t* hash) const {
    uint64_t h = 0;
    for (const Column* column : columns) {
      const CellKey key = column->Key(row);
      if (key.kind == CellKey::Kind::kNull) return false;
      h = h * 0x100000001B3ULL + key.Hash();
    }
    *hash = h;
    return true;
  }

  /// Whether row `row` here and row `other_row` of `other` have equal keys.
  /// Keys are recomputed rather than stored: a key costs a load or two.
  bool Equal(size_t row, const KeyColumns& other, size_t other_row) const {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (!(columns[c]->Key(row) == other.columns[c]->Key(other_row))) {
        return false;
      }
    }
    return true;
  }
};

Result<std::vector<size_t>> ResolveColumns(const Table& table,
                                           const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    AMALUR_ASSIGN_OR_RETURN(size_t index, table.ColumnIndex(name));
    indices.push_back(index);
  }
  return indices;
}

}  // namespace

Result<RowMatching> MatchRowsOnKeys(const Table& left, const Table& right,
                                    const std::vector<std::string>& left_keys,
                                    const std::vector<std::string>& right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("key lists must be equal-sized and non-empty");
  }
  AMALUR_ASSIGN_OR_RETURN(std::vector<size_t> left_cols,
                          ResolveColumns(left, left_keys));
  AMALUR_ASSIGN_OR_RETURN(std::vector<size_t> right_cols,
                          ResolveColumns(right, right_keys));

  KeyColumns left_key, right_key;
  for (size_t c : left_cols) left_key.columns.push_back(&left.column(c));
  for (size_t c : right_cols) right_key.columns.push_back(&right.column(c));

  // The right rows by key; rows of one key chain in ascending order from
  // the first, which the index holds.
  const size_t right_rows = right.NumRows();
  RowIndex index(right_rows);
  std::vector<uint64_t> right_hash(right_rows);
  std::vector<size_t> next(right_rows, RowIndex::kNone);
  std::vector<size_t> last(right_rows);  // a chain's last row, at its first
  const auto hash_of = [&right_hash](size_t r) { return right_hash[r]; };
  for (size_t r = 0; r < right_rows; ++r) {
    if (!right_key.Hash(r, &right_hash[r])) continue;
    const size_t first =
        index.FindOrInsert(right_hash[r], r, hash_of, [&](size_t seen) {
          return right_key.Equal(r, right_key, seen);
        });
    if (first != r) next[last[first]] = r;
    last[first] = r;
  }

  RowMatching matching;
  matching.matched.reserve(left.NumRows());
  std::vector<uint8_t> right_hit(right_rows, 0);
  uint64_t hash = 0;
  for (size_t l = 0; l < left.NumRows(); ++l) {
    size_t r = left_key.Hash(l, &hash)
                   ? index.Find(hash, hash_of,
                                [&](size_t seen) {
                                  return left_key.Equal(l, right_key, seen);
                                })
                   : RowIndex::kNone;
    if (r == RowIndex::kNone) {
      matching.left_only.push_back(l);
      continue;
    }
    for (; r != RowIndex::kNone; r = next[r]) {
      matching.matched.emplace_back(l, r);
      right_hit[r] = 1;
    }
  }
  for (size_t r = 0; r < right_rows; ++r) {
    if (!right_hit[r]) matching.right_only.push_back(r);
  }
  return matching;
}

Result<JoinResult> HashJoin(const Table& left, const Table& right,
                            const std::vector<std::string>& left_keys,
                            const std::vector<std::string>& right_keys,
                            JoinKind kind) {
  if (kind == JoinKind::kUnion) {
    return Status::InvalidArgument("union is not a join; use UnionAll");
  }
  AMALUR_ASSIGN_OR_RETURN(RowMatching matching,
                          MatchRowsOnKeys(left, right, left_keys, right_keys));

  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  left_rows.reserve(matching.matched.size());
  right_rows.reserve(matching.matched.size());
  for (const auto& [l, r] : matching.matched) {
    left_rows.push_back(l);
    right_rows.push_back(r);
  }
  if (kind == JoinKind::kLeftJoin || kind == JoinKind::kFullOuterJoin) {
    for (size_t l : matching.left_only) {
      left_rows.push_back(l);
      right_rows.push_back(Column::kNullRow);
    }
  }
  if (kind == JoinKind::kFullOuterJoin) {
    for (size_t r : matching.right_only) {
      left_rows.push_back(Column::kNullRow);
      right_rows.push_back(r);
    }
  }

  // Assemble output: left columns, then right non-key columns.
  Table out(left.name() + "_join_" + right.name());
  for (size_t c = 0; c < left.NumColumns(); ++c) {
    Column gathered = left.column(c).Gather(left_rows);
    AMALUR_RETURN_NOT_OK(out.AddColumn(std::move(gathered)));
  }
  AMALUR_ASSIGN_OR_RETURN(std::vector<size_t> right_key_cols,
                          ResolveColumns(right, right_keys));
  for (size_t c = 0; c < right.NumColumns(); ++c) {
    bool is_key = false;
    for (size_t k : right_key_cols) is_key |= (k == c);
    if (is_key) continue;
    Column gathered = right.column(c).Gather(right_rows);
    if (out.schema().Contains(gathered.name())) {
      gathered.set_name(gathered.name() + "_" + right.name());
    }
    AMALUR_RETURN_NOT_OK(out.AddColumn(std::move(gathered)));
  }
  return JoinResult{std::move(out), std::move(left_rows), std::move(right_rows)};
}

Result<JoinResult> UnionAll(const Table& left, const Table& right,
                            const Schema& output_schema,
                            const std::vector<size_t>& left_to_out,
                            const std::vector<size_t>& right_to_out) {
  if (left_to_out.size() != left.NumColumns() ||
      right_to_out.size() != right.NumColumns()) {
    return Status::InvalidArgument("column mapping size mismatch");
  }
  const size_t rows_left = left.NumRows();
  const size_t rows_right = right.NumRows();
  Table out = Table::FromSchema(left.name() + "_union_" + right.name(),
                                output_schema);

  // Output column -> (input side column), or kNullRow for "not mapped".
  auto build_side = [&](const Table& side, const std::vector<size_t>& to_out,
                        Table* target) -> Status {
    std::vector<size_t> out_to_in(output_schema.num_fields(), Column::kNullRow);
    for (size_t c = 0; c < to_out.size(); ++c) {
      if (to_out[c] == Column::kNullRow) continue;  // dropped column (e.g. dd)
      if (to_out[c] >= output_schema.num_fields()) {
        return Status::OutOfRange("output index ", to_out[c]);
      }
      out_to_in[to_out[c]] = c;
    }
    for (size_t r = 0; r < side.NumRows(); ++r) {
      std::vector<Value> row(output_schema.num_fields());
      for (size_t j = 0; j < out_to_in.size(); ++j) {
        row[j] = out_to_in[j] == Column::kNullRow
                     ? Value::Null()
                     : side.column(out_to_in[j]).GetValue(r);
      }
      AMALUR_RETURN_NOT_OK(target->AppendRow(row));
    }
    return Status::OK();
  };
  AMALUR_RETURN_NOT_OK(build_side(left, left_to_out, &out));
  AMALUR_RETURN_NOT_OK(build_side(right, right_to_out, &out));

  std::vector<size_t> left_rows(rows_left + rows_right, Column::kNullRow);
  std::vector<size_t> right_rows(rows_left + rows_right, Column::kNullRow);
  for (size_t i = 0; i < rows_left; ++i) left_rows[i] = i;
  for (size_t i = 0; i < rows_right; ++i) right_rows[rows_left + i] = i;
  return JoinResult{std::move(out), std::move(left_rows), std::move(right_rows)};
}

}  // namespace rel
}  // namespace amalur
