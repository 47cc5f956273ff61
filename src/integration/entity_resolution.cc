#include "integration/entity_resolution.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/status.h"
#include "common/string_util.h"

namespace amalur {
namespace integration {

namespace {

/// Candidate pairs compared per left row and block (guards the quadratic
/// worst case when blocking degenerates).
constexpr size_t kMaxBlockSize = 4096;

/// Similarity of two cells in matched columns, in [0, 1].
double CellSimilarity(const rel::Column& a, size_t row_a, const rel::Column& b,
                      size_t row_b) {
  const bool null_a = a.IsNull(row_a);
  const bool null_b = b.IsNull(row_b);
  if (null_a && null_b) return 1.0;  // jointly missing: no evidence against
  if (null_a || null_b) return 0.0;
  const bool str_a = a.type() == rel::DataType::kString;
  const bool str_b = b.type() == rel::DataType::kString;
  if (str_a != str_b) return 0.0;
  if (str_a) {
    return EditSimilarity(ToLower(a.KeyString(row_a)),
                          ToLower(b.KeyString(row_b)));
  }
  const double va = a.GetDouble(row_a);
  const double vb = b.GetDouble(row_b);
  if (va == vb) return 1.0;
  const double scale = std::fabs(va) + std::fabs(vb);
  return std::max(0.0, 1.0 - std::fabs(va - vb) / (scale > 0 ? scale : 1.0));
}

/// Blocking key of one row: lower-cased first character for strings,
/// magnitude bucket for numerics, "" for NULL (null keys block together).
std::string BlockKey(const rel::Column& col, size_t row) {
  if (col.IsNull(row)) return "";
  if (col.type() == rel::DataType::kString) {
    const std::string v = ToLower(col.KeyString(row));
    return v.empty() ? "" : v.substr(0, 1);
  }
  // Numeric: bucket by rounded value so near-equal values collide.
  return std::to_string(static_cast<int64_t>(std::llround(col.GetDouble(row))));
}

/// Chooses the matched column pair used for blocking: prefer strings (more
/// selective first characters), else the first pair.
size_t ChooseBlockingPair(const rel::Table& left,
                          const std::vector<ColumnMatch>& matches) {
  for (size_t i = 0; i < matches.size(); ++i) {
    if (left.column(matches[i].left_column).type() == rel::DataType::kString) {
      return i;
    }
  }
  return 0;
}

}  // namespace

Result<std::vector<EntityMatch>> ResolveEntityPairs(
    const rel::Table& left, const rel::Table& right,
    const std::vector<ColumnMatch>& column_matches,
    const EntityResolverOptions& options) {
  if (column_matches.empty()) {
    return Status::InvalidArgument("entity resolution needs matched columns");
  }
  for (const ColumnMatch& m : column_matches) {
    if (m.left_column >= left.NumColumns() ||
        m.right_column >= right.NumColumns()) {
      return Status::OutOfRange("column match out of range");
    }
  }

  // Candidate generation.
  std::vector<std::pair<size_t, size_t>> candidates;
  if (options.use_blocking && !column_matches.empty() && left.NumRows() > 0) {
    const size_t pair_index = ChooseBlockingPair(left, column_matches);
    const rel::Column& block_left = left.column(column_matches[pair_index].left_column);
    const rel::Column& block_right =
        right.column(column_matches[pair_index].right_column);
    std::unordered_map<std::string, std::vector<size_t>> right_blocks;
    for (size_t r = 0; r < right.NumRows(); ++r) {
      right_blocks[BlockKey(block_right, r)].push_back(r);
    }
    for (size_t l = 0; l < left.NumRows(); ++l) {
      auto it = right_blocks.find(BlockKey(block_left, l));
      if (it == right_blocks.end()) continue;
      size_t taken = 0;
      for (size_t r : it->second) {
        if (++taken > kMaxBlockSize) break;
        candidates.emplace_back(l, r);
      }
    }
  } else {
    for (size_t l = 0; l < left.NumRows(); ++l) {
      for (size_t r = 0; r < right.NumRows(); ++r) candidates.emplace_back(l, r);
    }
  }

  // Pairwise scoring.
  std::vector<EntityMatch> scored;
  for (const auto& [l, r] : candidates) {
    double sum = 0.0;
    for (const ColumnMatch& m : column_matches) {
      sum += CellSimilarity(left.column(m.left_column), l,
                            right.column(m.right_column), r);
    }
    const double score = sum / static_cast<double>(column_matches.size());
    if (score >= options.threshold) scored.push_back({l, r, score});
  }

  // Greedy 1:1 assignment by descending score (entity semantics: a row
  // represents one entity and matches at most once).
  std::sort(scored.begin(), scored.end(),
            [](const EntityMatch& a, const EntityMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.left_row != b.left_row) return a.left_row < b.left_row;
              return a.right_row < b.right_row;
            });
  std::vector<uint8_t> left_used(left.NumRows(), 0);
  std::vector<uint8_t> right_used(right.NumRows(), 0);
  std::vector<EntityMatch> accepted;
  for (const EntityMatch& m : scored) {
    if (left_used[m.left_row] || right_used[m.right_row]) continue;
    left_used[m.left_row] = 1;
    right_used[m.right_row] = 1;
    accepted.push_back(m);
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const EntityMatch& a, const EntityMatch& b) {
              return a.left_row < b.left_row;
            });
  return accepted;
}

Result<rel::RowMatching> ResolveEntities(
    const rel::Table& left, const rel::Table& right,
    const std::vector<ColumnMatch>& column_matches,
    const EntityResolverOptions& options) {
  AMALUR_ASSIGN_OR_RETURN(
      std::vector<EntityMatch> pairs,
      ResolveEntityPairs(left, right, column_matches, options));
  rel::RowMatching matching;
  std::vector<uint8_t> left_used(left.NumRows(), 0);
  std::vector<uint8_t> right_used(right.NumRows(), 0);
  for (const EntityMatch& m : pairs) {
    matching.matched.emplace_back(m.left_row, m.right_row);
    left_used[m.left_row] = 1;
    right_used[m.right_row] = 1;
  }
  for (size_t l = 0; l < left.NumRows(); ++l) {
    if (!left_used[l]) matching.left_only.push_back(l);
  }
  for (size_t r = 0; r < right.NumRows(); ++r) {
    if (!right_used[r]) matching.right_only.push_back(r);
  }
  return matching;
}

std::vector<size_t> DeduplicateRows(const rel::Table& table,
                                    const std::vector<size_t>& columns) {
  std::unordered_map<std::string, size_t> first_seen;
  std::vector<size_t> cluster(table.NumRows());
  for (size_t row = 0; row < table.NumRows(); ++row) {
    std::string key;
    bool all_null = true;
    for (size_t c : columns) {
      const rel::Value v = table.column(c).GetValue(row);
      all_null &= v.is_null();
      key += v.ToString();
      key.push_back('\x1f');
    }
    if (all_null) {
      cluster[row] = row;  // no evidence of duplication
      continue;
    }
    auto [it, inserted] = first_seen.try_emplace(key, row);
    cluster[row] = it->second;
  }
  return cluster;
}

double DuplicateRatio(const rel::Table& table,
                      const std::vector<size_t>& columns) {
  if (table.NumRows() == 0) return 0.0;
  const std::vector<size_t> clusters = DeduplicateRows(table, columns);
  size_t duplicates = 0;
  for (size_t row = 0; row < clusters.size(); ++row) {
    duplicates += clusters[row] != row ? 1 : 0;
  }
  return static_cast<double>(duplicates) / static_cast<double>(table.NumRows());
}

}  // namespace integration
}  // namespace amalur
