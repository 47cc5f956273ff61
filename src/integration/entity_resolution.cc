#include "integration/entity_resolution.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "common/string_util.h"

namespace amalur {
namespace integration {

namespace {

/// Candidate pairs compared per left row and block (guards the quadratic
/// worst case when blocking degenerates).
constexpr size_t kMaxBlockSize = 4096;

/// Saturating per-cell character histogram over `c % 32` buckets. An edit
/// changes it by at most 2 in L1 (saturation only shrinks differences), so
/// ceil(L1 / 2) bounds the edit distance from below.
using CharHistogram = std::array<uint8_t, 32>;

/// One side of a matched column pair, prepared once per call. String columns
/// carry each cell lower-cased ("" for NULL) and its histogram.
struct PreparedColumn {
  const rel::Column* column;
  std::vector<std::string> lowered;
  std::vector<CharHistogram> histograms;
};

PreparedColumn Prepare(const rel::Column& column) {
  PreparedColumn out{&column, {}, {}};
  if (column.type() != rel::DataType::kString) return out;
  out.lowered.reserve(column.size());
  out.histograms.resize(column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    out.lowered.push_back(column.IsNull(row)
                              ? std::string()
                              : ToLower(column.string_data()[row]));
    CharHistogram& histogram = out.histograms[row];
    histogram.fill(0);
    for (unsigned char c : out.lowered.back()) {
      uint8_t& bucket = histogram[c % histogram.size()];
      if (bucket < UINT8_MAX) ++bucket;
    }
  }
  return out;
}

/// Edit similarity of two strings at edit distance `distance`, the longer of
/// length `longest` (the `EditSimilarity` formula).
double StringSimilarity(size_t distance, size_t longest) {
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
}

double NumericSimilarity(double va, double vb) {
  if (va == vb) return 1.0;
  const double scale = std::fabs(va) + std::fabs(vb);
  return std::max(0.0, 1.0 - std::fabs(va - vb) / (scale > 0 ? scale : 1.0));
}

/// Blocking key of one row: lower-cased first character for strings,
/// magnitude bucket for numerics, "" for NULL (null keys block together).
std::string BlockKey(const PreparedColumn& side, size_t row) {
  const rel::Column& col = *side.column;
  if (col.IsNull(row)) return "";
  if (col.type() == rel::DataType::kString) {
    return side.lowered[row].substr(0, 1);
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

/// Scores candidate pairs by the mean per-column similarity, computing an
/// edit distance only for pairs whose similarity bound reaches the
/// threshold. Accepted scores are exact: the column similarities are summed
/// in column order, as the unpruned definition does.
class PairScorer {
 public:
  PairScorer(const rel::Table& left, const rel::Table& right,
             const std::vector<ColumnMatch>& matches, double threshold)
      : threshold_(threshold),
        columns_(static_cast<double>(matches.size())),
        similarity_(matches.size()),
        exact_(matches.size()) {
    for (const ColumnMatch& m : matches) {
      left_.push_back(Prepare(left.column(m.left_column)));
      right_.push_back(Prepare(right.column(m.right_column)));
    }
  }

  const PreparedColumn& left(size_t match) const { return left_[match]; }
  const PreparedColumn& right(size_t match) const { return right_[match]; }

  /// Appends (l, r, score) to `out` when the pair's mean similarity reaches
  /// the threshold.
  void Score(size_t l, size_t r, std::vector<EntityMatch>* out) {
    for (size_t k = 0; k < similarity_.size(); ++k) Bound(k, l, r);
    if (!Reaches(Sum())) return;
    for (size_t k = 0; k < similarity_.size(); ++k) {
      if (exact_[k]) continue;
      const std::string& a = left_[k].lowered[l];
      const std::string& b = right_[k].lowered[r];
      const size_t longest = std::max(a.size(), b.size());
      // The most edits that may still reach the threshold with every other
      // column at its bound, plus one edit of slack for rounding.
      const double others = Sum() - similarity_[k];
      const double most = (1.0 - (threshold_ * columns_ - others)) *
                          static_cast<double>(longest);
      size_t budget = longest;
      if (most < static_cast<double>(longest)) {
        budget = most > 0.0 ? static_cast<size_t>(most) + 1 : 1;
      }
      size_t distance = BoundedEditDistance(a, b, budget);
      if (distance > budget) {
        // The budget only limits the DP: the skip rests on the bound
        // `distance > budget`, and should rounding defeat the slack, the
        // exact distance is computed rather than the pair dropped.
        similarity_[k] = StringSimilarity(budget + 1, longest);
        if (!Reaches(Sum())) return;
        distance = BoundedEditDistance(a, b, longest);
      }
      similarity_[k] = StringSimilarity(distance, longest);
      exact_[k] = 1;
    }
    const double score = Sum() / columns_;
    if (score >= threshold_) out->push_back({l, r, score});
  }

 private:
  /// Sets column `k`'s similarity: exact for NULL, numeric and empty cells,
  /// an upper bound from the length and histogram distances otherwise.
  void Bound(size_t k, size_t l, size_t r) {
    const rel::Column& a = *left_[k].column;
    const rel::Column& b = *right_[k].column;
    exact_[k] = 1;
    const bool null_a = a.IsNull(l);
    const bool null_b = b.IsNull(r);
    if (null_a || null_b) {
      // Jointly missing: no evidence against.
      similarity_[k] = null_a && null_b ? 1.0 : 0.0;
      return;
    }
    const bool str_a = a.type() == rel::DataType::kString;
    const bool str_b = b.type() == rel::DataType::kString;
    if (str_a != str_b) {
      similarity_[k] = 0.0;
    } else if (!str_a) {
      similarity_[k] = NumericSimilarity(a.GetDouble(l), b.GetDouble(r));
    } else {
      const size_t len_a = left_[k].lowered[l].size();
      const size_t len_b = right_[k].lowered[r].size();
      const size_t longest = std::max(len_a, len_b);
      const CharHistogram& ha = left_[k].histograms[l];
      const CharHistogram& hb = right_[k].histograms[r];
      size_t l1 = 0;
      for (size_t i = 0; i < ha.size(); ++i) {
        l1 += static_cast<size_t>(std::abs(static_cast<int>(ha[i]) - hb[i]));
      }
      const size_t fewest =
          std::max(longest - std::min(len_a, len_b), (l1 + 1) / 2);
      similarity_[k] = StringSimilarity(fewest, longest);
      exact_[k] = longest == 0 ? 1 : 0;
    }
  }

  double Sum() const {
    double sum = 0.0;
    for (double s : similarity_) sum += s;
    return sum;
  }

  bool Reaches(double sum) const { return !(sum / columns_ < threshold_); }

  double threshold_;
  double columns_;
  std::vector<PreparedColumn> left_, right_;
  std::vector<double> similarity_;
  std::vector<uint8_t> exact_;
};

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

  // Candidate generation and scoring, one candidate at a time.
  PairScorer scorer(left, right, column_matches, options.threshold);
  std::vector<EntityMatch> scored;
  if (options.use_blocking) {
    const size_t pair_index = ChooseBlockingPair(left, column_matches);
    std::unordered_map<std::string, std::vector<size_t>> right_blocks;
    for (size_t r = 0; r < right.NumRows(); ++r) {
      right_blocks[BlockKey(scorer.right(pair_index), r)].push_back(r);
    }
    for (size_t l = 0; l < left.NumRows(); ++l) {
      auto it = right_blocks.find(BlockKey(scorer.left(pair_index), l));
      if (it == right_blocks.end()) continue;
      const std::vector<size_t>& block = it->second;
      for (size_t i = 0; i < std::min(block.size(), kMaxBlockSize); ++i) {
        scorer.Score(l, block[i], &scored);
      }
    }
  } else {
    for (size_t l = 0; l < left.NumRows(); ++l) {
      for (size_t r = 0; r < right.NumRows(); ++r) scorer.Score(l, r, &scored);
    }
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
  const size_t rows = table.NumRows();
  std::vector<uint64_t> row_hash(rows, 0);
  std::vector<uint8_t> all_null(rows, 1);
  for (size_t c : columns) {
    const rel::Column& column = table.column(c);
    for (size_t row = 0; row < rows; ++row) {
      row_hash[row] = row_hash[row] * 0x100000001B3ULL + column.CellHash(row);
      all_null[row] &= column.IsNull(row) ? 1 : 0;
    }
  }
  auto hash = [&row_hash](size_t row) { return row_hash[row]; };
  auto equal = [&](size_t a, size_t b) {
    for (size_t c : columns) {
      if (!table.column(c).CellsEqual(a, b)) return false;
    }
    return true;
  };
  std::unordered_set<size_t, decltype(hash), decltype(equal)> first_seen(
      rows, hash, equal);
  std::vector<size_t> cluster(rows);
  for (size_t row = 0; row < rows; ++row) {
    if (all_null[row]) {
      cluster[row] = row;  // no evidence of duplication
      continue;
    }
    cluster[row] = *first_seen.insert(row).first;
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
