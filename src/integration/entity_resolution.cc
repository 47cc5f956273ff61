#include "integration/entity_resolution.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/string_util.h"
#include "relational/row_index.h"

namespace amalur {
namespace integration {

namespace {

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

// A candidate filter visits every pair whose filter-column similarity can
// reach that column's floor, and maybe more; `PairScorer`'s exact verdict
// decides. Each bound rounds outward, so a filter never loses a pair.

/// The least similarity one column can have in a pair that reaches
/// `threshold` over `columns` matched columns, every other column at its
/// best (1.0): t·m − (m − 1), lowered by a margin far above the rounding of
/// the scorer's column sum.
double ColumnFloor(double threshold, size_t columns) {
  const double m = static_cast<double>(columns);
  return threshold * m - (m - 1.0) - 1e-9 * m;
}

/// The column floors above which each filter costs less than scoring all
/// pairs, measured on one core with 4,000 rows a side. Pass-Join's segments
/// shorten as the floor falls: on 11–14 character names it lost at 0.64 and
/// won at 0.66; on 60–100 character strings it lost by 1.3× at 0.66, broke
/// even at 0.70 and won from 0.75. The numeric window made no difference at
/// floors up to 0.4, where it passes nearly every pair, and won from 0.5.
constexpr double kStringFilterFloor = 0.65;
constexpr double kNumericFilterFloor = 0.45;

/// Index of the first matched pair whose two columns are both strings
/// (`strings`) or both numeric; `pairs` when there is none.
size_t FirstPair(const PairScorer& scorer, size_t pairs, bool strings) {
  for (size_t k = 0; k < pairs; ++k) {
    if ((scorer.left(k).column->type() == rel::DataType::kString) == strings &&
        (scorer.right(k).column->type() == rel::DataType::kString) == strings) {
      return k;
    }
  }
  return pairs;
}

/// Visits every (NULL, NULL) pair: in the filter column a NULL scores 1
/// against a NULL and 0 against a value.
template <typename Visit>
void NullPairs(const rel::Column& left, const rel::Column& right,
               Visit visit) {
  std::vector<size_t> right_nulls;
  for (size_t r = 0; r < right.size(); ++r) {
    if (right.IsNull(r)) right_nulls.push_back(r);
  }
  if (right_nulls.empty()) return;
  for (size_t l = 0; l < left.size(); ++l) {
    if (!left.IsNull(l)) continue;
    for (size_t r : right_nulls) visit(l, r);
  }
}

/// Visits the non-NULL pairs whose `NumericSimilarity` can reach `floor`
/// (> 0). Only equal values, or values of one sign with b/a in
/// [s/(2 − s), (2 − s)/s], get there (for 0 < a ≤ b the similarity is
/// 2a/(a + b)); NaN scores 0 against everything. A sorted copy of the right
/// side gives each left value its window by binary search. The floor's
/// margin widens the ratios far beyond their rounding, and rounding a
/// product is monotone, so no value inside the exact window falls outside.
template <typename Visit>
void NumericCandidates(const rel::Column& left, const rel::Column& right,
                       double floor, Visit visit) {
  std::vector<std::pair<double, size_t>> sorted;
  for (size_t r = 0; r < right.size(); ++r) {
    if (right.IsNull(r) || std::isnan(right.GetDouble(r))) continue;
    sorted.emplace_back(right.GetDouble(r), r);
  }
  std::sort(sorted.begin(), sorted.end());
  const double s = std::min(floor, 1.0);
  const double lo = s / (2.0 - s);
  const double hi = (2.0 - s) / s;
  for (size_t l = 0; l < left.size(); ++l) {
    if (left.IsNull(l) || std::isnan(left.GetDouble(l))) continue;
    const double a = left.GetDouble(l);
    const double from = std::min(a * lo, a * hi);
    const double to = std::max(a * lo, a * hi);
    auto it = std::lower_bound(sorted.begin(), sorted.end(), from,
                               [](const std::pair<double, size_t>& e,
                                  double v) { return e.first < v; });
    for (; it != sorted.end() && it->first <= to; ++it) visit(l, it->second);
  }
}

/// Most edits between a string of length n and a partner at least as long
/// whose edit similarity 1 − d/L reaches s, where `ratio` = (1 − s)/s:
/// L ≤ n + d gives d ≤ ratio · n. The floor's margin keeps the product's
/// rounding outward.
size_t MaxEdits(size_t n, double ratio) {
  return static_cast<size_t>(ratio * static_cast<double>(n));
}

/// Pass-Join's even partition: where segment `i` of `k` starts in a string
/// of length `n`; the last n % k segments are one character longer.
size_t SegmentStart(size_t n, size_t k, size_t i) {
  const size_t shorter = k - n % k;
  return i * (n / k) + (i > shorter ? i - shorter : 0);
}

/// Key of segment `i` of a string of length `n`: FNV-1a over its bytes,
/// seeded with (n, i), then SplitMix64's finalizer so the top bits spread.
uint64_t SegmentKey(size_t n, size_t i, std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL ^ (static_cast<uint64_t>(n) << 32) ^ i;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// One side's non-NULL strings by segment: a string of length n is cut into
/// MaxEdits(n) + 1 segments, each keyed by (n, segment number, bytes). The
/// entries are sorted by key, and a directory over the key's top bits holds
/// each bucket's first entry (CSR posting lists).
class SegmentIndex {
 public:
  SegmentIndex(const PreparedColumn& side, double ratio)
      : side_(side), ratio_(ratio), seen_(side.lowered.size(), kNone) {
    for (size_t row = 0; row < side.lowered.size(); ++row) {
      if (side.column->IsNull(row)) continue;
      const std::string_view s = side.lowered[row];
      const size_t k = MaxEdits(s.size(), ratio) + 1;
      for (size_t i = 0; i < k; ++i) {
        const size_t at = SegmentStart(s.size(), k, i);
        const size_t width = SegmentStart(s.size(), k, i + 1) - at;
        entries_.push_back({SegmentKey(s.size(), i, s.substr(at, width)), row});
      }
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    size_t bits = 1;
    while ((size_t{1} << bits) < entries_.size()) ++bits;
    shift_ = 64 - bits;
    bucket_start_.assign((size_t{1} << bits) + 1, 0);
    for (const Entry& e : entries_) ++bucket_start_[(e.key >> shift_) + 1];
    for (size_t b = 1; b < bucket_start_.size(); ++b) {
      bucket_start_[b] += bucket_start_[b - 1];
    }
  }

  /// Calls visit(row) once for each indexed row, as long as `s` or (when
  /// `strictly_shorter`) shorter, that may be within its MaxEdits of `s`.
  /// Such a row has a segment i with at most i edits before it, at most
  /// τ − i after it and τ in all, so the segment appears unedited in `s`
  /// within the multi-match-aware window of starts (Li et al.).
  /// `probe` names the caller's row: visits repeat only across probes.
  template <typename Visit>
  void Probe(std::string_view s, bool strictly_shorter, size_t probe,
             Visit visit) {
    const size_t len = s.size();
    if (strictly_shorter && len == 0) return;
    for (size_t n = strictly_shorter ? len - 1 : len;; --n) {
      const size_t tau = MaxEdits(n, ratio_);
      if (n + tau < len) return;  // shorter rows are further still
      const long delta = static_cast<long>(len - n);
      const long t = static_cast<long>(tau);
      for (size_t i = 0; i <= tau; ++i) {
        const size_t at = SegmentStart(n, tau + 1, i);
        const size_t width = SegmentStart(n, tau + 1, i + 1) - at;
        const long p = static_cast<long>(at);
        const long j = static_cast<long>(i);
        const long first = std::max({p - j, p + delta - (t - j), 0L});
        const long last = std::min(
            {p + j, p + delta + (t - j), static_cast<long>(len - width)});
        for (long q = first; q <= last; ++q) {
          Find(SegmentKey(n, i, s.substr(static_cast<size_t>(q), width)), n,
               probe, visit);
        }
      }
      if (n == 0) return;
    }
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Entry {
    uint64_t key;
    size_t row;
  };

  /// Visits the unseen rows of length `n` under `key` (the length check
  /// drops hash collisions across lengths, so no pair comes twice).
  template <typename Visit>
  void Find(uint64_t key, size_t n, size_t probe, Visit& visit) {
    const size_t bucket = key >> shift_;
    for (size_t e = bucket_start_[bucket]; e < bucket_start_[bucket + 1]; ++e) {
      const Entry& entry = entries_[e];
      if (entry.key != key || side_.lowered[entry.row].size() != n ||
          seen_[entry.row] == probe) {
        continue;
      }
      seen_[entry.row] = probe;
      visit(entry.row);
    }
  }

  const PreparedColumn& side_;
  double ratio_;
  std::vector<size_t> seen_;
  std::vector<Entry> entries_;
  std::vector<size_t> bucket_start_;
  int shift_ = 63;
};

/// Visits the non-NULL pairs whose edit similarity can reach `floor`
/// (> 0) with Pass-Join (Li, Deng, Wang and Feng, VLDB 2011): left strings
/// probe the right index for partners up to their own length, right strings
/// the left index for strictly shorter ones, so each pair comes once. "" is
/// one empty segment and finds exactly the other side's "".
template <typename Visit>
void StringCandidates(const PreparedColumn& left, const PreparedColumn& right,
                      double floor, Visit visit) {
  const double s = std::min(floor, 1.0);
  const double ratio = (1.0 - s) / s;
  {
    SegmentIndex right_index(right, ratio);
    for (size_t l = 0; l < left.lowered.size(); ++l) {
      if (left.column->IsNull(l)) continue;
      right_index.Probe(left.lowered[l], false, l,
                        [&](size_t r) { visit(l, r); });
    }
  }
  SegmentIndex left_index(left, ratio);
  for (size_t r = 0; r < right.lowered.size(); ++r) {
    if (right.column->IsNull(r)) continue;
    left_index.Probe(right.lowered[r], true, r,
                     [&](size_t l) { visit(l, r); });
  }
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

  // Candidate generation and scoring, one candidate at a time. The filter
  // column is the first string pair, else the first numeric pair; all pairs
  // are scored where the floor is too low for either filter to pay.
  PairScorer scorer(left, right, column_matches, options.threshold);
  std::vector<EntityMatch> scored;
  const auto score = [&](size_t l, size_t r) { scorer.Score(l, r, &scored); };
  const size_t pairs = column_matches.size();
  const double floor = ColumnFloor(options.threshold, pairs);
  const size_t strings = FirstPair(scorer, pairs, true);
  const size_t numbers = FirstPair(scorer, pairs, false);
  if (strings < pairs && floor > kStringFilterFloor) {
    NullPairs(*scorer.left(strings).column, *scorer.right(strings).column,
              score);
    StringCandidates(scorer.left(strings), scorer.right(strings), floor,
                     score);
  } else if (numbers < pairs && floor > kNumericFilterFloor) {
    NullPairs(*scorer.left(numbers).column, *scorer.right(numbers).column,
              score);
    NumericCandidates(*scorer.left(numbers).column,
                      *scorer.right(numbers).column, floor, score);
  } else {
    for (size_t l = 0; l < left.NumRows(); ++l) {
      for (size_t r = 0; r < right.NumRows(); ++r) score(l, r);
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

namespace {

/// Calls `visit(row, first)` for every row, rows ascending, where `first` is
/// the lowest row with cells equal to `row`'s in every column (`row` itself
/// when it is NULL in all of them).
template <typename Visit>
void ForEachFirstEqualRow(const rel::Table& table,
                          const std::vector<size_t>& columns, Visit visit) {
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
  rel::RowIndex first_seen(rows);
  const auto hash_of = [&row_hash](size_t row) { return row_hash[row]; };
  for (size_t row = 0; row < rows; ++row) {
    if (all_null[row]) {
      visit(row, row);  // no evidence of duplication
      continue;
    }
    visit(row, first_seen.FindOrInsert(
                   row_hash[row], row, hash_of, [&](size_t seen) {
                     for (size_t c : columns) {
                       if (!table.column(c).CellsEqual(seen, row)) {
                         return false;
                       }
                     }
                     return true;
                   }));
  }
}

}  // namespace

std::vector<size_t> DeduplicateRows(const rel::Table& table,
                                    const std::vector<size_t>& columns) {
  std::vector<size_t> cluster(table.NumRows());
  ForEachFirstEqualRow(table, columns,
                       [&](size_t row, size_t first) { cluster[row] = first; });
  return cluster;
}

double DuplicateRatio(const rel::Table& table,
                      const std::vector<size_t>& columns) {
  if (table.NumRows() == 0) return 0.0;
  size_t duplicates = 0;
  ForEachFirstEqualRow(table, columns, [&](size_t row, size_t first) {
    duplicates += first != row ? 1 : 0;
  });
  return static_cast<double>(duplicates) / static_cast<double>(table.NumRows());
}

}  // namespace integration
}  // namespace amalur
