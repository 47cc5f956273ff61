#include "integration/schema_matching.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/string_util.h"

namespace amalur {
namespace integration {

namespace {

/// Signal weights of the combined score, normalized by their sum.
constexpr double kNameWeight = 0.5;
constexpr double kTypeWeight = 0.15;
constexpr double kInstanceWeight = 0.35;
/// Seed of the per-column instance sample.
constexpr uint64_t kSampleSeed = 0xA3A1;

double NameSimilarity(const std::string& a, const std::string& b) {
  const std::string ca = CanonicalizeIdentifier(a);
  const std::string cb = CanonicalizeIdentifier(b);
  if (ca.empty() || cb.empty()) return 0.0;
  if (ca == cb) return 1.0;
  // Abbreviation heuristic: "hr" vs "heartrate" — prefix/containment counts.
  double containment = 0.0;
  if (ca.find(cb) != std::string::npos || cb.find(ca) != std::string::npos) {
    containment = 0.8;
  }
  return std::max({EditSimilarity(ca, cb), TrigramJaccard(ca, cb), containment});
}

double TypeCompatibility(rel::DataType a, rel::DataType b) {
  if (a == b) return 1.0;
  const bool a_numeric = a != rel::DataType::kString;
  const bool b_numeric = b != rel::DataType::kString;
  if (a_numeric && b_numeric) return 0.8;  // int64 vs double
  return 0.0;
}

/// Summary of a numeric column sample.
struct NumericProfile {
  double lo = 0.0, hi = 0.0, mean = 0.0;
  size_t count = 0;
};

NumericProfile ProfileNumeric(const rel::Column& col,
                              const std::vector<size_t>& sample) {
  NumericProfile p;
  p.lo = 1e300;
  p.hi = -1e300;
  double sum = 0.0;
  for (size_t row : sample) {
    if (col.IsNull(row)) continue;
    const double v = col.GetDouble(row);
    p.lo = std::min(p.lo, v);
    p.hi = std::max(p.hi, v);
    sum += v;
    ++p.count;
  }
  if (p.count > 0) p.mean = sum / static_cast<double>(p.count);
  return p;
}

double NumericInstanceSimilarity(const rel::Column& a, const rel::Column& b,
                                 const std::vector<size_t>& sample_a,
                                 const std::vector<size_t>& sample_b) {
  const NumericProfile pa = ProfileNumeric(a, sample_a);
  const NumericProfile pb = ProfileNumeric(b, sample_b);
  if (pa.count == 0 || pb.count == 0) return 0.0;
  // Interval overlap of the observed ranges.
  const double lo = std::max(pa.lo, pb.lo);
  const double hi = std::min(pa.hi, pb.hi);
  const double span = std::max(pa.hi, pb.hi) - std::min(pa.lo, pb.lo);
  double overlap = 0.0;
  if (span <= 0.0) {
    overlap = pa.lo == pb.lo ? 1.0 : 0.0;  // both constant
  } else {
    overlap = std::max(0.0, hi - lo) / span;
  }
  // Mean closeness relative to the joint span.
  const double mean_gap =
      span <= 0.0 ? 0.0 : std::fabs(pa.mean - pb.mean) / span;
  return 0.7 * overlap + 0.3 * (1.0 - std::min(1.0, mean_gap));
}

double StringInstanceSimilarity(const rel::Column& a, const rel::Column& b,
                                const std::vector<size_t>& sample_a,
                                const std::vector<size_t>& sample_b) {
  std::set<std::string> values_a, values_b;
  for (size_t row : sample_a) {
    if (!a.IsNull(row)) values_a.insert(ToLower(a.KeyString(row)));
  }
  for (size_t row : sample_b) {
    if (!b.IsNull(row)) values_b.insert(ToLower(b.KeyString(row)));
  }
  if (values_a.empty() || values_b.empty()) return 0.0;
  size_t intersection = 0;
  for (const std::string& v : values_a) intersection += values_b.count(v);
  const size_t unioned = values_a.size() + values_b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unioned);
}

std::vector<size_t> SampleRows(size_t rows, size_t sample_size, Rng* rng) {
  if (rows <= sample_size) {
    std::vector<size_t> all(rows);
    for (size_t i = 0; i < rows; ++i) all[i] = i;
    return all;
  }
  return rng->SampleWithoutReplacement(rows, sample_size);
}

}  // namespace

double ScoreColumnPair(const rel::Column& left, const rel::Column& right,
                       const SchemaMatcherOptions& options) {
  const double type_score = TypeCompatibility(left.type(), right.type());
  if (type_score == 0.0) return 0.0;  // string vs numeric never matches
  const double name_score = NameSimilarity(left.name(), right.name());

  Rng rng(kSampleSeed);
  const auto sample_left = SampleRows(left.size(), options.sample_size, &rng);
  const auto sample_right = SampleRows(right.size(), options.sample_size, &rng);
  double instance_score = 0.0;
  if (left.type() == rel::DataType::kString) {
    instance_score =
        StringInstanceSimilarity(left, right, sample_left, sample_right);
  } else {
    instance_score =
        NumericInstanceSimilarity(left, right, sample_left, sample_right);
  }

  const double total_weight = kNameWeight + kTypeWeight + kInstanceWeight;
  return (kNameWeight * name_score + kTypeWeight * type_score +
          kInstanceWeight * instance_score) /
         total_weight;
}

std::vector<ColumnMatch> MatchSchemas(const rel::Table& left,
                                      const rel::Table& right,
                                      const SchemaMatcherOptions& options) {
  std::vector<ColumnMatch> candidates;
  for (size_t i = 0; i < left.NumColumns(); ++i) {
    for (size_t j = 0; j < right.NumColumns(); ++j) {
      const double score = ScoreColumnPair(left.column(i), right.column(j),
                                           options);
      if (score >= options.threshold) candidates.push_back({i, j, score});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ColumnMatch& a, const ColumnMatch& b) {
              return a.score > b.score;
            });
  std::vector<uint8_t> left_used(left.NumColumns(), 0);
  std::vector<uint8_t> right_used(right.NumColumns(), 0);
  std::vector<ColumnMatch> matches;
  for (const ColumnMatch& c : candidates) {
    if (left_used[c.left_column] || right_used[c.right_column]) continue;
    left_used[c.left_column] = 1;
    right_used[c.right_column] = 1;
    matches.push_back(c);
  }
  std::sort(matches.begin(), matches.end(),
            [](const ColumnMatch& a, const ColumnMatch& b) {
              return a.left_column < b.left_column;
            });
  return matches;
}

}  // namespace integration
}  // namespace amalur
