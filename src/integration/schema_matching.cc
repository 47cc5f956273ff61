#include "integration/schema_matching.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"

namespace amalur {
namespace integration {

namespace {

/// Signal weights of the combined score, normalized by their sum.
constexpr double kNameWeight = 0.5;
constexpr double kTypeWeight = 0.15;
constexpr double kInstanceWeight = 0.35;
/// Seed of the instance samples, drawn once per table and call.
constexpr uint64_t kSampleSeed = 0xA3A1;
/// Shortest canonical name the containment signal counts.
constexpr size_t kMinContainedLength = 3;

double NameSimilarity(const std::string& a, const std::string& b) {
  const std::string ca = CanonicalizeIdentifier(a);
  const std::string cb = CanonicalizeIdentifier(b);
  if (ca.empty() || cb.empty()) return 0.0;
  if (ca == cb) return 1.0;
  // Abbreviation heuristic: "resting" vs "restinghr" — containment counts
  // once the shorter name has kMinContainedLength characters, so a one- or
  // two-letter label ("y") does not pair with every name holding its letters.
  double containment = 0.0;
  if (std::min(ca.size(), cb.size()) >= kMinContainedLength &&
      (ca.find(cb) != std::string::npos || cb.find(ca) != std::string::npos)) {
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

/// One column's sampled instances, profiled once per matcher call: the
/// range and mean of a numeric sample, or the distinct lower-cased values of
/// a string sample (sorted).
struct ColumnProfile {
  double lo = 1e300, hi = -1e300, mean = 0.0;
  size_t count = 0;
  std::vector<std::string> values;
};

ColumnProfile Profile(const rel::Column& col,
                      const std::vector<size_t>& sample) {
  ColumnProfile p;
  if (col.type() == rel::DataType::kString) {
    for (size_t row : sample) {
      if (!col.IsNull(row)) p.values.push_back(ToLower(col.string_data()[row]));
    }
    std::sort(p.values.begin(), p.values.end());
    p.values.erase(std::unique(p.values.begin(), p.values.end()),
                   p.values.end());
    return p;
  }
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

double NumericInstanceSimilarity(const ColumnProfile& pa,
                                 const ColumnProfile& pb) {
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

/// Jaccard similarity of the two distinct-value sets.
double StringInstanceSimilarity(const ColumnProfile& pa,
                                const ColumnProfile& pb) {
  if (pa.values.empty() || pb.values.empty()) return 0.0;
  size_t intersection = 0;
  auto a = pa.values.begin();
  auto b = pb.values.begin();
  while (a != pa.values.end() && b != pb.values.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++intersection;
      ++a;
      ++b;
    }
  }
  const size_t unioned = pa.values.size() + pb.values.size() - intersection;
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

/// The row samples of one matcher call: the left sample is drawn first from
/// a fresh generator, then the right one.
std::pair<std::vector<size_t>, std::vector<size_t>> DrawSamples(
    size_t left_rows, size_t right_rows, size_t sample_size) {
  Rng rng(kSampleSeed);
  auto left = SampleRows(left_rows, sample_size, &rng);
  auto right = SampleRows(right_rows, sample_size, &rng);
  return {std::move(left), std::move(right)};
}

double ScoreProfiles(const rel::Column& left, const ColumnProfile& left_profile,
                     const rel::Column& right,
                     const ColumnProfile& right_profile) {
  const double type_score = TypeCompatibility(left.type(), right.type());
  if (type_score == 0.0) return 0.0;  // string vs numeric never matches
  const double name_score = NameSimilarity(left.name(), right.name());
  const double instance_score =
      left.type() == rel::DataType::kString
          ? StringInstanceSimilarity(left_profile, right_profile)
          : NumericInstanceSimilarity(left_profile, right_profile);
  const double total_weight = kNameWeight + kTypeWeight + kInstanceWeight;
  return (kNameWeight * name_score + kTypeWeight * type_score +
          kInstanceWeight * instance_score) /
         total_weight;
}

}  // namespace

double ScoreColumnPair(const rel::Column& left, const rel::Column& right,
                       const SchemaMatcherOptions& options) {
  const auto [sample_left, sample_right] =
      DrawSamples(left.size(), right.size(), options.sample_size);
  return ScoreProfiles(left, Profile(left, sample_left), right,
                       Profile(right, sample_right));
}

std::vector<ColumnMatch> MatchSchemas(const rel::Table& left,
                                      const rel::Table& right,
                                      const SchemaMatcherOptions& options) {
  const auto [sample_left, sample_right] =
      DrawSamples(left.NumRows(), right.NumRows(), options.sample_size);
  std::vector<ColumnProfile> right_profiles;
  for (size_t j = 0; j < right.NumColumns(); ++j) {
    right_profiles.push_back(Profile(right.column(j), sample_right));
  }
  std::vector<ColumnMatch> candidates;
  for (size_t i = 0; i < left.NumColumns(); ++i) {
    const ColumnProfile left_profile = Profile(left.column(i), sample_left);
    for (size_t j = 0; j < right.NumColumns(); ++j) {
      const double score = ScoreProfiles(left.column(i), left_profile,
                                         right.column(j), right_profiles[j]);
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
