// Entity-resolution quality under injected noise: ER must recover the
// generator's ground-truth matching with high precision/recall even when
// names carry typos and attributes are partially null — and degrade
// gracefully (precision stays high) as noise grows.

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "integration/entity_resolution.h"
#include "relational/table.h"

namespace amalur {
namespace integration {
namespace {

/// Two silos describing the same `entities` people: left has all of them,
/// right has a subset, with `typo_rate` of right names perturbed and
/// `null_rate` of ages dropped.
struct NoisyPair {
  rel::Table left, right;
  std::vector<std::pair<size_t, size_t>> truth;  // (left row, right row)
};

NoisyPair MakeNoisyPair(size_t entities, double subset, double typo_rate,
                        double null_rate, uint64_t seed) {
  Rng rng(seed);
  NoisyPair pair;
  std::vector<std::string> names(entities);
  std::vector<int64_t> ages(entities);
  for (size_t e = 0; e < entities; ++e) {
    // Distinctive synthetic names: "p<e>x<random>".
    names[e] = "p" + std::to_string(e) + "x" + std::to_string(rng.NextUint64(90) + 10);
    ages[e] = rng.NextInt64(18, 95);
  }
  pair.left = rel::Table("L");
  AMALUR_CHECK_OK(pair.left.AddColumn(rel::Column::FromStrings("name", names)));
  AMALUR_CHECK_OK(pair.left.AddColumn(rel::Column::FromInt64s("age", ages)));

  pair.right = rel::Table("R");
  rel::Column r_names("name", rel::DataType::kString);
  rel::Column r_ages("age", rel::DataType::kInt64);
  size_t right_row = 0;
  for (size_t e = 0; e < entities; ++e) {
    if (!rng.NextBernoulli(subset)) continue;
    std::string name = names[e];
    if (rng.NextBernoulli(typo_rate) && name.size() > 3) {
      std::swap(name[1], name[2]);  // transposition typo
    }
    r_names.AppendString(name);
    if (rng.NextBernoulli(null_rate)) {
      r_ages.AppendNull();
    } else {
      r_ages.AppendInt64(ages[e]);
    }
    pair.truth.emplace_back(e, right_row++);
  }
  AMALUR_CHECK_OK(pair.right.AddColumn(std::move(r_names)));
  AMALUR_CHECK_OK(pair.right.AddColumn(std::move(r_ages)));
  return pair;
}

/// er-vfl's shape on one name column: `entities` distinct "Word Word" names
/// of random syllables on the left, a `subset` of them on the right, and
/// `typo_rate` of those with one letter substituted at a uniformly drawn
/// position, the first included.
NoisyPair MakeSyllableNamePair(size_t entities, double subset,
                               double typo_rate, uint64_t seed) {
  static const char* const kSyllables[] = {
      "ka", "lo", "mi", "re", "tha", "vo", "ne", "su", "da", "ri", "po",
      "el", "an", "gu", "fe", "zo", "bi", "ta", "mo", "ly", "ce", "ra",
      "no", "vi", "sha", "ku", "de", "or", "pa", "li", "ju", "we"};
  Rng rng(seed);
  auto word = [&](size_t syllables) {
    std::string w;
    for (size_t s = 0; s < syllables; ++s) w += kSyllables[rng.NextUint64(32)];
    w[0] = static_cast<char>(w[0] - 'a' + 'A');
    return w;
  };
  std::set<std::string> used;
  std::vector<std::string> names(entities);
  for (std::string& name : names) {
    do {
      name = word(2) + " " + word(3);
    } while (!used.insert(name).second);
  }
  NoisyPair pair;
  pair.left = rel::Table("L");
  AMALUR_CHECK_OK(pair.left.AddColumn(rel::Column::FromStrings("name", names)));
  std::vector<std::string> right_names;
  for (size_t e = 0; e < entities; ++e) {
    if (!rng.NextBernoulli(subset)) continue;
    std::string name = names[e];
    if (rng.NextBernoulli(typo_rate)) {
      // Matching lower-cases names, so the new letter must differ from the
      // old one's lower case: 'K' -> 'k' would be no edit at all.
      const size_t at = rng.NextUint64(name.size());
      const char old_letter = static_cast<char>(
          std::tolower(static_cast<unsigned char>(name[at])));
      char letter = old_letter;
      while (letter == old_letter || letter == ' ') {
        letter = static_cast<char>('a' + rng.NextUint64(26));
      }
      name[at] = letter;
    }
    pair.truth.emplace_back(e, right_names.size());
    right_names.push_back(std::move(name));
  }
  pair.right = rel::Table("R");
  AMALUR_CHECK_OK(
      pair.right.AddColumn(rel::Column::FromStrings("name", right_names)));
  return pair;
}

struct Quality {
  double precision;
  double recall;
};

Quality Evaluate(const rel::RowMatching& matching,
                 const std::vector<std::pair<size_t, size_t>>& truth) {
  std::set<std::pair<size_t, size_t>> truth_set(truth.begin(), truth.end());
  size_t hits = 0;
  for (const auto& m : matching.matched) hits += truth_set.count(m);
  const double precision =
      matching.matched.empty()
          ? 1.0
          : static_cast<double>(hits) / static_cast<double>(matching.matched.size());
  const double recall = truth.empty() ? 1.0
                                      : static_cast<double>(hits) /
                                            static_cast<double>(truth.size());
  return {precision, recall};
}

std::vector<ColumnMatch> NameAgeMatches() { return {{0, 0, 1.0}, {1, 1, 1.0}}; }

TEST(ErQualityTest, CleanDataIsPerfect) {
  NoisyPair pair = MakeNoisyPair(300, 0.6, 0.0, 0.0, 1);
  auto matching = ResolveEntities(pair.left, pair.right, NameAgeMatches());
  ASSERT_TRUE(matching.ok());
  Quality q = Evaluate(*matching, pair.truth);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

TEST(ErQualityTest, TyposToleratedWithHighRecall) {
  NoisyPair pair = MakeNoisyPair(300, 0.6, 0.3, 0.0, 2);
  EntityResolverOptions options;
  options.threshold = 0.75;
  auto matching =
      ResolveEntities(pair.left, pair.right, NameAgeMatches(), options);
  ASSERT_TRUE(matching.ok());
  Quality q = Evaluate(*matching, pair.truth);
  EXPECT_GT(q.precision, 0.95);
  EXPECT_GT(q.recall, 0.9);
}

TEST(ErQualityTest, NullsReduceRecallNotPrecision) {
  NoisyPair pair = MakeNoisyPair(300, 0.6, 0.1, 0.4, 3);
  EntityResolverOptions options;
  options.threshold = 0.75;
  auto matching =
      ResolveEntities(pair.left, pair.right, NameAgeMatches(), options);
  ASSERT_TRUE(matching.ok());
  Quality q = Evaluate(*matching, pair.truth);
  EXPECT_GT(q.precision, 0.9);   // accepted pairs stay trustworthy
  EXPECT_GT(q.recall, 0.5);      // some entities become unmatchable
}

TEST(ErQualityTest, StricterThresholdTradesRecallForPrecision) {
  NoisyPair pair = MakeNoisyPair(400, 0.5, 0.4, 0.2, 4);
  EntityResolverOptions loose;
  loose.threshold = 0.6;
  EntityResolverOptions strict;
  strict.threshold = 0.95;
  auto loose_match =
      ResolveEntities(pair.left, pair.right, NameAgeMatches(), loose);
  auto strict_match =
      ResolveEntities(pair.left, pair.right, NameAgeMatches(), strict);
  ASSERT_TRUE(loose_match.ok());
  ASSERT_TRUE(strict_match.ok());
  Quality ql = Evaluate(*loose_match, pair.truth);
  Quality qs = Evaluate(*strict_match, pair.truth);
  EXPECT_GE(qs.precision, ql.precision);
  EXPECT_GE(ql.recall, qs.recall);
}

TEST(ErQualityTest, TyposAnywhereInTheNameMatchAtErVflSettings) {
  // Threshold 0.85 on one name column, 10% of names misspelled at any
  // position; a pair whose typo hits the first letter counts like any other.
  size_t hits = 0, accepted = 0, truth = 0;
  for (uint64_t seed : {1, 2, 3}) {
    NoisyPair pair = MakeSyllableNamePair(1000, 0.8, 0.1, seed);
    auto matching = ResolveEntities(pair.left, pair.right, {{0, 0, 1.0}});
    ASSERT_TRUE(matching.ok());
    std::set<std::pair<size_t, size_t>> truth_set(pair.truth.begin(),
                                                  pair.truth.end());
    for (const auto& m : matching->matched) hits += truth_set.count(m);
    accepted += matching->matched.size();
    truth += pair.truth.size();
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(accepted), 0.999);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(truth), 0.999);
}

}  // namespace
}  // namespace integration
}  // namespace amalur
