#include "common/string_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace amalur {
namespace {

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"m", "a", "hr", "o"};
  EXPECT_EQ(Join(parts, ","), "m,a,hr,o");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(TrimTest, RemovesAsciiWhitespace) {
  EXPECT_EQ(Trim("  resting HR \t\n"), "resting HR");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLower("RestingHR"), "restinghr");
  EXPECT_EQ(ToLower("már"), "már");  // non-ASCII bytes pass through
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("mortality", "mort"));
  EXPECT_FALSE(StartsWith("mort", "mortality"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("oxygen", "oxygen"), 0u);
  EXPECT_EQ(EditDistance("age", "page"), 1u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("restingHR", "heart_rate"),
            EditDistance("heart_rate", "restingHR"));
}

/// Textbook full-matrix Levenshtein distance, the reference for the banded DP.
size_t ReferenceEditDistance(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return d[a.size()][b.size()];
}

TEST(BoundedEditDistanceTest, KnownValues) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
  EXPECT_GT(BoundedEditDistance("kitten", "sitting", 2), 2u);
  EXPECT_GT(BoundedEditDistance("abcdef", "a", 4), 4u);  // length gap alone
  EXPECT_EQ(BoundedEditDistance("", "abc", 3), 3u);
  EXPECT_GT(BoundedEditDistance("abc", "", 0), 0u);
  EXPECT_EQ(BoundedEditDistance("same", "same", 0), 0u);
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting",
                                std::numeric_limits<size_t>::max()),
            3u);
}

TEST(BoundedEditDistanceTest, AgreesWithExactDistanceOnRandomStrings) {
  Rng rng(2024);
  const std::string alphabet = "abcA ";
  auto random_string = [&](size_t max_len) {
    std::string s(rng.NextUint64(max_len + 1), ' ');
    for (char& c : s) c = alphabet[rng.NextUint64(alphabet.size())];
    return s;
  };
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string a = random_string(12);
    // Half the pairs are near copies, so small distances are common.
    std::string b = a;
    if (trial % 2 == 0) {
      b = random_string(12);
    } else {
      for (uint64_t edits = rng.NextUint64(4); edits > 0; --edits) {
        const size_t at = rng.NextUint64(b.size() + 1);
        const char c = alphabet[rng.NextUint64(alphabet.size())];
        const uint64_t kind = rng.NextUint64(3);
        if (kind == 0) {
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), c);
        } else if (at < b.size()) {
          if (kind == 1) {
            b.erase(at, 1);
          } else {
            b[at] = c;
          }
        }
      }
    }
    const size_t exact = ReferenceEditDistance(a, b);
    ASSERT_EQ(EditDistance(a, b), exact) << "'" << a << "' '" << b << "'";
    for (size_t bound = 0; bound <= 10; ++bound) {
      const size_t banded = BoundedEditDistance(a, b, bound);
      if (exact <= bound) {
        ASSERT_EQ(banded, exact) << "'" << a << "' '" << b << "' " << bound;
      } else {
        ASSERT_GT(banded, bound) << "'" << a << "' '" << b << "' " << bound;
      }
    }
  }
}

TEST(EditSimilarityTest, Bounds) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  double s = EditSimilarity("mortality", "mortal");
  EXPECT_GT(s, 0.5);
  EXPECT_LT(s, 1.0);
}

TEST(TrigramJaccardTest, IdenticalAndDisjoint) {
  EXPECT_DOUBLE_EQ(TrigramJaccard("oxygen", "oxygen"), 1.0);
  EXPECT_DOUBLE_EQ(TrigramJaccard("abcdef", "uvwxyz"), 0.0);
  EXPECT_DOUBLE_EQ(TrigramJaccard("", ""), 1.0);
  double s = TrigramJaccard("resting heart rate", "rate of resting heart");
  EXPECT_GT(s, 0.3);
}

TEST(CanonicalizeIdentifierTest, StripsSeparatorsAndCase) {
  EXPECT_EQ(CanonicalizeIdentifier("resting HR"), "restinghr");
  EXPECT_EQ(CanonicalizeIdentifier("restingHR"), "restinghr");
  EXPECT_EQ(CanonicalizeIdentifier("date_diagnosed"), "datediagnosed");
  EXPECT_EQ(CanonicalizeIdentifier("__a-b c1__"), "abc1");
}

TEST(FormatDoubleTest, SignificantDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.14");
  EXPECT_EQ(FormatDouble(1000000.0, 4), "1e+06");
  EXPECT_EQ(FormatDouble(0.5, 2), "0.5");
}

}  // namespace
}  // namespace amalur
