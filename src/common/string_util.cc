#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <unordered_set>

namespace amalur {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound) {
  if (a.size() < b.size()) std::swap(a, b);  // ensure |b| <= |a|: O(|b|) space
  bound = std::min(bound, a.size());         // no distance exceeds |a|
  if (a.size() - b.size() > bound) return bound + 1;
  if (b.empty()) return a.size();
  // row[j] holds min(D(i, j), cap). Cells off the band |i - j| <= bound have
  // D >= |i - j| > bound, so they hold cap; nothing is computed there.
  const size_t cap = bound + 1;
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = std::min(j, cap);
  for (size_t i = 1; i <= a.size(); ++i) {
    const size_t lo = i > bound ? i - bound : 1;
    const size_t hi = std::min(b.size(), i + bound);
    size_t diagonal = row[lo - 1];
    row[lo - 1] = lo == 1 ? std::min(i, cap) : cap;
    size_t row_min = row[lo - 1];
    for (size_t j = lo; j <= hi; ++j) {
      const size_t above = row[j];
      const size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({above + 1, row[j - 1] + 1, substitution, cap});
      row_min = std::min(row_min, row[j]);
      diagonal = above;
    }
    // Every path to (|a|, |b|) crosses this row and never gets cheaper.
    if (row_min == cap) return cap;
  }
  return row[b.size()];
}

size_t EditDistance(std::string_view a, std::string_view b) {
  return BoundedEditDistance(a, b, std::max(a.size(), b.size()));
}

double EditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) / static_cast<double>(longest);
}

namespace {
std::unordered_set<uint32_t> Trigrams(std::string_view text) {
  std::unordered_set<uint32_t> grams;
  if (text.size() < 3) {
    if (!text.empty()) {
      uint32_t packed = 0;
      for (char c : text) packed = (packed << 8) | static_cast<unsigned char>(c);
      grams.insert(packed);
    }
    return grams;
  }
  for (size_t i = 0; i + 3 <= text.size(); ++i) {
    uint32_t packed = (static_cast<uint32_t>(static_cast<unsigned char>(text[i]))
                       << 16) |
                      (static_cast<uint32_t>(static_cast<unsigned char>(text[i + 1]))
                       << 8) |
                      static_cast<uint32_t>(static_cast<unsigned char>(text[i + 2]));
    grams.insert(packed);
  }
  return grams;
}
}  // namespace

double TrigramJaccard(std::string_view a, std::string_view b) {
  const auto grams_a = Trigrams(a);
  const auto grams_b = Trigrams(b);
  if (grams_a.empty() && grams_b.empty()) return 1.0;
  size_t intersection = 0;
  for (uint32_t gram : grams_a) {
    if (grams_b.count(gram) > 0) ++intersection;
  }
  const size_t unioned = grams_a.size() + grams_b.size() - intersection;
  return unioned == 0 ? 0.0
                      : static_cast<double>(intersection) /
                            static_cast<double>(unioned);
}

std::string CanonicalizeIdentifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
  return buffer;
}

}  // namespace amalur
