#pragma once

#include <string>
#include <string_view>

/// \file string_util.h
/// Small string helpers shared by the CSV reader, schema matcher and entity
/// resolver. All functions are pure and allocation-conscious.

namespace amalur {

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lower-casing (locale-independent).
std::string ToLower(std::string_view text);

/// True when `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Levenshtein edit distance (unit costs), banded at `bound`: exact when the
/// distance is <= `bound`, otherwise some value > `bound`. O(max(|a|,|b|) *
/// (2 * bound + 1)) time, O(min(|a|,|b|)) space.
size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound);

/// Exact Levenshtein edit distance: `BoundedEditDistance` with a bound no
/// pair can exceed.
size_t EditDistance(std::string_view a, std::string_view b);

/// Edit-distance similarity in [0,1]: 1 - dist / max(|a|,|b|); 1.0 for two
/// empty strings.
double EditSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity of the character-trigram sets of `a` and `b`.
/// Used by instance-based schema matching; 1.0 when both have no trigrams.
double TrigramJaccard(std::string_view a, std::string_view b);

/// Canonical attribute-name form for matching: lower-cased alphanumerics only
/// ("resting HR" and "restingHR" both canonicalize to "restinghr").
std::string CanonicalizeIdentifier(std::string_view name);

/// Formats `value` with `digits` significant decimal digits (for table output).
std::string FormatDouble(double value, int digits);

}  // namespace amalur
