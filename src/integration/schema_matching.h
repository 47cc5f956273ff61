#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "relational/table.h"

/// \file schema_matching.h
/// Automatic schema matching: given two tables, score column pairs with
/// name-, type- and instance-based signals and return a 1:1 set of column
/// matches. This is the DI process whose output feeds the mapping matrices
/// (§II: "column relationships from schema matching").

namespace amalur {
namespace integration {

/// One matched column pair with its combined score in [0, 1].
struct ColumnMatch {
  size_t left_column;
  size_t right_column;
  double score;
};

/// Knobs for `MatchSchemas`.
struct SchemaMatcherOptions {
  /// Minimum combined score for a pair to count as a match.
  double threshold = 0.55;
  /// Rows sampled per column for the instance-based signal.
  size_t sample_size = 200;
};

/// Scores one column pair (exposed for tests and for matcher ensembles).
double ScoreColumnPair(const rel::Column& left, const rel::Column& right,
                       const SchemaMatcherOptions& options);

/// Returns a 1:1 matching between columns of `left` and `right`: all pairs
/// scoring >= threshold, chosen greedily by descending score. Output is
/// sorted by left column index.
std::vector<ColumnMatch> MatchSchemas(const rel::Table& left,
                                      const rel::Table& right,
                                      const SchemaMatcherOptions& options = {});

}  // namespace integration
}  // namespace amalur
