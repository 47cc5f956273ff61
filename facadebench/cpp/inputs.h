#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relational/table.h"

/// \file inputs.h
/// Seeded inputs of the three workloads, built with the public `rel::` table
/// API only. Equal seeds give equal tables. The ground truth of every row
/// matching (foreign keys, the ER pair's withheld entity ids) is kept beside
/// the tables and never handed to the program; the benchmark only scores
/// the program's matchings against it.
///
/// Labels are linear in every silo's features with fixed coefficients (they
/// do not depend on the seed) plus Gaussian noise, so feature augmentation
/// genuinely lowers the loss and the loss level is comparable across seeds.
/// Columns carry descriptive names, distinct per table, so the schema
/// matcher pairs exactly the key (or entity-name) columns: its containment
/// heuristic pairs a one-letter label such as `y` with any feature whose name
/// contains that letter.

namespace facadebench {

namespace rel = amalur::rel;

/// A row matching's ground truth: the true (left row, right row) pairs.
using TruePairs = std::vector<std::pair<size_t, size_t>>;

/// Fact table with three fan-out dimensions (feature augmentation).
struct StarSpec {
  size_t fact_rows = 50000;
  size_t fact_features = 4;
  std::vector<size_t> dim_rows = {2500, 500, 200};
  std::vector<size_t> dim_features = {20, 20, 10};
};
struct StarInputs {
  rel::Table fact;
  std::vector<rel::Table> dims;  ///< customers, products, stores
  std::vector<TruePairs> truth;  ///< fact -> dims[d]
};
StarInputs MakeStar(const StarSpec& spec, uint64_t seed);

/// Two silos that share part of their entities 1:1 with no surrogate key:
/// rows pair up on a string name that carries injected typos.
struct ErPairSpec {
  size_t rows = 4000;           ///< rows per side
  double overlap = 0.8;         ///< share of each side's entities in both
  double typo_rate = 0.1;       ///< share of shared names misspelled on B
  size_t left_features = 8;
  size_t right_features = 32;
};
struct ErPair {
  rel::Table left;   ///< name, outcome, vital_*
  rel::Table right;  ///< name, genome_*
  TruePairs truth;   ///< from the withheld entity ids
};
ErPair MakeErPair(const ErPairSpec& spec, uint64_t seed);

/// Snowflake fact -> items -> categories. The dimensions are generated once;
/// every refresh brings a new fact version over the same dimensions.
struct SnowflakeSpec {
  size_t fact_rows = 60000;
  size_t fact_features = 4;
  size_t item_rows = 3000;
  size_t item_features = 20;
  size_t category_rows = 250;
  size_t category_features = 8;
};
struct SnowflakeDims {
  rel::Table items;       ///< item_id, cat_id, shelf_*
  rel::Table categories;  ///< cat_id, margin_*
  TruePairs item_to_category;
  /// Each item's noiseless label contribution (its own and its category's
  /// features times the fixed coefficients).
  std::vector<double> item_effect;
};
SnowflakeDims MakeSnowflakeDims(const SnowflakeSpec& spec, uint64_t seed);
struct FactVersion {
  rel::Table fact;  ///< item_id, qty_*, demand
  TruePairs truth;  ///< fact -> items
};
FactVersion MakeFactVersion(const SnowflakeSpec& spec,
                            const SnowflakeDims& dims, uint64_t seed);

/// Mixes a run seed with a stream index (op number, table role).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace facadebench
