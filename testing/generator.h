#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "relational/join.h"
#include "relational/table.h"

/// \file generator.h
/// Seeded synthetic silo generator. Substitutes for the paper's private
/// hospital/enterprise silos: every distribution property the cost model and
/// the Table III / Figure 5 experiments depend on (row counts, feature
/// counts, row overlap, join fan-out, within-source duplicates, null ratio,
/// shared feature columns) is an explicit knob, and ground-truth row matches
/// are recoverable by key equality.

namespace amalur {
namespace rel {

/// Specification of a synthetic two-silo scenario (base table S1 + new table
/// S2, in the paper's running-example roles).
struct SiloPairSpec {
  /// Dataset relationship this pair is destined for (Table I).
  JoinKind kind = JoinKind::kLeftJoin;
  /// Rows of the base table S1.
  size_t base_rows = 1000;
  /// Distinct entity rows of the new table S2 (before duplication).
  size_t other_rows = 200;
  /// Feature columns private to S1 (named x0, x1, ...).
  size_t base_features = 1;
  /// Feature columns private to S2 (named z0, z1, ...).
  size_t other_features = 100;
  /// Feature columns present in BOTH tables (named s0, s1, ...) with equal
  /// values for matched entities — the overlapping columns of §IV.A.
  size_t shared_features = 0;
  /// Fraction of S1 rows whose key exists in S2. Matched S1 rows are assigned
  /// round-robin over the matched S2 keys, so the join fan-out
  /// (target-table redundancy) is ≈ match_fraction·base_rows / matched keys.
  double match_fraction = 1.0;
  /// Fraction of S2 entity rows that are matched by at least one S1 row.
  double row_overlap = 1.0;
  /// Fraction of extra exact-duplicate rows appended to S2 (within-source
  /// redundancy; 0.5 means |S2| grows by 50% duplicates).
  double other_dup_rate = 0.0;
  /// Probability that a private feature cell is NULL.
  double null_ratio = 0.0;
  /// S2 also carries the label column (paper Examples 1, 2, 4).
  bool other_has_label = false;
  /// PRNG seed; equal specs with equal seeds generate identical data.
  uint64_t seed = 42;
};

/// A generated pair of silo tables.
///
/// Column layout: S1(k, y, s0.., x0..), S2(k, [y,] s0.., z0..). `k` is the
/// entity key (int64) used as ground truth for matching; `y` the label.
struct SiloPair {
  Table base;
  Table other;
  /// Private + shared feature names, per table, in target-schema order.
  std::vector<std::string> base_feature_names;
  std::vector<std::string> other_feature_names;
  std::vector<std::string> shared_feature_names;
  /// The spec that produced this pair.
  SiloPairSpec spec;

  /// Names of the feature columns of the target schema T (shared first, then
  /// S1-private, then S2-private) — the mediated schema of the scenario.
  std::vector<std::string> TargetFeatureNames() const;
};

/// Generates a silo pair per `spec`. Deterministic in `spec.seed`.
SiloPair GenerateSiloPair(const SiloPairSpec& spec);

/// Specification of a synthetic *snowflake* scenario: a fact table joined
/// to a chain of dimensions fact → dim0 → dim1 → ... Each level carries a
/// surrogate key `dim<i>_id` referenced round-robin by the level above, so
/// every edge fans out and redundancy compounds along the chain. The label
/// `y` lives on the fact and is linear in the fact's and every level's
/// features (plus noise), so chained feature augmentation genuinely helps.
struct SnowflakeSpec {
  size_t fact_rows = 1000;
  /// Fact feature columns (named x0, x1, ...).
  size_t fact_features = 2;
  /// Distinct rows per chain level (dim0, dim1, ...); each level must be no
  /// larger than the one above for the round-robin referencing to fan out.
  std::vector<size_t> level_rows = {100, 10};
  /// Feature columns per chain level, named with a distinct per-level
  /// prefix letter (u0..., v0..., w0...).
  std::vector<size_t> level_features = {3, 2};
  uint64_t seed = 42;
};

/// A generated snowflake. `tables[0]` is the fact, then the chain in order;
/// `chain_keys[i]` is the key column joining tables[i] to tables[i + 1].
struct Snowflake {
  std::vector<Table> tables;
  std::vector<std::string> chain_keys;
  SnowflakeSpec spec;
};

/// Generates a snowflake per `spec`. Deterministic in `spec.seed`.
Snowflake GenerateSnowflake(const SnowflakeSpec& spec);

/// Specification of a synthetic *conformed-snowflake* scenario: one fact
/// table referencing `branches` intermediate dimensions, all of which
/// reference ONE shared ("conformed") dimension — the classic warehouse
/// shape of a single `date`/`customer` table serving several parents. The
/// per-branch key assignments are constructed so every parent chain
/// resolves a fact row to the *same* shared row (the conformed contract),
/// and the label is linear in the fact's, every branch's and the shared
/// dimension's features — the shared features count once.
struct ConformedSnowflakeSpec {
  size_t fact_rows = 1000;
  /// Fact feature columns (named x0, x1, ...).
  size_t fact_features = 2;
  /// Intermediate dimensions referencing the shared one.
  size_t branches = 2;
  /// Distinct rows per intermediate dimension.
  size_t branch_rows = 50;
  /// Feature columns per intermediate dimension (distinct per-branch prefix
  /// letters, as in `SnowflakeSpec`).
  size_t branch_features = 2;
  /// Distinct rows of the shared (conformed) dimension.
  size_t shared_rows = 10;
  /// Feature columns of the shared dimension.
  size_t shared_features = 2;
  /// Fraction of fact rows whose branch references resolve; the rest carry
  /// dangling keys absent from every branch — exactly the rows an
  /// inner-join edge drops from the target.
  double match_fraction = 1.0;
  uint64_t seed = 42;
};

/// A generated conformed snowflake: tables = [fact, branch0, ...,
/// branch<B-1>, shared]. The fact references branch b on
/// `branch_keys[b]` ("branch<b>_id"); every branch references the shared
/// dimension on `shared_key` ("shared_id").
struct ConformedSnowflake {
  std::vector<Table> tables;
  std::vector<std::string> branch_keys;
  std::string shared_key;
  ConformedSnowflakeSpec spec;
};

/// Generates a conformed snowflake per `spec`. Deterministic in `spec.seed`.
ConformedSnowflake GenerateConformedSnowflake(const ConformedSnowflakeSpec& spec);

/// Specification of a synthetic *union-of-stars* scenario: `shards`
/// horizontally partitioned fact silos with a common schema (y, x0, ...),
/// each referencing a private dimension table through its own surrogate key
/// `dim<i>_id` — paper Table I's union relationship between the shards plus
/// one left-join star edge per shard.
struct UnionOfStarsSpec {
  size_t shards = 2;
  /// Rows per fact shard.
  size_t fact_rows = 500;
  /// Fact feature columns shared by every shard (named x0, x1, ...).
  size_t fact_features = 2;
  /// Distinct rows of each shard's private dimension.
  size_t dim_rows = 50;
  /// Feature columns of each shard's dimension (distinct per-shard prefix
  /// letters, as in `SnowflakeSpec`).
  size_t dim_features = 3;
  uint64_t seed = 42;
};

/// A generated union-of-stars, shard-major: tables = [fact0, dim0, fact1,
/// dim1, ...]. Shard i's fact joins its dimension on `dim<i>_id`.
struct UnionOfStars {
  std::vector<Table> tables;
  UnionOfStarsSpec spec;
};

/// Generates a union-of-stars per `spec`. Deterministic in `spec.seed`.
UnionOfStars GenerateUnionOfStars(const UnionOfStarsSpec& spec);

/// Single-table generator: `rows` x `features` Gaussian features plus a label
/// column `y` = Θᵀx + ε and an int64 key column `k` = 0..rows-1.
Table GenerateTable(const std::string& name, size_t rows, size_t features,
                    uint64_t seed);

/// Column of `rows` cells drawn from values whose `Value::ToString()`
/// renderings collide or nearly collide: NULL, "" and short strings with
/// case variants; 0, +-1 and the int64 extremes; +-0.0, +-inf, 0.1 + 0.2 vs
/// 0.3, and NaNs of both signs with random payloads. Some NULLs overwrite a
/// present cell, so a NULL's stale payload is exercised too. Deterministic
/// in `seed`.
Column GenerateEdgeCaseColumn(const std::string& name, DataType type,
                              size_t rows, uint64_t seed);

}  // namespace rel
}  // namespace amalur
