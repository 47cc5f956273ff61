#include "testing/generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/rng.h"

namespace amalur {
namespace rel {

std::vector<std::string> SiloPair::TargetFeatureNames() const {
  std::vector<std::string> names = shared_feature_names;
  names.insert(names.end(), base_feature_names.begin(), base_feature_names.end());
  names.insert(names.end(), other_feature_names.begin(),
               other_feature_names.end());
  return names;
}

namespace {

/// Appends `count` feature columns named `<prefix>0..` filled by `filler`.
std::vector<std::string> FeatureNames(const std::string& prefix, size_t count) {
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) names.push_back(prefix + std::to_string(i));
  return names;
}

}  // namespace

SiloPair GenerateSiloPair(const SiloPairSpec& spec) {
  Rng rng(spec.seed);
  SiloPair pair;
  pair.spec = spec;
  pair.shared_feature_names = FeatureNames("s", spec.shared_features);
  pair.base_feature_names = FeatureNames("x", spec.base_features);
  pair.other_feature_names = FeatureNames("z", spec.other_features);

  const size_t matched_other = std::min<size_t>(
      spec.other_rows,
      static_cast<size_t>(std::llround(spec.row_overlap *
                                       static_cast<double>(spec.other_rows))));
  const size_t matched_base = static_cast<size_t>(std::llround(
      spec.match_fraction * static_cast<double>(spec.base_rows)));

  // Entity-level shared feature values: shared columns must agree between the
  // two silos for the same entity (they describe the same real-world fact).
  // Key space: [0, other_rows) are S2 entities; keys >= other_rows are
  // S1-only entities.
  const size_t total_entities = spec.other_rows + spec.base_rows;  // upper bound
  la::DenseMatrix shared_values(total_entities, spec.shared_features);
  for (size_t e = 0; e < total_entities; ++e) {
    for (size_t j = 0; j < spec.shared_features; ++j) {
      shared_values.At(e, j) = rng.NextGaussian();
    }
  }

  // ---- S2 ("other"): distinct entity rows, then within-source duplicates.
  std::vector<int64_t> other_keys;
  other_keys.reserve(spec.other_rows);
  for (size_t i = 0; i < spec.other_rows; ++i) {
    other_keys.push_back(static_cast<int64_t>(i));
  }
  const size_t dup_count = static_cast<size_t>(
      std::llround(spec.other_dup_rate * static_cast<double>(spec.other_rows)));
  std::vector<size_t> other_source_entity;  // per S2 row -> entity id
  for (size_t i = 0; i < spec.other_rows; ++i) other_source_entity.push_back(i);
  for (size_t d = 0; d < dup_count; ++d) {
    other_source_entity.push_back(rng.NextUint64(spec.other_rows));
  }

  Table other("S2");
  {
    std::vector<int64_t> keys;
    keys.reserve(other_source_entity.size());
    for (size_t e : other_source_entity) {
      keys.push_back(static_cast<int64_t>(e));
    }
    AMALUR_CHECK_OK(other.AddColumn(Column::FromInt64s("k", std::move(keys))));
  }
  // Entity-level private features for S2 so duplicates are exact copies.
  la::DenseMatrix other_private(spec.other_rows, spec.other_features);
  for (size_t e = 0; e < spec.other_rows; ++e) {
    for (size_t j = 0; j < spec.other_features; ++j) {
      other_private.At(e, j) = rng.NextGaussian();
    }
  }
  // Entity-level labels: a linear signal over the entity's shared and
  // S2-private features plus noise, so that feature augmentation genuinely
  // improves a downstream model (the paper's use case 1). Entities absent
  // from S2 draw their z-part from the same prior, keeping label variance
  // comparable across matched and unmatched rows.
  std::vector<double> label_weights_z(spec.other_features);
  for (double& w : label_weights_z) w = rng.NextGaussian();
  std::vector<double> label_weights_s(spec.shared_features);
  for (double& w : label_weights_s) w = rng.NextGaussian();
  const double z_norm =
      spec.other_features > 0 ? std::sqrt(static_cast<double>(spec.other_features))
                              : 1.0;
  const double s_norm = spec.shared_features > 0
                            ? std::sqrt(static_cast<double>(spec.shared_features))
                            : 1.0;
  std::vector<double> entity_label(total_entities, 0.0);
  for (size_t e = 0; e < total_entities; ++e) {
    double signal = 0.0;
    for (size_t j = 0; j < spec.shared_features; ++j) {
      signal += label_weights_s[j] * shared_values.At(e, j) / s_norm;
    }
    if (e < spec.other_rows) {
      for (size_t j = 0; j < spec.other_features; ++j) {
        signal += label_weights_z[j] * other_private.At(e, j) / z_norm;
      }
    } else {
      signal += rng.NextGaussian();  // unobserved z-part
    }
    entity_label[e] = signal + 0.2 * rng.NextGaussian();
  }
  if (spec.other_has_label) {
    std::vector<double> labels;
    labels.reserve(other_source_entity.size());
    for (size_t e : other_source_entity) labels.push_back(entity_label[e]);
    AMALUR_CHECK_OK(other.AddColumn(Column::FromDoubles("y", std::move(labels))));
  }
  for (size_t j = 0; j < spec.shared_features; ++j) {
    std::vector<double> values;
    values.reserve(other_source_entity.size());
    for (size_t e : other_source_entity) values.push_back(shared_values.At(e, j));
    AMALUR_CHECK_OK(other.AddColumn(
        Column::FromDoubles(pair.shared_feature_names[j], std::move(values))));
  }
  for (size_t j = 0; j < spec.other_features; ++j) {
    Column col(pair.other_feature_names[j], DataType::kDouble);
    for (size_t e : other_source_entity) {
      if (spec.null_ratio > 0.0 && rng.NextBernoulli(spec.null_ratio)) {
        col.AppendNull();
      } else {
        col.AppendDouble(other_private.At(e, j));
      }
    }
    AMALUR_CHECK_OK(other.AddColumn(std::move(col)));
  }

  // ---- S1 ("base"): matched rows reference matched S2 entities round-robin
  // (fan-out = matched_base / matched_other), the rest get fresh keys.
  Table base("S1");
  std::vector<size_t> base_entity(spec.base_rows);
  for (size_t i = 0; i < spec.base_rows; ++i) {
    if (i < matched_base && matched_other > 0) {
      base_entity[i] = i % matched_other;  // S2 entity ids [0, matched_other)
    } else {
      base_entity[i] = spec.other_rows + i;  // S1-only entity
    }
  }
  {
    std::vector<int64_t> keys;
    keys.reserve(spec.base_rows);
    for (size_t e : base_entity) keys.push_back(static_cast<int64_t>(e));
    AMALUR_CHECK_OK(base.AddColumn(Column::FromInt64s("k", std::move(keys))));
  }
  {
    std::vector<double> labels;
    labels.reserve(spec.base_rows);
    for (size_t e : base_entity) labels.push_back(entity_label[e]);
    AMALUR_CHECK_OK(base.AddColumn(Column::FromDoubles("y", std::move(labels))));
  }
  for (size_t j = 0; j < spec.shared_features; ++j) {
    std::vector<double> values;
    values.reserve(spec.base_rows);
    for (size_t e : base_entity) values.push_back(shared_values.At(e, j));
    AMALUR_CHECK_OK(base.AddColumn(
        Column::FromDoubles(pair.shared_feature_names[j], std::move(values))));
  }
  for (size_t j = 0; j < spec.base_features; ++j) {
    Column col(pair.base_feature_names[j], DataType::kDouble);
    for (size_t i = 0; i < spec.base_rows; ++i) {
      if (spec.null_ratio > 0.0 && rng.NextBernoulli(spec.null_ratio)) {
        col.AppendNull();
      } else {
        col.AppendDouble(rng.NextGaussian());
      }
    }
    AMALUR_CHECK_OK(base.AddColumn(std::move(col)));
  }

  pair.base = std::move(base);
  pair.other = std::move(other);
  return pair;
}

namespace {

/// Distinct single-letter feature prefixes per dimension level/shard; short
/// generic names (like the pair generator's x/z/s) that stay dissimilar
/// enough for the schema matcher at the bench/test threshold of 0.75.
constexpr const char* kLevelPrefixes[] = {"u", "v", "w", "p", "q", "r"};
constexpr size_t kNumLevelPrefixes =
    sizeof(kLevelPrefixes) / sizeof(kLevelPrefixes[0]);

/// One keyed dimension table `name(key, <prefix>0..)` with Gaussian
/// features; returns the feature matrix for label synthesis.
Table MakeKeyedDimension(const std::string& name, const std::string& key,
                         size_t rows, size_t features,
                         const std::string& prefix, Rng* rng,
                         la::DenseMatrix* values) {
  Table table(name);
  {
    std::vector<int64_t> keys(rows);
    for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
    AMALUR_CHECK_OK(table.AddColumn(Column::FromInt64s(key, std::move(keys))));
  }
  *values = la::DenseMatrix::RandomGaussian(rows, features, rng);
  for (size_t j = 0; j < features; ++j) {
    std::vector<double> col(rows);
    for (size_t i = 0; i < rows; ++i) col[i] = values->At(i, j);
    AMALUR_CHECK_OK(table.AddColumn(
        Column::FromDoubles(prefix + std::to_string(j), std::move(col))));
  }
  return table;
}

/// Unit-scaled Gaussian weights for `count` features.
std::vector<double> LabelWeights(size_t count, Rng* rng) {
  std::vector<double> weights(count);
  const double norm =
      count > 0 ? std::sqrt(static_cast<double>(count)) : 1.0;
  for (double& w : weights) w = rng->NextGaussian() / norm;
  return weights;
}

}  // namespace

Snowflake GenerateSnowflake(const SnowflakeSpec& spec) {
  AMALUR_CHECK_EQ(spec.level_rows.size(), spec.level_features.size())
      << "snowflake spec: one feature count per chain level";
  AMALUR_CHECK(!spec.level_rows.empty()) << "snowflake spec: needs >= 1 level";
  Rng rng(spec.seed);
  Snowflake out;
  out.spec = spec;
  const size_t levels = spec.level_rows.size();

  // ---- The chain, leaf-most last. Level i references level i+1 round-robin.
  std::vector<la::DenseMatrix> level_values(levels);
  for (size_t level = 0; level < levels; ++level) {
    out.chain_keys.push_back("dim" + std::to_string(level) + "_id");
    Table dim = MakeKeyedDimension(
        "dim" + std::to_string(level), out.chain_keys.back(),
        spec.level_rows[level], spec.level_features[level],
        kLevelPrefixes[level % kNumLevelPrefixes], &rng, &level_values[level]);
    if (level + 1 < levels) {
      std::vector<int64_t> child_keys(spec.level_rows[level]);
      for (size_t i = 0; i < spec.level_rows[level]; ++i) {
        child_keys[i] = static_cast<int64_t>(i % spec.level_rows[level + 1]);
      }
      AMALUR_CHECK_OK(dim.AddColumn(Column::FromInt64s(
          "dim" + std::to_string(level + 1) + "_id", std::move(child_keys))));
    }
    out.tables.push_back(std::move(dim));
  }

  // ---- The fact: key into dim0 round-robin, label linear in the fact's
  // features plus every chain level's (resolved through the key chain).
  std::vector<std::vector<double>> level_weights(levels);
  for (size_t level = 0; level < levels; ++level) {
    level_weights[level] = LabelWeights(spec.level_features[level], &rng);
  }
  const std::vector<double> fact_weights =
      LabelWeights(spec.fact_features, &rng);
  la::DenseMatrix x =
      la::DenseMatrix::RandomGaussian(spec.fact_rows, spec.fact_features, &rng);

  Table fact("fact");
  {
    std::vector<int64_t> keys(spec.fact_rows);
    for (size_t i = 0; i < spec.fact_rows; ++i) {
      keys[i] = static_cast<int64_t>(i % spec.level_rows[0]);
    }
    AMALUR_CHECK_OK(
        fact.AddColumn(Column::FromInt64s(out.chain_keys[0], std::move(keys))));
  }
  {
    std::vector<double> y(spec.fact_rows);
    for (size_t i = 0; i < spec.fact_rows; ++i) {
      double signal = 0.0;
      for (size_t j = 0; j < spec.fact_features; ++j) {
        signal += fact_weights[j] * x.At(i, j);
      }
      size_t entity = i % spec.level_rows[0];
      for (size_t level = 0; level < levels; ++level) {
        for (size_t j = 0; j < spec.level_features[level]; ++j) {
          signal += level_weights[level][j] * level_values[level].At(entity, j);
        }
        if (level + 1 < levels) entity %= spec.level_rows[level + 1];
      }
      y[i] = signal + 0.1 * rng.NextGaussian();
    }
    AMALUR_CHECK_OK(fact.AddColumn(Column::FromDoubles("y", std::move(y))));
  }
  for (size_t j = 0; j < spec.fact_features; ++j) {
    std::vector<double> col(spec.fact_rows);
    for (size_t i = 0; i < spec.fact_rows; ++i) col[i] = x.At(i, j);
    AMALUR_CHECK_OK(fact.AddColumn(
        Column::FromDoubles("x" + std::to_string(j), std::move(col))));
  }
  out.tables.insert(out.tables.begin(), std::move(fact));
  return out;
}

ConformedSnowflake GenerateConformedSnowflake(
    const ConformedSnowflakeSpec& spec) {
  AMALUR_CHECK_GE(spec.branches, 2u)
      << "a conformed snowflake needs >= 2 branches sharing the dimension";
  // The shared dimension takes the prefix AFTER the branches; more branches
  // than prefixes would silently collide column names (duplicate target
  // fields resolve first-match in SchemaMapping and corrupt ground truth).
  AMALUR_CHECK_LT(spec.branches, kNumLevelPrefixes)
      << "at most " << kNumLevelPrefixes - 1
      << " branches (distinct feature prefixes)";
  AMALUR_CHECK_GE(spec.branch_rows, 1u) << "branches need rows";
  AMALUR_CHECK_GE(spec.shared_rows, 1u) << "the shared dimension needs rows";
  Rng rng(spec.seed);
  ConformedSnowflake out;
  out.spec = spec;
  out.shared_key = "shared_id";
  const size_t R = spec.branch_rows;
  const size_t S = spec.shared_rows;

  // ---- The shared (conformed) dimension, then the branches. Branch b's
  // row j references shared row ((j - b) mod R) mod S, and the fact
  // references branch b's row (i + b) mod R — so every parent chain
  // resolves fact row i to the SAME shared row (i mod R) mod S: the
  // conformed contract, by construction.
  la::DenseMatrix shared_values;
  Table shared = MakeKeyedDimension(
      "shared", out.shared_key, S, spec.shared_features,
      kLevelPrefixes[spec.branches % kNumLevelPrefixes], &rng, &shared_values);

  std::vector<la::DenseMatrix> branch_values(spec.branches);
  std::vector<Table> branch_tables;
  for (size_t b = 0; b < spec.branches; ++b) {
    out.branch_keys.push_back("branch" + std::to_string(b) + "_id");
    Table branch = MakeKeyedDimension(
        "branch" + std::to_string(b), out.branch_keys[b], R,
        spec.branch_features, kLevelPrefixes[b % kNumLevelPrefixes], &rng,
        &branch_values[b]);
    std::vector<int64_t> shared_refs(R);
    for (size_t j = 0; j < R; ++j) {
      shared_refs[j] = static_cast<int64_t>(((j + R - (b % R)) % R) % S);
    }
    AMALUR_CHECK_OK(branch.AddColumn(
        Column::FromInt64s(out.shared_key, std::move(shared_refs))));
    branch_tables.push_back(std::move(branch));
  }

  // ---- The fact: one key per branch, label linear in everything (the
  // shared features enter ONCE, through the conformed row).
  const size_t matched = std::min<size_t>(
      spec.fact_rows,
      static_cast<size_t>(std::llround(
          spec.match_fraction * static_cast<double>(spec.fact_rows))));
  const std::vector<double> fact_weights =
      LabelWeights(spec.fact_features, &rng);
  std::vector<std::vector<double>> branch_weights(spec.branches);
  for (size_t b = 0; b < spec.branches; ++b) {
    branch_weights[b] = LabelWeights(spec.branch_features, &rng);
  }
  const std::vector<double> shared_weights =
      LabelWeights(spec.shared_features, &rng);
  la::DenseMatrix x =
      la::DenseMatrix::RandomGaussian(spec.fact_rows, spec.fact_features, &rng);

  Table fact("fact");
  for (size_t b = 0; b < spec.branches; ++b) {
    std::vector<int64_t> keys(spec.fact_rows);
    for (size_t i = 0; i < spec.fact_rows; ++i) {
      keys[i] = i < matched
                    ? static_cast<int64_t>((i + b) % R)
                    // Dangling reference: a key no branch row carries.
                    : static_cast<int64_t>(R + i);
    }
    AMALUR_CHECK_OK(
        fact.AddColumn(Column::FromInt64s(out.branch_keys[b], std::move(keys))));
  }
  {
    std::vector<double> y(spec.fact_rows);
    for (size_t i = 0; i < spec.fact_rows; ++i) {
      double signal = 0.0;
      for (size_t j = 0; j < spec.fact_features; ++j) {
        signal += fact_weights[j] * x.At(i, j);
      }
      if (i < matched) {
        for (size_t b = 0; b < spec.branches; ++b) {
          const size_t row = (i + b) % R;
          for (size_t j = 0; j < spec.branch_features; ++j) {
            signal += branch_weights[b][j] * branch_values[b].At(row, j);
          }
        }
        const size_t shared_row = (i % R) % S;
        for (size_t j = 0; j < spec.shared_features; ++j) {
          signal += shared_weights[j] * shared_values.At(shared_row, j);
        }
      } else {
        signal += rng.NextGaussian();  // unobserved dimension part
      }
      y[i] = signal + 0.1 * rng.NextGaussian();
    }
    AMALUR_CHECK_OK(fact.AddColumn(Column::FromDoubles("y", std::move(y))));
  }
  for (size_t j = 0; j < spec.fact_features; ++j) {
    std::vector<double> col(spec.fact_rows);
    for (size_t i = 0; i < spec.fact_rows; ++i) col[i] = x.At(i, j);
    AMALUR_CHECK_OK(fact.AddColumn(
        Column::FromDoubles("x" + std::to_string(j), std::move(col))));
  }

  out.tables.push_back(std::move(fact));
  for (Table& branch : branch_tables) out.tables.push_back(std::move(branch));
  out.tables.push_back(std::move(shared));
  return out;
}

UnionOfStars GenerateUnionOfStars(const UnionOfStarsSpec& spec) {
  AMALUR_CHECK_GE(spec.shards, 2u) << "a union-of-stars needs >= 2 shards";
  Rng rng(spec.seed);
  UnionOfStars out;
  out.spec = spec;
  // One global weight vector over the shared fact features so every shard
  // draws its labels from the same underlying model (they are horizontal
  // partitions of one population).
  const std::vector<double> fact_weights =
      LabelWeights(spec.fact_features, &rng);
  const std::vector<double> dim_weights = LabelWeights(spec.dim_features, &rng);

  for (size_t s = 0; s < spec.shards; ++s) {
    const std::string key = "dim" + std::to_string(s) + "_id";
    la::DenseMatrix dim_values;
    Table dim = MakeKeyedDimension(
        "dim" + std::to_string(s), key, spec.dim_rows, spec.dim_features,
        kLevelPrefixes[s % kNumLevelPrefixes], &rng, &dim_values);

    la::DenseMatrix x =
        la::DenseMatrix::RandomGaussian(spec.fact_rows, spec.fact_features, &rng);
    Table fact("fact" + std::to_string(s));
    {
      std::vector<int64_t> keys(spec.fact_rows);
      for (size_t i = 0; i < spec.fact_rows; ++i) {
        keys[i] = static_cast<int64_t>(i % spec.dim_rows);
      }
      AMALUR_CHECK_OK(fact.AddColumn(Column::FromInt64s(key, std::move(keys))));
    }
    {
      std::vector<double> y(spec.fact_rows);
      for (size_t i = 0; i < spec.fact_rows; ++i) {
        double signal = 0.0;
        for (size_t j = 0; j < spec.fact_features; ++j) {
          signal += fact_weights[j] * x.At(i, j);
        }
        for (size_t j = 0; j < spec.dim_features; ++j) {
          signal += dim_weights[j] * dim_values.At(i % spec.dim_rows, j);
        }
        y[i] = signal + 0.1 * rng.NextGaussian();
      }
      AMALUR_CHECK_OK(fact.AddColumn(Column::FromDoubles("y", std::move(y))));
    }
    for (size_t j = 0; j < spec.fact_features; ++j) {
      std::vector<double> col(spec.fact_rows);
      for (size_t i = 0; i < spec.fact_rows; ++i) col[i] = x.At(i, j);
      AMALUR_CHECK_OK(fact.AddColumn(
          Column::FromDoubles("x" + std::to_string(j), std::move(col))));
    }
    out.tables.push_back(std::move(fact));
    out.tables.push_back(std::move(dim));
  }
  return out;
}

Table GenerateTable(const std::string& name, size_t rows, size_t features,
                    uint64_t seed) {
  Rng rng(seed);
  Table table(name);
  {
    std::vector<int64_t> keys(rows);
    for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
    AMALUR_CHECK_OK(table.AddColumn(Column::FromInt64s("k", std::move(keys))));
  }
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(rows, features, &rng);
  std::vector<double> theta(features);
  for (double& t : theta) t = rng.NextGaussian();
  std::vector<double> y(rows);
  for (size_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < features; ++j) acc += x.At(i, j) * theta[j];
    y[i] = acc + 0.1 * rng.NextGaussian();
  }
  AMALUR_CHECK_OK(table.AddColumn(Column::FromDoubles("y", std::move(y))));
  for (size_t j = 0; j < features; ++j) {
    std::vector<double> col(rows);
    for (size_t i = 0; i < rows; ++i) col[i] = x.At(i, j);
    AMALUR_CHECK_OK(table.AddColumn(
        Column::FromDoubles("x" + std::to_string(j), std::move(col))));
  }
  return table;
}

Column GenerateEdgeCaseColumn(const std::string& name, DataType type,
                              size_t rows, uint64_t seed) {
  static const int64_t kInts[] = {0, 1, -1, INT64_MAX, INT64_MIN};
  static const char* const kStrings[] = {"", "a", "A", "ab", "b", "0", "nan"};
  const double inf = std::numeric_limits<double>::infinity();
  const double doubles[] = {0.0, -0.0, inf, -inf, 1.0, 0.1 + 0.2, 0.3};
  Rng rng(seed);
  Column column(name, type);
  for (size_t row = 0; row < rows; ++row) {
    if (rng.NextUint64(6) == 0) {
      column.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kInt64:
        column.AppendInt64(kInts[rng.NextUint64(std::size(kInts))]);
        break;
      case DataType::kDouble: {
        const uint64_t pick = rng.NextUint64(std::size(doubles) + 2);
        if (pick < std::size(doubles)) {
          column.AppendDouble(doubles[pick]);
          break;
        }
        // A NaN with a random non-zero payload; the sign is the pick's.
        uint64_t bits = 0x7FF0000000000000ULL |
                        (1 + rng.NextUint64(0x000FFFFFFFFFFFFFULL));
        if (pick == std::size(doubles)) bits |= 0x8000000000000000ULL;
        double nan = 0.0;
        std::memcpy(&nan, &bits, sizeof(nan));
        column.AppendDouble(nan);
        break;
      }
      case DataType::kString:
        column.AppendString(kStrings[rng.NextUint64(std::size(kStrings))]);
        break;
    }
  }
  for (size_t row = 0; row < rows; ++row) {
    if (rng.NextUint64(8) == 0) column.SetValue(row, Value::Null());
  }
  return column;
}

}  // namespace rel
}  // namespace amalur
