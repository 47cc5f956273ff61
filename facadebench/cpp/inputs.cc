#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/rng.h"

namespace facadebench {

namespace {

using amalur::Rng;

constexpr double kLabelNoise = 0.1;

/// Fixed label coefficient of feature `j` of silo `silo` (seed-independent).
double Coef(size_t silo, size_t j) {
  return 0.6 * std::cos(1.7 * static_cast<double>(j) +
                        0.9 * static_cast<double>(silo));
}

std::string Indexed(const std::string& prefix, size_t j) {
  return prefix + (j < 10 ? "_0" : "_") + std::to_string(j);
}

std::vector<int64_t> Iota(size_t n) {
  std::vector<int64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<int64_t>(i);
  return out;
}

void Add(rel::Table* table, rel::Column column) {
  AMALUR_CHECK_OK(table->AddColumn(std::move(column)));
}

/// Gaussian feature columns `prefix_00..`; returns each row's effect
/// Σ_j Coef(silo, j) · x_j.
std::vector<double> AddFeatures(rel::Table* table, const std::string& prefix,
                                size_t rows, size_t features, size_t silo,
                                Rng* rng) {
  std::vector<std::vector<double>> columns(features,
                                           std::vector<double>(rows));
  std::vector<double> effect(rows, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < features; ++j) {
      const double x = rng->NextGaussian();
      columns[j][i] = x;
      effect[i] += Coef(silo, j) * x;
    }
  }
  for (size_t j = 0; j < features; ++j) {
    Add(table, rel::Column::FromDoubles(Indexed(prefix, j),
                                        std::move(columns[j])));
  }
  return effect;
}

/// Random references into a table of `rows` rows.
std::vector<int64_t> References(size_t n, size_t rows, Rng* rng) {
  std::vector<int64_t> out(n);
  for (int64_t& r : out) r = static_cast<int64_t>(rng->NextUint64(rows));
  return out;
}

TruePairs KeyTruth(const std::vector<int64_t>& references) {
  TruePairs truth(references.size());
  for (size_t i = 0; i < references.size(); ++i) {
    truth[i] = {i, static_cast<size_t>(references[i])};
  }
  return truth;
}

const char* const kSyllables[] = {
    "ka", "lo", "mi", "re", "tha", "vo", "ne", "su", "da", "ri", "po",
    "el", "an", "gu", "fe", "zo", "bi", "ta", "mo", "ly", "ce", "ra",
    "no", "vi", "sha", "ku", "de", "or", "pa", "li", "ju", "we"};

std::string Word(size_t syllables, Rng* rng) {
  std::string word;
  for (size_t s = 0; s < syllables; ++s) word += kSyllables[rng->NextUint64(32)];
  word[0] = static_cast<char>(word[0] - 'a' + 'A');
  return word;
}

/// One substituted letter at a uniformly drawn position.
std::string Misspell(std::string name, Rng* rng) {
  const size_t pos = rng->NextUint64(name.size());
  char replacement = name[pos];
  while (replacement == name[pos] || replacement == ' ') {
    replacement = static_cast<char>('a' + rng->NextUint64(26));
  }
  name[pos] = replacement;
  return name;
}

/// Random permutation of [0, n).
std::vector<size_t> Shuffled(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng->NextUint64(i)]);
  return order;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

StarInputs MakeStar(const StarSpec& spec, uint64_t seed) {
  static const char* const kDims[] = {"customers", "products", "stores"};
  static const char* const kKeys[] = {"cust_id", "prod_id", "store_id"};
  static const char* const kPrefixes[] = {"loyalty", "rating", "footfall"};
  AMALUR_CHECK_EQ(spec.dim_rows.size(), 3u);
  Rng rng(seed);
  StarInputs out;
  std::vector<std::vector<double>> dim_effect;
  for (size_t d = 0; d < 3; ++d) {
    rel::Table dim(kDims[d]);
    Add(&dim, rel::Column::FromInt64s(kKeys[d], Iota(spec.dim_rows[d])));
    dim_effect.push_back(AddFeatures(&dim, kPrefixes[d], spec.dim_rows[d],
                                     spec.dim_features[d], d + 1, &rng));
    out.dims.push_back(std::move(dim));
  }
  out.fact = rel::Table("sales");
  std::vector<std::vector<int64_t>> refs;
  for (size_t d = 0; d < 3; ++d) {
    refs.push_back(References(spec.fact_rows, spec.dim_rows[d], &rng));
    out.truth.push_back(KeyTruth(refs.back()));
    Add(&out.fact, rel::Column::FromInt64s(kKeys[d], refs.back()));
  }
  std::vector<double> y = AddFeatures(&out.fact, "amount", spec.fact_rows,
                                      spec.fact_features, 0, &rng);
  for (size_t i = 0; i < spec.fact_rows; ++i) {
    for (size_t d = 0; d < 3; ++d) {
      y[i] += dim_effect[d][static_cast<size_t>(refs[d][i])];
    }
    y[i] += kLabelNoise * rng.NextGaussian();
  }
  Add(&out.fact, rel::Column::FromDoubles("revenue", std::move(y)));
  return out;
}

ErPair MakeErPair(const ErPairSpec& spec, uint64_t seed) {
  Rng rng(seed);
  const size_t shared =
      static_cast<size_t>(std::llround(spec.overlap * spec.rows));
  const size_t entities = 2 * spec.rows - shared;
  // Entities [0, rows) live on the left, [rows - shared, entities) on the
  // right; the middle block is in both.
  std::set<std::string> used;
  std::vector<std::string> names(entities);
  for (std::string& name : names) {
    do {
      name = Word(2, &rng) + " " + Word(3, &rng);
    } while (!used.insert(name).second);
  }
  std::vector<std::vector<double>> vital(entities), genome(entities);
  std::vector<double> y(entities);
  for (size_t e = 0; e < entities; ++e) {
    double label = 0.0;
    for (size_t j = 0; j < spec.left_features; ++j) {
      vital[e].push_back(rng.NextGaussian());
      label += Coef(0, j) * vital[e].back();
    }
    for (size_t j = 0; j < spec.right_features; ++j) {
      genome[e].push_back(rng.NextGaussian());
      label += Coef(1, j) * genome[e].back();
    }
    y[e] = label + kLabelNoise * rng.NextGaussian();
  }

  // Row order is shuffled on both sides, so positions reveal nothing.
  const size_t right_base = spec.rows - shared;
  const std::vector<size_t> left_order = Shuffled(spec.rows, &rng);
  const std::vector<size_t> right_order = Shuffled(spec.rows, &rng);
  std::vector<size_t> left_row_of(entities, static_cast<size_t>(-1));

  ErPair out;
  {
    std::vector<std::string> name_col(spec.rows);
    std::vector<double> y_col(spec.rows);
    std::vector<std::vector<double>> cols(spec.left_features,
                                          std::vector<double>(spec.rows));
    for (size_t r = 0; r < spec.rows; ++r) {
      const size_t e = left_order[r];
      left_row_of[e] = r;
      name_col[r] = names[e];
      y_col[r] = y[e];
      for (size_t j = 0; j < spec.left_features; ++j) cols[j][r] = vital[e][j];
    }
    out.left = rel::Table("patients");
    Add(&out.left, rel::Column::FromStrings("name", std::move(name_col)));
    Add(&out.left, rel::Column::FromDoubles("outcome", std::move(y_col)));
    for (size_t j = 0; j < spec.left_features; ++j) {
      Add(&out.left,
          rel::Column::FromDoubles(Indexed("vital", j), std::move(cols[j])));
    }
  }
  {
    std::vector<std::string> name_col(spec.rows);
    std::vector<std::vector<double>> cols(spec.right_features,
                                          std::vector<double>(spec.rows));
    for (size_t r = 0; r < spec.rows; ++r) {
      const size_t e = right_base + right_order[r];
      const bool in_both = e < spec.rows;
      name_col[r] = in_both && rng.NextDouble() < spec.typo_rate
                        ? Misspell(names[e], &rng)
                        : names[e];
      if (in_both) out.truth.emplace_back(left_row_of[e], r);
      for (size_t j = 0; j < spec.right_features; ++j) {
        cols[j][r] = genome[e][j];
      }
    }
    out.right = rel::Table("genomics");
    Add(&out.right, rel::Column::FromStrings("name", std::move(name_col)));
    for (size_t j = 0; j < spec.right_features; ++j) {
      Add(&out.right,
          rel::Column::FromDoubles(Indexed("genome", j), std::move(cols[j])));
    }
  }
  std::sort(out.truth.begin(), out.truth.end());
  return out;
}

SnowflakeDims MakeSnowflakeDims(const SnowflakeSpec& spec, uint64_t seed) {
  Rng rng(seed);
  SnowflakeDims out;
  out.categories = rel::Table("categories");
  Add(&out.categories,
      rel::Column::FromInt64s("cat_id", Iota(spec.category_rows)));
  const std::vector<double> category_effect =
      AddFeatures(&out.categories, "margin", spec.category_rows,
                  spec.category_features, 2, &rng);

  out.items = rel::Table("items");
  const std::vector<int64_t> cat_refs =
      References(spec.item_rows, spec.category_rows, &rng);
  Add(&out.items, rel::Column::FromInt64s("item_id", Iota(spec.item_rows)));
  Add(&out.items, rel::Column::FromInt64s("cat_id", cat_refs));
  out.item_effect = AddFeatures(&out.items, "shelf", spec.item_rows,
                                spec.item_features, 1, &rng);
  for (size_t i = 0; i < spec.item_rows; ++i) {
    out.item_effect[i] += category_effect[static_cast<size_t>(cat_refs[i])];
  }
  out.item_to_category = KeyTruth(cat_refs);
  return out;
}

FactVersion MakeFactVersion(const SnowflakeSpec& spec,
                            const SnowflakeDims& dims, uint64_t seed) {
  Rng rng(seed);
  FactVersion out;
  out.fact = rel::Table("sales");
  const std::vector<int64_t> refs =
      References(spec.fact_rows, spec.item_rows, &rng);
  Add(&out.fact, rel::Column::FromInt64s("item_id", refs));
  std::vector<double> y = AddFeatures(&out.fact, "qty", spec.fact_rows,
                                      spec.fact_features, 0, &rng);
  for (size_t i = 0; i < spec.fact_rows; ++i) {
    y[i] += dims.item_effect[static_cast<size_t>(refs[i])] +
            kLabelNoise * rng.NextGaussian();
  }
  Add(&out.fact, rel::Column::FromDoubles("demand", std::move(y)));
  out.truth = KeyTruth(refs);
  return out;
}

}  // namespace facadebench
