#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "cost/cost_features.h"
#include "factorized/factorized_table.h"
#include "integration/schema_mapping.h"
#include "metadata/di_metadata.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "relational/join.h"
#include "testing/generator.h"
#include "testing/scenario_builder.h"

/// Differential test of `FactorizedFeatures::GradientStep`, the fused
/// factorized step, against the default unfused step it overrides. The
/// reference trains through a forwarding decorator that overrides only the
/// four operators and so inherits the default step — the shape of the
/// facade benchmark's timing wrapper, whose replay must stay bitwise-equal
/// to the facade. Integrations are drawn at random from the `testing/`
/// fixtures: pairs of every Table I relationship (with shared columns, so
/// some rows carry masked redundancy sets, and with duplicated keys, so the
/// base fans out), one-to-one pairs, snowflakes, conformed snowflakes whose
/// inner edge drops fact rows, unions of stars, one target without rows,
/// and pairs whose cells hold zeros of both signs, subnormals, ±inf and
/// NaN. Between them they give classes with and without fan-out. The same
/// integrations check the kernels against expand-and-gather reference
/// arithmetic and the cost model's `compute_cells` against a map-of-sets
/// count.

namespace amalur {
namespace ml {
namespace {

/// Forwards the four operators and inherits the default `GradientStep`.
class Forwarding : public TrainingMatrix {
 public:
  explicit Forwarding(const TrainingMatrix& inner) : inner_(inner) {}
  size_t rows() const override { return inner_.rows(); }
  size_t cols() const override { return inner_.cols(); }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override {
    return inner_.LeftMultiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(
      const la::DenseMatrix& x) const override {
    return inner_.TransposeLeftMultiply(x);
  }
  la::DenseMatrix RowSquaredNorms() const override {
    return inner_.RowSquaredNorms();
  }
  la::DenseMatrix ColSums() const override { return inner_.ColSums(); }

 private:
  const TrainingMatrix& inner_;
};

struct Integration {
  std::string name;
  metadata::DiMetadata metadata;
};

/// Same length and the same bits; empty buffers may be null.
bool BitEqual(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && BitEqual(a.data(), b.data(), a.size());
}

bool BitEqual(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         BitEqual(a.data(), b.data(), a.size());
}

size_t Draw(Rng* rng, size_t lo, size_t hi) {
  return static_cast<size_t>(
      rng->NextInt64(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
}

metadata::DiMetadata Unwrap(Result<metadata::DiMetadata> metadata) {
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::move(metadata).ValueOrDie();
}

/// A star whose two dimensions share the target column `c`, under left
/// joins. About half the fact rows reference a key the first dimension
/// lacks, so the second dimension's copy of `c` is masked on the fact rows
/// the first covers and kept on the others; with fan-out into the second
/// dimension, one of its source rows then lands in two redundancy classes.
metadata::DiMetadata SharedColumnStar(Rng* rng) {
  const size_t fact_rows = Draw(rng, 40, 160);
  const size_t d1_rows = Draw(rng, 5, 20);
  const size_t d2_rows = Draw(rng, 3, 12);
  auto gaussians = [rng](size_t rows) {
    std::vector<double> values(rows);
    for (double& v : values) v = rng->NextGaussian();
    return values;
  };
  std::vector<int64_t> k1(fact_rows), k2(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    k1[i] = rng->NextBernoulli(0.5)
                ? static_cast<int64_t>(Draw(rng, 0, d1_rows - 1))
                : static_cast<int64_t>(d1_rows + i);
    k2[i] = static_cast<int64_t>(Draw(rng, 0, d2_rows - 1));
  }
  std::vector<int64_t> d1_keys(d1_rows), d2_keys(d2_rows);
  for (size_t r = 0; r < d1_rows; ++r) d1_keys[r] = static_cast<int64_t>(r);
  for (size_t r = 0; r < d2_rows; ++r) d2_keys[r] = static_cast<int64_t>(r);

  rel::Table fact("fact"), d1("d1"), d2("d2");
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s("k1", k1)));
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s("k2", k2)));
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("y", gaussians(fact_rows))));
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("x0", gaussians(fact_rows))));
  AMALUR_CHECK_OK(d1.AddColumn(rel::Column::FromInt64s("k1", d1_keys)));
  AMALUR_CHECK_OK(d1.AddColumn(rel::Column::FromDoubles("c", gaussians(d1_rows))));
  AMALUR_CHECK_OK(d1.AddColumn(rel::Column::FromDoubles("a0", gaussians(d1_rows))));
  AMALUR_CHECK_OK(d2.AddColumn(rel::Column::FromInt64s("k2", d2_keys)));
  AMALUR_CHECK_OK(d2.AddColumn(rel::Column::FromDoubles("c", gaussians(d2_rows))));
  AMALUR_CHECK_OK(d2.AddColumn(rel::Column::FromDoubles("b0", gaussians(d2_rows))));

  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {{"fact", fact.schema(), {{"y", "y"}, {"x0", "x0"}}},
       {"d1", d1.schema(), {{"c", "c"}, {"a0", "a0"}}},
       {"d2", d2.schema(), {{"c", "c"}, {"b0", "b0"}}}},
      rel::Schema::AllDouble({"y", "x0", "c", "a0", "b0"}),
      {{0, "k1", 1, "k1"}, {0, "k2", 2, "k2"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  auto to_d1 = rel::MatchRowsOnKeys(fact, d1, {"k1"}, {"k1"});
  auto to_d2 = rel::MatchRowsOnKeys(fact, d2, {"k2"}, {"k2"});
  AMALUR_CHECK(to_d1.ok() && to_d2.ok()) << "key matching failed";
  return Unwrap(metadata::DiMetadata::DeriveGraph(
      *mapping, {&fact, &d1, &d2},
      {{0, 1, rel::JoinKind::kLeftJoin}, {0, 2, rel::JoinKind::kLeftJoin}},
      {*to_d1, *to_d2}));
}

/// Whether some source row of `source` lands in two redundancy classes.
bool HasRowInTwoClasses(const metadata::SourceMetadata& source,
                        size_t target_rows) {
  std::map<int64_t, int32_t> class_of_row;
  for (size_t i = 0; i < target_rows; ++i) {
    const int64_t row = source.indicator.At(i);
    if (row < 0) continue;
    const auto [it, inserted] =
        class_of_row.emplace(row, source.redundancy.row_set(i));
    if (!inserted && it->second != source.redundancy.row_set(i)) return true;
  }
  return false;
}

constexpr char kSharedColumnStar[] = "star, two dimensions share a column";

/// The NaN the hardware makes for 0 · inf, computed at run time so that no
/// constant folding picks another bit pattern.
double HardwareNaN() {
  volatile double zero = 0.0;
  return zero * std::numeric_limits<double>::infinity();
}

/// A left-joined pair whose cells hold exact zeros of both signs,
/// subnormals, ±inf and NaN, and whose label column holds a −0.0 (row 1).
/// Base rows 0 and 2, and the other silo's row they reference, hold only
/// ±0.0 cells. Every other base row carries one feature: x0 (even rows, and
/// every row that references the other silo's row of +inf) or x1 (odd
/// rows), the other cell being ±0.0. The non-finite cells sit on x0 rows
/// only, so at finite weights they make residuals, and then training,
/// diverge while x1's gradient stays finite; at an infinite x0 weight the
/// x1 rows' predictions stay finite. Both are where skipping zero cells
/// decides a result: 0 · inf is NaN, a skipped cell adds nothing. With
/// `one_to_one` every base row matches its own other row, so the second
/// source's class has no fan-out; otherwise base rows share other rows.
///
/// A NaN cell holds the NaN that 0 · inf and inf − inf produce, so every NaN
/// a step meets has one bit pattern. Which payload a sum of two different
/// NaNs keeps is left open by IEEE 754 and decided by the operand order the
/// compiler emits, which C++ lets it swap; with one pattern the bitwise
/// comparisons test the arithmetic, not that choice.
metadata::DiMetadata SpecialValuePair(Rng* rng, bool one_to_one) {
  const size_t base_rows = Draw(rng, 20, 60);
  const size_t other_rows = one_to_one ? base_rows : Draw(rng, 4, 12);
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const size_t zero_row = 0;              // the other silo's ±0.0 row
  const size_t inf_row = other_rows - 1;  // its row holding +inf
  std::vector<int64_t> base_keys(base_rows), other_keys(other_rows);
  for (size_t i = 0; i < base_rows; ++i) {
    base_keys[i] = static_cast<int64_t>(
        one_to_one ? i : Draw(rng, 0, other_rows - 1));
  }
  if (!one_to_one) base_keys[0] = base_keys[2] = zero_row;
  for (size_t r = 0; r < other_rows; ++r) {
    other_keys[r] = static_cast<int64_t>(r);
  }

  std::vector<double> y(base_rows), x0(base_rows), x1(base_rows);
  size_t last_x1_row = 0;
  for (size_t i = 0; i < base_rows; ++i) {
    y[i] = rng->NextGaussian();
    const double zero = i % 4 < 2 ? 0.0 : -0.0;
    const bool x1_row =
        i % 2 == 1 && static_cast<size_t>(base_keys[i]) != inf_row;
    x0[i] = x1_row ? zero : rng->NextGaussian();
    x1[i] = x1_row ? rng->NextGaussian() : -zero;
    if (x1_row) last_x1_row = i;
  }
  y[1] = -0.0;
  for (size_t i : {size_t{0}, size_t{2}}) {
    x0[i] = 0.0;
    x1[i] = -0.0;
  }
  x0[4] = inf;
  x0[6] = -inf;
  x0[8] = HardwareNaN();
  x0[10] = -2.5e-310;
  if (last_x1_row != 0) x1[last_x1_row] = subnormal;

  std::vector<double> a0(other_rows), a1(other_rows);
  for (size_t r = 0; r < other_rows; ++r) {
    a0[r] = rng->NextGaussian();
    a1[r] = rng->NextGaussian();
  }
  a0[zero_row] = -0.0;
  a1[zero_row] = 0.0;
  if (one_to_one) {
    a0[2] = 0.0;
    a1[2] = -0.0;
  }
  a0[inf_row] = subnormal;
  a1[inf_row] = inf;

  rel::Table base("base"), other("other");
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromInt64s("k", base_keys)));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("y", y)));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("x0", x0)));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("x1", x1)));
  AMALUR_CHECK_OK(other.AddColumn(rel::Column::FromInt64s("k", other_keys)));
  AMALUR_CHECK_OK(other.AddColumn(rel::Column::FromDoubles("a0", a0)));
  AMALUR_CHECK_OK(other.AddColumn(rel::Column::FromDoubles("a1", a1)));
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {{"base", base.schema(), {{"y", "y"}, {"x0", "x0"}, {"x1", "x1"}}},
       {"other", other.schema(), {{"a0", "a0"}, {"a1", "a1"}}}},
      rel::Schema::AllDouble({"y", "x0", "x1", "a0", "a1"}),
      {{0, "k", 1, "k"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  auto matching = rel::MatchRowsOnKeys(base, other, {"k"}, {"k"});
  AMALUR_CHECK(matching.ok()) << matching.status();
  return Unwrap(metadata::DiMetadata::DeriveGraph(
      *mapping, {&base, &other}, {{0, 1, rel::JoinKind::kLeftJoin}},
      {*matching}));
}

constexpr char kSpecialValuePair[] = "pair of special values";
constexpr char kSpecialValueOneToOne[] = "one-to-one pair of special values";

/// Random integrations of every fixture shape, `draws` of each.
std::vector<Integration> DrawIntegrations(uint64_t seed, size_t draws) {
  Rng rng(seed);
  std::vector<Integration> out;
  for (size_t d = 0; d < draws; ++d) {
    for (rel::JoinKind kind :
         {rel::JoinKind::kInnerJoin, rel::JoinKind::kLeftJoin,
          rel::JoinKind::kFullOuterJoin, rel::JoinKind::kUnion}) {
      rel::SiloPairSpec spec;
      spec.kind = kind;
      spec.base_rows = Draw(&rng, 20, 160);
      spec.other_rows = Draw(&rng, 5, 60);
      spec.base_features = Draw(&rng, 1, 3);
      spec.other_features = Draw(&rng, 1, 6);
      spec.shared_features = Draw(&rng, 0, 2);
      spec.match_fraction = rng.NextDouble(0.4, 1.0);
      spec.row_overlap = rng.NextDouble(0.4, 1.0);
      spec.other_dup_rate = rng.NextBernoulli(0.5) ? 0.3 : 0.0;
      spec.null_ratio = rng.NextBernoulli(0.3) ? 0.2 : 0.0;
      spec.other_has_label = rng.NextBernoulli(0.5);
      if (kind == rel::JoinKind::kUnion) {
        spec.base_features = 0;
        spec.other_features = 0;
        spec.shared_features = Draw(&rng, 1, 4);
        spec.match_fraction = 0.0;
        spec.row_overlap = 0.0;
        spec.other_dup_rate = 0.0;
        spec.other_has_label = true;
      }
      spec.seed = rng.Next();
      out.push_back({std::string("pair ") + rel::JoinKindToString(kind),
                     Unwrap(factorized::DerivePairMetadata(
                         rel::GenerateSiloPair(spec)))});
    }

    // One-to-one joins: the second silo's classes have no fan-out either,
    // so in-place rows add onto what the first silo left there.
    for (rel::JoinKind kind :
         {rel::JoinKind::kInnerJoin, rel::JoinKind::kLeftJoin}) {
      rel::SiloPairSpec spec;
      spec.kind = kind;
      spec.base_rows = Draw(&rng, 20, 120);
      spec.other_rows = spec.base_rows;
      spec.base_features = Draw(&rng, 1, 3);
      spec.other_features = Draw(&rng, 1, 4);
      spec.shared_features = Draw(&rng, 0, 2);
      spec.match_fraction = rng.NextDouble(0.6, 1.0);
      spec.seed = rng.Next();
      out.push_back(
          {std::string("one-to-one pair ") + rel::JoinKindToString(kind),
           Unwrap(factorized::DerivePairMetadata(
               rel::GenerateSiloPair(spec)))});
    }

    rel::SnowflakeSpec snowflake;
    snowflake.fact_rows = Draw(&rng, 40, 200);
    snowflake.level_rows = {Draw(&rng, 10, 30), Draw(&rng, 2, 9)};
    snowflake.level_features = {Draw(&rng, 1, 4), Draw(&rng, 1, 3)};
    snowflake.seed = rng.Next();
    out.push_back({"snowflake", Unwrap(factorized::DeriveSnowflakeMetadata(
                                    rel::GenerateSnowflake(snowflake)))});

    rel::ConformedSnowflakeSpec conformed;
    conformed.fact_rows = Draw(&rng, 40, 200);
    conformed.branch_rows = Draw(&rng, 8, 30);
    conformed.shared_rows = Draw(&rng, 2, 7);
    conformed.match_fraction = rng.NextDouble(0.5, 0.9);
    conformed.seed = rng.Next();
    // The first branch edge is an inner join: its dangling references drop
    // fact rows from the target.
    out.push_back({"conformed snowflake, inner first branch",
                   Unwrap(factorized::DeriveConformedSnowflakeMetadata(
                       rel::GenerateConformedSnowflake(conformed), 1))});

    rel::UnionOfStarsSpec stars;
    stars.shards = Draw(&rng, 2, 3);
    stars.fact_rows = Draw(&rng, 20, 120);
    stars.dim_rows = Draw(&rng, 4, 20);
    stars.seed = rng.Next();
    out.push_back({"union of stars",
                   Unwrap(factorized::DeriveUnionOfStarsMetadata(
                       rel::GenerateUnionOfStars(stars)))});

    out.push_back({kSharedColumnStar, SharedColumnStar(&rng)});
  }
  // An inner join whose keys never match: a target without rows.
  rel::SiloPairSpec empty;
  empty.kind = rel::JoinKind::kInnerJoin;
  empty.match_fraction = 0.0;
  empty.base_rows = 30;
  empty.other_rows = 10;
  empty.other_features = 3;
  empty.seed = rng.Next();
  out.push_back({"pair inner join, no key matches",
                 Unwrap(factorized::DerivePairMetadata(
                     rel::GenerateSiloPair(empty)))});
  for (size_t d = 0; d < draws; ++d) {
    out.push_back({kSpecialValuePair, SpecialValuePair(&rng, false)});
    out.push_back({kSpecialValueOneToOne, SpecialValuePair(&rng, true)});
  }
  return out;
}

size_t LabelColumn(const metadata::DiMetadata& metadata) {
  const auto label = metadata.target_schema().IndexOf("y");
  AMALUR_CHECK(label.has_value()) << "fixtures label their targets y";
  return *label;
}

TEST(GradientStepTest, FusedTrainingIsBitwiseTheDefaultStep) {
  for (const Integration& integration : DrawIntegrations(1801, 2)) {
    SCOPED_TRACE(integration.name);
    auto table =
        std::make_shared<factorized::FactorizedTable>(integration.metadata);
    const FactorizedFeatures features(table, LabelColumn(integration.metadata));
    const Forwarding reference(features);
    const la::DenseMatrix labels = features.Labels();
    la::DenseMatrix binary = labels;
    binary.TransformInPlace([](double v) { return v > 0.0 ? 1.0 : 0.0; });

    for (size_t threads : {1, 4}) {
      common::ScopedNumThreads scope(threads);
      for (double l2 : {0.0, 0.05}) {
        GradientDescentOptions gd;
        gd.iterations = 12;
        gd.l2 = l2;
        gd.learning_rate = 0.05;
        const LinearModel linear = TrainLinearRegression(features, labels, gd);
        const LinearModel linear_ref =
            TrainLinearRegression(reference, labels, gd);
        EXPECT_TRUE(BitEqual(linear.weights, linear_ref.weights))
            << "linear, threads " << threads << ", l2 " << l2;
        EXPECT_TRUE(BitEqual(linear.loss_history, linear_ref.loss_history))
            << "linear, threads " << threads << ", l2 " << l2;

        gd.learning_rate = 0.5;
        const LinearModel logistic =
            TrainLogisticRegression(features, binary, gd);
        const LinearModel logistic_ref =
            TrainLogisticRegression(reference, binary, gd);
        EXPECT_TRUE(BitEqual(logistic.weights, logistic_ref.weights))
            << "logistic, threads " << threads << ", l2 " << l2;
        EXPECT_TRUE(BitEqual(logistic.loss_history, logistic_ref.loss_history))
            << "logistic, threads " << threads << ", l2 " << l2;
      }
    }
  }
}

TEST(GradientStepTest, StepAtRandomWeightsIsBitwiseTheDefaultStep) {
  // Training starts at w = 0; a step at arbitrary weights (large ones too,
  // so sigmoids saturate and the log-loss clamp engages) must agree as well,
  // and repeated steps on one view reuse its buffers without drift.
  Rng rng(1802);
  for (const Integration& integration : DrawIntegrations(1803, 1)) {
    SCOPED_TRACE(integration.name);
    auto table =
        std::make_shared<factorized::FactorizedTable>(integration.metadata);
    const FactorizedFeatures features(table, LabelColumn(integration.metadata));
    const Forwarding reference(features);
    const la::DenseMatrix labels = features.Labels();
    la::DenseMatrix binary = labels;
    binary.TransformInPlace([](double v) { return v > 0.0 ? 1.0 : 0.0; });
    for (size_t threads : {1, 4}) {
      common::ScopedNumThreads scope(threads);
      for (double scale : {0.1, 1.0, 40.0}) {
        la::DenseMatrix w =
            la::DenseMatrix::RandomGaussian(features.cols(), 1, &rng);
        w.ScaleInPlace(scale);
        for (Loss loss : {Loss::kSquared, Loss::kLogistic}) {
          const la::DenseMatrix& y = loss == Loss::kSquared ? labels : binary;
          la::DenseMatrix fused, unfused;
          const double fused_loss = features.GradientStep(w, y, loss, &fused);
          const double unfused_loss =
              reference.GradientStep(w, y, loss, &unfused);
          EXPECT_TRUE(BitEqual({fused_loss}, {unfused_loss}))
              << fused_loss << " vs " << unfused_loss;
          EXPECT_TRUE(BitEqual(fused, unfused))
              << "threads " << threads << ", scale " << scale;
        }
      }
    }
  }
}

/// Reference arithmetic of the rewrite kernels: per redundancy class (set id
/// ascending), one product row per unique source row (first appearance),
/// expanded to the class's target rows (LMM); X's rows gathered per unique
/// source row, then multiply-added into the target columns (TLMM). The
/// kernels' per-slot products and sums must give these bits.
struct ReferenceClass {
  std::vector<size_t> unique_rows;
  std::vector<size_t> target_rows;
  std::vector<size_t> target_to_unique;
  std::vector<size_t> dk_cols;
  std::vector<size_t> t_cols;
};

std::vector<ReferenceClass> ReferenceClasses(
    const metadata::SourceMetadata& source, size_t target_rows) {
  std::map<int32_t, ReferenceClass> classes;
  std::map<int32_t, std::map<size_t, size_t>> unique_index;
  for (size_t i = 0; i < target_rows; ++i) {
    const int64_t row = source.indicator.At(i);
    if (row < 0) continue;
    const int32_t set = source.redundancy.row_set(i);
    ReferenceClass& c = classes[set];
    const auto [it, inserted] = unique_index[set].emplace(
        static_cast<size_t>(row), c.unique_rows.size());
    if (inserted) c.unique_rows.push_back(static_cast<size_t>(row));
    c.target_rows.push_back(i);
    c.target_to_unique.push_back(it->second);
  }
  std::vector<ReferenceClass> out;
  for (auto& [set, c] : classes) {
    for (size_t t = 0; t < source.mapping.target_cols(); ++t) {
      const int64_t j = source.mapping.At(t);
      if (j < 0) continue;
      if (set >= 0) {
        const std::vector<size_t>& masked =
            source.redundancy.column_sets()[static_cast<size_t>(set)];
        if (std::binary_search(masked.begin(), masked.end(), t)) continue;
      }
      c.dk_cols.push_back(static_cast<size_t>(j));
      c.t_cols.push_back(t);
    }
    if (!c.dk_cols.empty()) out.push_back(std::move(c));
  }
  return out;
}

la::DenseMatrix ReferenceLeftMultiply(const metadata::DiMetadata& metadata,
                                      const la::DenseMatrix& x) {
  la::DenseMatrix out(metadata.target_rows(), x.cols());
  for (size_t k = 0; k < metadata.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata.source(k).data;
    for (const ReferenceClass& c :
         ReferenceClasses(metadata.source(k), metadata.target_rows())) {
      la::DenseMatrix unique(c.unique_rows.size(), x.cols());
      for (size_t u = 0; u < c.unique_rows.size(); ++u) {
        for (size_t p = 0; p < c.dk_cols.size(); ++p) {
          const double v = dk.At(c.unique_rows[u], c.dk_cols[p]);
          if (v == 0.0) continue;
          for (size_t col = 0; col < x.cols(); ++col) {
            unique.At(u, col) += v * x.At(c.t_cols[p], col);
          }
        }
      }
      for (size_t r = 0; r < c.target_rows.size(); ++r) {
        for (size_t col = 0; col < x.cols(); ++col) {
          out.At(c.target_rows[r], col) +=
              unique.At(c.target_to_unique[r], col);
        }
      }
    }
  }
  return out;
}

la::DenseMatrix ReferenceTransposeLeftMultiply(
    const metadata::DiMetadata& metadata, const la::DenseMatrix& x) {
  la::DenseMatrix out(metadata.target_cols(), x.cols());
  for (size_t k = 0; k < metadata.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata.source(k).data;
    for (const ReferenceClass& c :
         ReferenceClasses(metadata.source(k), metadata.target_rows())) {
      la::DenseMatrix reduced(c.unique_rows.size(), x.cols());
      for (size_t r = 0; r < c.target_rows.size(); ++r) {
        for (size_t col = 0; col < x.cols(); ++col) {
          reduced.At(c.target_to_unique[r], col) += x.At(c.target_rows[r], col);
        }
      }
      for (size_t u = 0; u < c.unique_rows.size(); ++u) {
        for (size_t p = 0; p < c.dk_cols.size(); ++p) {
          const double v = dk.At(c.unique_rows[u], c.dk_cols[p]);
          if (v == 0.0) continue;
          for (size_t col = 0; col < x.cols(); ++col) {
            out.At(c.t_cols[p], col) += v * reduced.At(u, col);
          }
        }
      }
    }
  }
  return out;
}

TEST(GradientStepTest, KernelsMatchTheExpandAndGatherReference) {
  // Both kernels go through per-slot products and sums (0.0 + x for a class
  // without fan-out); the sums must equal the expand-and-gather reference,
  // for vectors (the step's n = 1) and for wider X, with zeros of both signs
  // among the inputs.
  Rng rng(1805);
  for (const Integration& integration : DrawIntegrations(1806, 2)) {
    SCOPED_TRACE(integration.name);
    const factorized::FactorizedTable table(integration.metadata);
    for (size_t n : {1, 3}) {
      la::DenseMatrix x =
          la::DenseMatrix::RandomGaussian(table.cols(), n, &rng);
      la::DenseMatrix xt =
          la::DenseMatrix::RandomGaussian(table.rows(), n, &rng);
      for (size_t i = 0; i < x.size(); i += 3) x.data()[i] = -0.0;
      for (size_t i = 1; i < xt.size(); i += 4) xt.data()[i] = -0.0;
      for (size_t i = 2; i < xt.size(); i += 5) xt.data()[i] = 0.0;
      for (size_t threads : {1, 4}) {
        common::ScopedNumThreads scope(threads);
        EXPECT_TRUE(BitEqual(table.LeftMultiply(x),
                             ReferenceLeftMultiply(integration.metadata, x)))
            << "LMM, n " << n << ", threads " << threads;
        EXPECT_TRUE(
            BitEqual(table.TransposeLeftMultiply(xt),
                     ReferenceTransposeLeftMultiply(integration.metadata, xt)))
            << "TLMM, n " << n << ", threads " << threads;
      }
    }
  }
}

/// Reference count of compute cells: one ordered set of source rows per
/// redundancy class.
std::vector<size_t> MapOfSetsComputeCells(
    const metadata::DiMetadata& metadata) {
  std::vector<size_t> cells;
  for (size_t k = 0; k < metadata.num_sources(); ++k) {
    const metadata::SourceMetadata& s = metadata.source(k);
    const size_t mapped_cols = s.mapping.MappedTargetColumns().size();
    std::map<int32_t, std::set<size_t>> unique_rows_per_class;
    for (size_t i = 0; i < metadata.target_rows(); ++i) {
      const int64_t row = s.indicator.At(i);
      if (row < 0) continue;
      unique_rows_per_class[s.redundancy.row_set(i)].insert(
          static_cast<size_t>(row));
    }
    size_t total = 0;
    for (const auto& [set_id, unique_rows] : unique_rows_per_class) {
      const size_t masked =
          set_id < 0
              ? 0
              : s.redundancy.column_sets()[static_cast<size_t>(set_id)].size();
      total += unique_rows.size() * (mapped_cols - masked);
    }
    cells.push_back(total);
  }
  return cells;
}

TEST(GradientStepTest, SharedColumnStarPutsASourceRowInTwoClasses) {
  // The fixture is there for the second dimension's rows that sit in the
  // masked class on some fact rows and the unmasked one on others; every
  // draw the tests above use must have one.
  for (const auto& [seed, draws] :
       {std::pair<uint64_t, size_t>{1801, 2}, {1803, 1}, {1804, 3}}) {
    for (const Integration& integration : DrawIntegrations(seed, draws)) {
      if (integration.name != kSharedColumnStar) continue;
      EXPECT_TRUE(HasRowInTwoClasses(integration.metadata.source(2),
                                     integration.metadata.target_rows()))
          << "seed " << seed;
    }
  }
}

/// The special-value fixtures of the draws the tests above use.
std::vector<Integration> SpecialValuePairs() {
  std::vector<Integration> out;
  for (const auto& [seed, draws] :
       {std::pair<uint64_t, size_t>{1801, 2}, {1803, 1}}) {
    for (Integration& integration : DrawIntegrations(seed, draws)) {
      if (integration.name == kSpecialValuePair ||
          integration.name == kSpecialValueOneToOne) {
        out.push_back(std::move(integration));
      }
    }
  }
  return out;
}

TEST(GradientStepTest, SpecialValuePairsDivergeAndHoldZeroRows) {
  // The fixtures guard the zero-cell skips and the signed-zero argument of
  // the fused step only while they hold a −0.0 label cell and rows of only
  // ±0.0 feature cells, diverge at random weights with x1's gradient still
  // finite, and (one to one) give the second source a class without
  // fan-out.
  Rng rng(1807);
  for (const Integration& integration : SpecialValuePairs()) {
    SCOPED_TRACE(integration.name);
    const metadata::DiMetadata& metadata = integration.metadata;
    const size_t label = LabelColumn(metadata);
    const int64_t label_cell = metadata.source(0).mapping.At(label);
    ASSERT_GE(label_cell, 0);
    const double y1 =
        metadata.source(0).data.At(1, static_cast<size_t>(label_cell));
    EXPECT_TRUE(std::signbit(y1) && y1 == 0.0) << "label cell " << y1;

    auto table = std::make_shared<factorized::FactorizedTable>(metadata);
    const la::DenseMatrix dense = table->Materialize();
    bool zero_row = false;
    for (size_t i = 0; i < dense.rows() && !zero_row; ++i) {
      zero_row = true;
      for (size_t j = 0; j < dense.cols(); ++j) {
        if (j != label && dense.At(i, j) != 0.0) zero_row = false;
      }
    }
    EXPECT_TRUE(zero_row) << "no row of only ±0.0 feature cells";

    const FactorizedFeatures features(table, label);
    const la::DenseMatrix w =
        la::DenseMatrix::RandomGaussian(features.cols(), 1, &rng);
    la::DenseMatrix gradient;
    features.GradientStep(w, features.Labels(), Loss::kSquared, &gradient);
    bool diverged = false;
    for (size_t j = 0; j < gradient.rows(); ++j) {
      diverged = diverged || !std::isfinite(gradient.At(j, 0));
    }
    EXPECT_TRUE(diverged) << "the step's gradient stayed finite";
    const auto x1 = metadata.target_schema().IndexOf("x1");
    ASSERT_TRUE(x1.has_value());
    EXPECT_TRUE(std::isfinite(gradient.At(*x1 - (*x1 > label ? 1 : 0), 0)))
        << "x1's gradient";
    if (integration.name == kSpecialValueOneToOne) {
      EXPECT_EQ(metadata.source(1).data.rows(), metadata.target_rows());
    }
  }
}

TEST(GradientStepTest, StepAtAnInfiniteWeightIsBitwiseTheDefaultStep) {
  // A non-finite weight is the other case where skipping a zero cell
  // decides a prediction: the x1 rows, whose x0 cell is ±0.0, keep finite
  // predictions, and x1's gradient reads only them.
  Rng rng(1808);
  for (const Integration& integration : SpecialValuePairs()) {
    SCOPED_TRACE(integration.name);
    const metadata::DiMetadata& metadata = integration.metadata;
    const size_t label = LabelColumn(metadata);
    auto table = std::make_shared<factorized::FactorizedTable>(metadata);
    const FactorizedFeatures features(table, label);
    const Forwarding reference(features);
    const la::DenseMatrix labels = features.Labels();
    const size_t x0 = *metadata.target_schema().IndexOf("x0");
    for (double weight : {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
      la::DenseMatrix w =
          la::DenseMatrix::RandomGaussian(features.cols(), 1, &rng);
      w.At(x0 - (x0 > label ? 1 : 0), 0) = weight;
      la::DenseMatrix fused, unfused;
      const double fused_loss =
          features.GradientStep(w, labels, Loss::kSquared, &fused);
      const double unfused_loss =
          reference.GradientStep(w, labels, Loss::kSquared, &unfused);
      EXPECT_TRUE(BitEqual({fused_loss}, {unfused_loss}))
          << fused_loss << " vs " << unfused_loss;
      EXPECT_TRUE(BitEqual(fused, unfused)) << "x0 weight " << weight;
    }
  }
}

/// A pair whose target has exactly `rows` rows (1–9 covers every residue of
/// the walk's four-row blocks and targets shorter than one block), with
/// `special` in the last base row's x0 cell and two more of `specials` in
/// the last rows' x1 and a1 cells. A left join keeps one target row per base
/// row; a full outer join (rows >= 2) ends the target with a row that only
/// the other silo reaches, so the walk reads it with no D_0 row. With
/// `one_to_one` every base row has its own other row; otherwise they share
/// at most two.
metadata::DiMetadata ShortPair(Rng* rng, size_t rows, rel::JoinKind kind,
                               bool one_to_one,
                               const std::vector<double>& specials,
                               size_t special) {
  const bool outer = kind == rel::JoinKind::kFullOuterJoin;
  const size_t base_rows = outer ? rows - 1 : rows;
  const size_t matched_rows =
      one_to_one ? base_rows : std::min(base_rows, size_t{2});
  const size_t other_rows = matched_rows + (outer ? 1 : 0);
  std::vector<int64_t> base_keys(base_rows), other_keys(other_rows);
  std::vector<double> y(base_rows), x0(base_rows), x1(base_rows);
  for (size_t i = 0; i < base_rows; ++i) {
    // Every other row up to `matched_rows` is referenced, so none of them
    // adds an outer-join row.
    base_keys[i] = static_cast<int64_t>(
        i < matched_rows ? i : Draw(rng, 0, matched_rows - 1));
    y[i] = rng->NextGaussian();
    x0[i] = rng->NextGaussian();
    x1[i] = rng->NextGaussian();
  }
  std::vector<double> a0(other_rows), a1(other_rows);
  for (size_t r = 0; r < other_rows; ++r) {
    other_keys[r] = static_cast<int64_t>(r);
    a0[r] = rng->NextGaussian();
    a1[r] = rng->NextGaussian();
  }
  const size_t n = specials.size();
  x0[base_rows - 1] = specials[special];
  x1[base_rows - 1 - (base_rows > 1 ? 1 : 0)] = specials[(special + 3) % n];
  a1[other_rows - 1] = specials[(special + 5) % n];
  if (special % 2 == 1) y[base_rows - 1] = -0.0;

  rel::Table base("base"), other("other");
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromInt64s("k", base_keys)));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("y", y)));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("x0", x0)));
  AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("x1", x1)));
  AMALUR_CHECK_OK(other.AddColumn(rel::Column::FromInt64s("k", other_keys)));
  AMALUR_CHECK_OK(other.AddColumn(rel::Column::FromDoubles("a0", a0)));
  AMALUR_CHECK_OK(other.AddColumn(rel::Column::FromDoubles("a1", a1)));
  auto mapping = integration::SchemaMapping::Create(
      kind,
      {{"base", base.schema(), {{"y", "y"}, {"x0", "x0"}, {"x1", "x1"}}},
       {"other", other.schema(), {{"a0", "a0"}, {"a1", "a1"}}}},
      rel::Schema::AllDouble({"y", "x0", "x1", "a0", "a1"}),
      {{0, "k", 1, "k"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  auto matching = rel::MatchRowsOnKeys(base, other, {"k"}, {"k"});
  AMALUR_CHECK(matching.ok()) << matching.status();
  return Unwrap(metadata::DiMetadata::DeriveGraph(
      *mapping, {&base, &other}, {{0, 1, kind}}, {*matching}));
}

TEST(GradientStepTest, BlockTailIsBitwiseTheDefaultStep) {
  // The walk takes target rows four at a time and the rest one at a time;
  // special values in the last rows make a row the tail skips, or a block
  // that reads past the last row, change the step's bits.
  const std::vector<double> specials = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -2.5e-310,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      HardwareNaN()};
  Rng rng(1809);
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (rel::JoinKind kind :
         {rel::JoinKind::kLeftJoin, rel::JoinKind::kFullOuterJoin}) {
      if (kind == rel::JoinKind::kFullOuterJoin && rows < 2) continue;
      for (bool one_to_one : {true, false}) {
        for (size_t special = 0; special < specials.size(); ++special) {
          SCOPED_TRACE(std::to_string(rows) + " rows, " +
                       rel::JoinKindToString(kind) +
                       (one_to_one ? ", one to one" : ", fan-out") +
                       ", special " + std::to_string(special));
          const metadata::DiMetadata metadata =
              ShortPair(&rng, rows, kind, one_to_one, specials, special);
          ASSERT_EQ(metadata.target_rows(), rows);
          const FactorizedFeatures features(
              std::make_shared<factorized::FactorizedTable>(metadata),
              LabelColumn(metadata));
          const Forwarding reference(features);
          const la::DenseMatrix labels = features.Labels();
          la::DenseMatrix binary = labels;
          binary.TransformInPlace([](double v) { return v > 0.0 ? 1.0 : 0.0; });
          const la::DenseMatrix w =
              la::DenseMatrix::RandomGaussian(features.cols(), 1, &rng);
          for (size_t threads : {1, 4}) {
            common::ScopedNumThreads scope(threads);
            for (Loss loss : {Loss::kSquared, Loss::kLogistic}) {
              const la::DenseMatrix& y =
                  loss == Loss::kSquared ? labels : binary;
              la::DenseMatrix fused, unfused;
              const double fused_loss =
                  features.GradientStep(w, y, loss, &fused);
              const double unfused_loss =
                  reference.GradientStep(w, y, loss, &unfused);
              EXPECT_TRUE(BitEqual({fused_loss}, {unfused_loss}))
                  << fused_loss << " vs " << unfused_loss;
              EXPECT_TRUE(BitEqual(fused, unfused))
                  << "threads " << threads << ", logistic "
                  << (loss == Loss::kLogistic);
            }
            GradientDescentOptions gd;
            gd.iterations = 6;
            gd.learning_rate = 0.05;
            const LinearModel linear =
                TrainLinearRegression(features, labels, gd);
            const LinearModel linear_ref =
                TrainLinearRegression(reference, labels, gd);
            EXPECT_TRUE(BitEqual(linear.weights, linear_ref.weights));
            EXPECT_TRUE(BitEqual(linear.loss_history, linear_ref.loss_history));
            const LinearModel logistic =
                TrainLogisticRegression(features, binary, gd);
            const LinearModel logistic_ref =
                TrainLogisticRegression(reference, binary, gd);
            EXPECT_TRUE(BitEqual(logistic.weights, logistic_ref.weights));
            EXPECT_TRUE(
                BitEqual(logistic.loss_history, logistic_ref.loss_history));
          }
        }
      }
    }
  }
}

TEST(GradientStepTest, ComputeCellsMatchTheMapOfSetsCount) {
  for (const Integration& integration : DrawIntegrations(1804, 3)) {
    SCOPED_TRACE(integration.name);
    const cost::CostFeatures features =
        cost::CostFeatures::FromMetadata(integration.metadata);
    const std::vector<size_t> expected =
        MapOfSetsComputeCells(integration.metadata);
    ASSERT_EQ(features.sources.size(), expected.size());
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(features.sources[k].compute_cells, expected[k])
          << "source " << k;
    }
  }
}

}  // namespace
}  // namespace ml
}  // namespace amalur
