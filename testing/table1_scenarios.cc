#include "testing/table1_scenarios.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "testing/generator.h"

namespace amalur {
namespace rel {

std::vector<Table1Scenario> MakeTable1Scenarios(size_t row_scale) {
  AMALUR_CHECK_GE(row_scale, 1u) << "row_scale divides every row count";
  const auto rows = [row_scale](size_t full_scale) {
    return std::max<size_t>(2, full_scale / row_scale);
  };
  std::vector<Table1Scenario> out;
  const auto add_pair = [&out](const char* slug, const char* label,
                               const SiloPairSpec& spec) {
    SiloPair pair = GenerateSiloPair(spec);
    const std::string base = pair.base.name(), other = pair.other.name();
    out.push_back({slug,
                   label,
                   {std::move(pair.base), std::move(pair.other)},
                   {{base, other, spec.kind}}});
  };

  // 1. Full outer join: partially overlapping rows and columns (feature
  // augmentation, general FL).
  {
    SiloPairSpec spec;
    spec.kind = JoinKind::kFullOuterJoin;
    spec.base_rows = rows(20000);
    spec.other_rows = rows(8000);
    spec.base_features = 4;
    spec.other_features = 40;
    spec.shared_features = 2;
    spec.match_fraction = 0.5;
    spec.row_overlap = 0.5;
    spec.seed = 11;
    add_pair("full_outer_join", "1 full outer join", spec);
  }
  // 2. Inner join: a shared sample space, 1:1 (VFL).
  {
    SiloPairSpec spec;
    spec.kind = JoinKind::kInnerJoin;
    spec.base_rows = rows(20000);
    spec.other_rows = rows(20000);
    spec.base_features = 4;
    spec.other_features = 40;
    spec.match_fraction = 1.0;
    spec.row_overlap = 1.0;
    spec.seed = 12;
    add_pair("inner_join", "2 inner join", spec);
  }
  // 3. Left join with fan-out 10: the feature-augmentation star, only the
  // base holds the label.
  {
    SiloPairSpec spec;
    spec.kind = JoinKind::kLeftJoin;
    spec.base_rows = rows(40000);
    spec.other_rows = rows(4000);
    spec.base_features = 2;
    spec.other_features = 60;
    spec.seed = 13;
    add_pair("left_join", "3 left join", spec);
  }
  // 4. Union: a shared feature space over disjoint rows (HFL).
  {
    SiloPairSpec spec;
    spec.kind = JoinKind::kUnion;
    spec.base_rows = rows(20000);
    spec.other_rows = rows(20000);
    spec.base_features = 0;
    spec.other_features = 0;
    spec.shared_features = 30;
    spec.match_fraction = 0.0;
    spec.row_overlap = 0.0;
    spec.other_has_label = true;
    spec.seed = 14;
    add_pair("union", "4 union", spec);
  }
  // 5. Snowflake: fact -> dim0 -> dim1; redundancy compounds along the
  // composed fan-out.
  {
    SnowflakeSpec spec;
    spec.fact_rows = rows(40000);
    spec.fact_features = 2;
    spec.level_rows = {rows(2000), rows(50)};
    spec.level_features = {30, 20};
    spec.seed = 15;
    out.push_back({"snowflake",
                   "5 snowflake",
                   GenerateSnowflake(spec).tables,
                   {{"fact", "dim0", JoinKind::kLeftJoin},
                    {"dim0", "dim1", JoinKind::kLeftJoin}}});
  }
  // 6. Union-of-stars: two horizontally partitioned fact shards, each a
  // star with its own dimension.
  {
    UnionOfStarsSpec spec;
    spec.shards = 2;
    spec.fact_rows = rows(20000);
    spec.fact_features = 2;
    spec.dim_rows = rows(1000);
    spec.dim_features = 30;
    spec.seed = 16;
    out.push_back({"union_of_stars",
                   "6 union of stars",
                   GenerateUnionOfStars(spec).tables,
                   {{"fact0", "dim0", JoinKind::kLeftJoin},
                    {"fact0", "fact1", JoinKind::kUnion},
                    {"fact1", "dim1", JoinKind::kLeftJoin}}});
  }
  // 7. Conformed snowflake: one shared dimension referenced through two
  // intermediate dimensions (a DAG); its columns integrate once and its
  // fan-out compounds through both parent chains.
  {
    ConformedSnowflakeSpec spec;
    spec.fact_rows = rows(40000);
    spec.fact_features = 2;
    spec.branches = 2;
    spec.branch_rows = rows(1000);
    spec.branch_features = 20;
    spec.shared_rows = rows(50);
    spec.shared_features = 20;
    spec.seed = 17;
    out.push_back({"conformed_snowflake",
                   "7 conformed snflk",
                   GenerateConformedSnowflake(spec).tables,
                   {{"fact", "branch0", JoinKind::kLeftJoin},
                    {"fact", "branch1", JoinKind::kLeftJoin},
                    {"branch0", "shared", JoinKind::kLeftJoin},
                    {"branch1", "shared", JoinKind::kLeftJoin}}});
  }
  return out;
}

}  // namespace rel
}  // namespace amalur
