#include "testing/scenario_builder.h"

#include <set>

#include "common/status.h"
#include "relational/join.h"

namespace amalur {
namespace factorized {

namespace {

/// Numeric non-key columns of `table`, in schema order — the columns a
/// graph scenario carries into the target under their own names.
std::vector<std::string> FeatureColumns(const rel::Table& table,
                                        const std::set<std::string>& keys) {
  std::vector<std::string> out;
  for (size_t j = 0; j < table.NumColumns(); ++j) {
    const rel::Column& column = table.column(j);
    if (column.type() == rel::DataType::kString || keys.count(column.name())) {
      continue;
    }
    out.push_back(column.name());
  }
  return out;
}

/// Identity correspondences for `columns`.
std::vector<integration::ColumnCorrespondence> SelfCorrespondences(
    const std::vector<std::string>& columns) {
  std::vector<integration::ColumnCorrespondence> corr;
  corr.reserve(columns.size());
  for (const std::string& name : columns) corr.push_back({name, name});
  return corr;
}

}  // namespace

Result<integration::SchemaMapping> BuildPairMapping(const rel::SiloPair& pair) {
  std::vector<std::string> target_names{"y"};
  const std::vector<std::string> features = pair.TargetFeatureNames();
  target_names.insert(target_names.end(), features.begin(), features.end());
  rel::Schema target = rel::Schema::AllDouble(target_names);

  std::vector<integration::ColumnCorrespondence> base_corr{{"y", "y"}};
  for (const std::string& s : pair.shared_feature_names) base_corr.push_back({s, s});
  for (const std::string& x : pair.base_feature_names) base_corr.push_back({x, x});

  std::vector<integration::ColumnCorrespondence> other_corr;
  if (pair.other.schema().Contains("y")) other_corr.push_back({"y", "y"});
  for (const std::string& s : pair.shared_feature_names) {
    other_corr.push_back({s, s});
  }
  for (const std::string& z : pair.other_feature_names) other_corr.push_back({z, z});

  std::vector<integration::SourceColumnMatch> source_matches;
  if (pair.spec.kind != rel::JoinKind::kUnion) {
    source_matches.push_back({0, "k", 1, "k"});
  }
  return integration::SchemaMapping::Create(
      pair.spec.kind,
      {integration::SchemaMapping::SourceSpec{"S1", pair.base.schema(),
                                              std::move(base_corr)},
       integration::SchemaMapping::SourceSpec{"S2", pair.other.schema(),
                                              std::move(other_corr)}},
      std::move(target), std::move(source_matches));
}

Result<metadata::DiMetadata> DerivePairMetadata(const rel::SiloPair& pair) {
  AMALUR_ASSIGN_OR_RETURN(integration::SchemaMapping mapping,
                          BuildPairMapping(pair));
  rel::RowMatching matching;
  if (pair.spec.kind != rel::JoinKind::kUnion) {
    AMALUR_ASSIGN_OR_RETURN(
        matching, rel::MatchRowsOnKeys(pair.base, pair.other, {"k"}, {"k"}));
  }
  return metadata::DiMetadata::DeriveGraph(
      mapping, {&pair.base, &pair.other}, {{0, 1, pair.spec.kind}},
      {matching});
}

Result<metadata::DiMetadata> DeriveSnowflakeMetadata(
    const rel::Snowflake& snowflake) {
  const size_t n = snowflake.tables.size();
  const std::set<std::string> keys(snowflake.chain_keys.begin(),
                                   snowflake.chain_keys.end());

  std::vector<std::string> target_names;
  std::vector<integration::SchemaMapping::SourceSpec> sources;
  std::vector<integration::SourceColumnMatch> source_matches;
  std::vector<metadata::MetadataEdge> edges;
  std::vector<rel::RowMatching> matchings;
  for (size_t k = 0; k < n; ++k) {
    const rel::Table& table = snowflake.tables[k];
    const std::vector<std::string> features = FeatureColumns(table, keys);
    target_names.insert(target_names.end(), features.begin(), features.end());
    sources.push_back(
        {table.name(), table.schema(), SelfCorrespondences(features)});
    if (k + 1 < n) {
      const std::string& key = snowflake.chain_keys[k];
      source_matches.push_back({k, key, k + 1, key});
      edges.push_back({k, k + 1, rel::JoinKind::kLeftJoin});
      AMALUR_ASSIGN_OR_RETURN(
          rel::RowMatching matching,
          rel::MatchRowsOnKeys(table, snowflake.tables[k + 1], {key}, {key}));
      matchings.push_back(std::move(matching));
    }
  }
  AMALUR_ASSIGN_OR_RETURN(
      integration::SchemaMapping mapping,
      integration::SchemaMapping::Create(
          rel::JoinKind::kLeftJoin, std::move(sources),
          rel::Schema::AllDouble(target_names), std::move(source_matches)));
  std::vector<const rel::Table*> tables;
  for (const rel::Table& table : snowflake.tables) tables.push_back(&table);
  return metadata::DiMetadata::DeriveGraph(mapping, tables, edges, matchings);
}

Result<metadata::DiMetadata> DeriveConformedSnowflakeMetadata(
    const rel::ConformedSnowflake& scenario, size_t inner_branches) {
  const size_t branches = scenario.spec.branches;
  AMALUR_CHECK_LE(inner_branches, branches)
      << "cannot mark more inner edges than the scenario has branches";
  const size_t n = scenario.tables.size();  // fact + branches + shared
  std::set<std::string> keys(scenario.branch_keys.begin(),
                             scenario.branch_keys.end());
  keys.insert(scenario.shared_key);

  std::vector<std::string> target_names;
  std::vector<integration::SchemaMapping::SourceSpec> sources;
  for (size_t k = 0; k < n; ++k) {
    const rel::Table& table = scenario.tables[k];
    const std::vector<std::string> features = FeatureColumns(table, keys);
    // The shared dimension's features enter the target once, via its single
    // source entry — that IS the conformed-dimension contract.
    target_names.insert(target_names.end(), features.begin(), features.end());
    sources.push_back(
        {table.name(), table.schema(), SelfCorrespondences(features)});
  }

  // Edges: fact -> branch b (inner for the first `inner_branches`), then
  // branch b -> shared for EVERY branch — the DAG's conformed fan-in.
  std::vector<integration::SourceColumnMatch> source_matches;
  std::vector<metadata::MetadataEdge> edges;
  std::vector<rel::RowMatching> matchings;
  const size_t shared_index = n - 1;
  for (size_t b = 0; b < branches; ++b) {
    const std::string& key = scenario.branch_keys[b];
    source_matches.push_back({0, key, b + 1, key});
    edges.push_back({0, b + 1,
                     b < inner_branches ? rel::JoinKind::kInnerJoin
                                        : rel::JoinKind::kLeftJoin});
    AMALUR_ASSIGN_OR_RETURN(
        rel::RowMatching matching,
        rel::MatchRowsOnKeys(scenario.tables[0], scenario.tables[b + 1], {key},
                             {key}));
    matchings.push_back(std::move(matching));
  }
  for (size_t b = 0; b < branches; ++b) {
    source_matches.push_back(
        {b + 1, scenario.shared_key, shared_index, scenario.shared_key});
    edges.push_back({b + 1, shared_index, rel::JoinKind::kLeftJoin});
    AMALUR_ASSIGN_OR_RETURN(
        rel::RowMatching matching,
        rel::MatchRowsOnKeys(scenario.tables[b + 1],
                             scenario.tables[shared_index],
                             {scenario.shared_key}, {scenario.shared_key}));
    matchings.push_back(std::move(matching));
  }
  AMALUR_ASSIGN_OR_RETURN(
      integration::SchemaMapping mapping,
      integration::SchemaMapping::Create(
          rel::JoinKind::kLeftJoin, std::move(sources),
          rel::Schema::AllDouble(target_names), std::move(source_matches)));
  std::vector<const rel::Table*> tables;
  for (const rel::Table& table : scenario.tables) tables.push_back(&table);
  return metadata::DiMetadata::DeriveGraph(mapping, tables, edges, matchings);
}

Result<metadata::DiMetadata> DeriveUnionOfStarsMetadata(
    const rel::UnionOfStars& scenario) {
  const size_t shards = scenario.spec.shards;
  std::set<std::string> keys;
  for (size_t s = 0; s < shards; ++s) {
    keys.insert("dim" + std::to_string(s) + "_id");
  }

  // Shard facts share their y/x correspondences (one target column each);
  // every dimension's private features follow in shard order.
  std::vector<std::string> target_names;
  std::vector<integration::SchemaMapping::SourceSpec> sources(2 * shards);
  std::vector<integration::SourceColumnMatch> source_matches;
  std::vector<metadata::MetadataEdge> edges;
  std::vector<rel::RowMatching> matchings;
  for (size_t s = 0; s < shards; ++s) {
    const rel::Table& fact = scenario.tables[2 * s];
    const rel::Table& dim = scenario.tables[2 * s + 1];
    const std::vector<std::string> fact_features = FeatureColumns(fact, keys);
    if (s == 0) {
      target_names.insert(target_names.end(), fact_features.begin(),
                          fact_features.end());
    }
    sources[2 * s] = {fact.name(), fact.schema(),
                      SelfCorrespondences(fact_features)};
    const std::vector<std::string> dim_features = FeatureColumns(dim, keys);
    target_names.insert(target_names.end(), dim_features.begin(),
                        dim_features.end());
    sources[2 * s + 1] = {dim.name(), dim.schema(),
                          SelfCorrespondences(dim_features)};

    const std::string key = "dim" + std::to_string(s) + "_id";
    source_matches.push_back({2 * s, key, 2 * s + 1, key});
    if (s > 0) {
      edges.push_back({0, 2 * s, rel::JoinKind::kUnion});
      matchings.emplace_back();
    }
    edges.push_back({2 * s, 2 * s + 1, rel::JoinKind::kLeftJoin});
    AMALUR_ASSIGN_OR_RETURN(rel::RowMatching matching,
                            rel::MatchRowsOnKeys(fact, dim, {key}, {key}));
    matchings.push_back(std::move(matching));
  }
  AMALUR_ASSIGN_OR_RETURN(
      integration::SchemaMapping mapping,
      integration::SchemaMapping::Create(
          rel::JoinKind::kUnion, std::move(sources),
          rel::Schema::AllDouble(target_names), std::move(source_matches)));
  std::vector<const rel::Table*> tables;
  for (const rel::Table& table : scenario.tables) tables.push_back(&table);
  return metadata::DiMetadata::DeriveGraph(mapping, tables, edges, matchings);
}

}  // namespace factorized
}  // namespace amalur
