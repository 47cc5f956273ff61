#pragma once

#include "common/status.h"
#include "integration/schema_mapping.h"
#include "metadata/di_metadata.h"
#include "testing/generator.h"

/// \file scenario_builder.h
/// Glue for experiments: given a generated scenario (a `SiloPair`, a
/// `Snowflake` chain or a `UnionOfStars`), construct the schema mapping of
/// its relationship graph, recover the ground-truth row matchings from the
/// surrogate keys, and derive the DI metadata. Benches and tests build
/// factorized/materialized pipelines from the same scenario objects.

namespace amalur {
namespace factorized {

/// Builds the schema mapping of the pair's dataset relationship:
/// target schema = (y, shared..., base-private..., other-private...),
/// join variable = the entity key `k` (not part of the target).
Result<integration::SchemaMapping> BuildPairMapping(const rel::SiloPair& pair);

/// Full pipeline: mapping + ground-truth key matching + metadata derivation.
Result<metadata::DiMetadata> DerivePairMetadata(const rel::SiloPair& pair);

/// Full pipeline for a generated snowflake: chained left-join mapping
/// (target schema = y, fact features, then each level's features; the
/// `dim<i>_id` keys are join variables only), ground-truth key matchings per
/// chain edge, and `DiMetadata::DeriveGraph` with its composed indicators.
Result<metadata::DiMetadata> DeriveSnowflakeMetadata(
    const rel::Snowflake& snowflake);

/// Full pipeline for a generated union-of-stars: union mapping over the
/// shard facts (shared y/x columns merge into one target column each; every
/// shard dimension contributes its private features), key matchings per
/// star edge, and `DiMetadata::DeriveGraph` with its stacked shard blocks.
Result<metadata::DiMetadata> DeriveUnionOfStarsMetadata(
    const rel::UnionOfStars& scenario);

/// Full pipeline for a generated conformed snowflake: left-join DAG mapping
/// (target schema = y, fact features, each branch's features, then the
/// shared dimension's features ONCE), ground-truth key matchings per edge
/// — including one edge per branch into the shared dimension — and
/// `DiMetadata::DeriveGraph` with its merged conformed indicator. Pass
/// `inner_branches` > 0 to make the first that many fact→branch edges
/// inner joins (rows with dangling branch references drop from the target).
Result<metadata::DiMetadata> DeriveConformedSnowflakeMetadata(
    const rel::ConformedSnowflake& scenario, size_t inner_branches = 0);

}  // namespace factorized
}  // namespace amalur
