#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "relational/join.h"
#include "relational/table.h"

/// \file table1_scenarios.h
/// The seven standard integration scenarios: the four pairwise
/// relationships of the paper's Table I (full outer join, inner join, left
/// join, union) and three graph shapes (snowflake, union-of-stars,
/// conformed snowflake). Each one's generator spec, full-scale row counts,
/// seed and edges are written here once, so every bench and test that runs
/// them integrates the same data. The fixture stops at tables and edges:
/// registering the tables and integrating the edges is the facade's work,
/// and this layer includes no `core` header.

namespace amalur {
namespace rel {

/// One edge of a scenario's integration graph, between two of its tables
/// by name.
struct ScenarioEdge {
  std::string left;
  std::string right;
  JoinKind kind = JoinKind::kLeftJoin;
};

/// A generated scenario. Each table is registered under its own name; the
/// label column `y` lives on the fact (the base of a pair).
struct Table1Scenario {
  /// JSON identifier, e.g. "full_outer_join".
  std::string slug;
  /// Printed label, numbered in Table I order, e.g. "1 full outer join".
  std::string label;
  std::vector<Table> tables;
  std::vector<ScenarioEdge> edges;
};

/// Generates the seven scenarios in Table I order. Every row count is the
/// full-scale count divided by `row_scale` (1 is full scale), and at least
/// 2. Deterministic in `row_scale`.
std::vector<Table1Scenario> MakeTable1Scenarios(size_t row_scale = 1);

}  // namespace rel
}  // namespace amalur
