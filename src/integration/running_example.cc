#include "integration/running_example.h"

namespace amalur {
namespace integration {

RunningExample MakeRunningExample() {
  RunningExample ex;

  ex.s1 = rel::Table("S1");
  AMALUR_CHECK_OK(ex.s1.AddColumn(rel::Column::FromInt64s("m", {0, 0, 0, 1})));
  AMALUR_CHECK_OK(ex.s1.AddColumn(
      rel::Column::FromStrings("n", {"Jack", "Sam", "Ruby", "Jane"})));
  AMALUR_CHECK_OK(ex.s1.AddColumn(rel::Column::FromInt64s("a", {20, 35, 22, 37})));
  AMALUR_CHECK_OK(
      ex.s1.AddColumn(rel::Column::FromInt64s("hr", {60, 58, 65, 70})));

  ex.s2 = rel::Table("S2");
  AMALUR_CHECK_OK(ex.s2.AddColumn(rel::Column::FromInt64s("m", {1, 0, 1})));
  AMALUR_CHECK_OK(ex.s2.AddColumn(
      rel::Column::FromStrings("n", {"Rose", "Castiel", "Jane"})));
  AMALUR_CHECK_OK(ex.s2.AddColumn(rel::Column::FromInt64s("a", {45, 20, 37})));
  AMALUR_CHECK_OK(ex.s2.AddColumn(rel::Column::FromInt64s("o", {95, 97, 92})));
  AMALUR_CHECK_OK(ex.s2.AddColumn(
      rel::Column::FromStrings("dd", {"1/4/21", "3/8/22", "11/5/21"})));

  ex.target_schema = rel::Schema({{"m", rel::DataType::kInt64, true},
                                  {"a", rel::DataType::kInt64, true},
                                  {"hr", rel::DataType::kInt64, true},
                                  {"o", rel::DataType::kInt64, true}});

  auto mapping = SchemaMapping::Create(
      rel::JoinKind::kFullOuterJoin,
      {SchemaMapping::SourceSpec{
           "S1", ex.s1.schema(), {{"m", "m"}, {"a", "a"}, {"hr", "hr"}}},
       SchemaMapping::SourceSpec{
           "S2", ex.s2.schema(), {{"m", "m"}, {"a", "a"}, {"o", "o"}}}},
      ex.target_schema,
      // n is matched between the sources (join variable) but not in T.
      {{0, "n", 1, "n"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  ex.mapping = std::move(mapping).ValueOrDie();

  ex.matching.matched = {{3, 2}};  // Jane
  ex.matching.left_only = {0, 1, 2};
  ex.matching.right_only = {0, 1};
  return ex;
}

la::DenseMatrix RunningExampleTargetMatrix() {
  // S1's rows in order, then the S2-only rows; absent cells are 0 in
  // matrix form.
  return la::DenseMatrix({{0, 20, 60, 0},     // Jack
                          {0, 35, 58, 0},     // Sam
                          {0, 22, 65, 0},     // Ruby
                          {1, 37, 70, 92},    // Jane
                          {1, 45, 0, 95},     // Rose
                          {0, 20, 0, 97}});   // Castiel
}

}  // namespace integration
}  // namespace amalur
