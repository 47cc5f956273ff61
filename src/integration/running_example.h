#pragma once

#include "integration/schema_mapping.h"
#include "relational/join.h"
#include "relational/table.h"

/// \file running_example.h
/// The paper's running example (Figures 2 and 4), verbatim: hospital tables
/// S1(m, n, a, hr) from the ER department and S2(m, n, a, o, dd) from the
/// pulmonary department, integrated into T(m, a, hr, o) by a full outer
/// join. Jane (S1 row 3, S2 row 2) is the one shared entity. Used as the
/// golden fixture across tests, examples and the Figure 4 bench.

namespace amalur {
namespace integration {

/// The full running-example fixture.
struct RunningExample {
  rel::Table s1;
  rel::Table s2;
  rel::Schema target_schema;  // T(m, a, hr, o)
  SchemaMapping mapping;      // the three tgds m1, m2, m3 of Figure 2c
  rel::RowMatching matching;  // ground truth: S1[3] ≡ S2[2] (Jane)
};

/// Builds the fixture. Data matches the paper figures exactly.
RunningExample MakeRunningExample();

/// The expected materialized target table `T` of Figure 4c over columns
/// (m, a, hr, o), with absent cells rendered as 0 — the paper's matrix
/// form. Rows are S1's rows in order, then the S2-only rows: [Jack, Sam,
/// Ruby, Jane, Rose, Castiel] (the figure prints Jane first).
la::DenseMatrix RunningExampleTargetMatrix();

}  // namespace integration
}  // namespace amalur
