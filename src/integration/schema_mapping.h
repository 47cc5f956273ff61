#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "integration/tgd.h"
#include "relational/join.h"
#include "relational/schema.h"

/// \file schema_mapping.h
/// Schema mappings M = ⟨S, T, Σ⟩ (§III.A): source schemas, a target schema,
/// and a set of s-t tgds Σ. A `SchemaMapping` is constructed declaratively
/// from column correspondences and a dataset relationship (Table I), and the
/// tgds are generated with the paper's variable-naming convention (mapped
/// attributes share variable names). The inverse direction, `ClassifyTgds`,
/// maps a tgd set back to a dataset relationship. The cost model's full-tgd
/// prescreen (Example IV.1) does not call it: it reads
/// `CostFeatures::all_tgds_full`, which `FromMetadata` sets from the join
/// kind.

namespace amalur {
namespace integration {

/// A source-column → target-column correspondence for one source table.
struct ColumnCorrespondence {
  std::string source_column;
  std::string target_column;
};

/// An inter-source column match (schema matching output), e.g. S1.n ≈ S2.n.
struct SourceColumnMatch {
  size_t first_source;
  std::string first_column;
  size_t second_source;
  std::string second_column;
};

/// A fully specified schema mapping.
class SchemaMapping {
 public:
  /// An empty mapping (no sources, no tgds); fill via `Create`.
  SchemaMapping() = default;

  /// One source relation and its correspondences into the target.
  struct SourceSpec {
    std::string name;
    rel::Schema schema;
    std::vector<ColumnCorrespondence> to_target;
  };

  /// Builds the mapping and generates its tgds.
  ///
  /// `source_matches` declares columns matched *between* sources (join
  /// variables that need not appear in the target, like `n` in the running
  /// example). Columns of different sources mapped to the same target column
  /// are join variables implicitly.
  static Result<SchemaMapping> Create(rel::JoinKind kind,
                                      std::vector<SourceSpec> sources,
                                      rel::Schema target_schema,
                                      std::vector<SourceColumnMatch>
                                          source_matches = {});

  rel::JoinKind kind() const { return kind_; }
  size_t num_sources() const { return sources_.size(); }
  const SourceSpec& source(size_t k) const { return sources_[k]; }
  const rel::Schema& target_schema() const { return target_schema_; }
  const std::vector<Tgd>& tgds() const { return tgds_; }

  /// For source `k`: element `i` is the index (within source k's schema) of
  /// the column mapped to target column `i`, or -1 when target column `i`
  /// has no correspondent in source k. This is the schema-level raw material
  /// of the paper's compressed mapping matrix `CM_k`.
  std::vector<int64_t> TargetToSourceColumns(size_t k) const;

  /// Names of source k's mapped columns in *source schema order* — the
  /// column layout of the processed data matrix `D_k` (§III.B: "only include
  /// the mapped columns").
  std::vector<std::string> MappedColumns(size_t k) const;

  /// Source columns participating in the join condition (shared variables),
  /// for source `k` in schema order. Empty for unions.
  std::vector<std::string> JoinColumns(size_t k) const;

  /// True when every tgd is full (no existential variables) — the
  /// materialize-fast-path precondition of Example IV.1.
  bool AllTgdsFull() const;

  /// Infers the dataset relationship from a tgd set's structure:
  /// single joint tgd → inner join; joint + base-only → left join;
  /// joint + one per source → full outer; per-source only → union.
  static Result<rel::JoinKind> ClassifyTgds(const std::vector<Tgd>& tgds);

  /// Multi-line rendering: one tgd per line (matches Table I's style).
  std::string ToString() const;

 private:
  rel::JoinKind kind_ = rel::JoinKind::kInnerJoin;
  std::vector<SourceSpec> sources_;
  rel::Schema target_schema_;
  std::vector<Tgd> tgds_;
  /// variable_of_[k][j] = tgd variable naming column j of source k.
  std::vector<std::vector<std::string>> source_variables_;
  /// Variable naming each target column.
  std::vector<std::string> target_variables_;
};

}  // namespace integration
}  // namespace amalur
