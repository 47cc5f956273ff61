#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "la/dense_matrix.h"
#include "relational/column.h"
#include "relational/schema.h"

/// \file table.h
/// In-memory columnar table — the representation of source tables `S_k` and
/// the materialized target table `T`. Tables are the boundary between the
/// relational world (joins, CSV) and the linear-algebra world (`ToMatrix`).

namespace amalur {
namespace rel {

/// A named columnar table.
class Table {
 public:
  /// Empty table with no columns.
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}
  Table(std::string name, std::vector<Column> columns);

  /// Empty table shaped after `schema` (zero rows).
  static Table FromSchema(std::string name, const Schema& schema);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumRows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t NumColumns() const { return columns_.size(); }

  /// The schema derived from the columns.
  Schema schema() const;

  const Column& column(size_t i) const {
    AMALUR_CHECK_LT(i, columns_.size()) << "column index out of range";
    return columns_[i];
  }
  Column* mutable_column(size_t i) {
    AMALUR_CHECK_LT(i, columns_.size()) << "column index out of range";
    return &columns_[i];
  }
  const std::vector<Column>& columns() const { return columns_; }

  /// Column lookup by name.
  Result<size_t> ColumnIndex(const std::string& name) const;
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends a column; its length must match the current row count (unless the
  /// table has no columns yet).
  Status AddColumn(Column column);

  /// Appends one row of boxed values (one per column, in order).
  Status AppendRow(const std::vector<Value>& values);

  /// New table with only the given columns, in the given order.
  Table Project(const std::vector<size_t>& indices) const;
  Result<Table> ProjectNames(const std::vector<std::string>& names) const;

  /// New table with the given rows (kNullRow emits an all-NULL row).
  Table GatherRows(const std::vector<size_t>& rows) const;

  /// Fraction of NULL cells over the given columns, counted in place (0 when
  /// they hold no cells).
  double NullRatio(const std::vector<size_t>& column_indices) const;

  /// Converts the given columns (must be numeric) to a dense matrix.
  /// NULL cells become `null_substitute` — the convention the paper's data
  /// matrices `D_k` and target `T` use (Figure 4 renders absent cells as 0).
  Result<la::DenseMatrix> ToMatrix(const std::vector<size_t>& column_indices,
                                   double null_substitute = 0.0) const;
  /// All-columns overload (NULL -> 0). Deliberately parameterless: a
  /// `ToMatrix(double)` overload would capture brace-initialized index lists
  /// like `ToMatrix({2})` via narrowing.
  Result<la::DenseMatrix> ToMatrix() const;

  /// Builds a table from a dense matrix with the given column names.
  static Table FromMatrix(std::string name, const la::DenseMatrix& matrix,
                          const std::vector<std::string>& column_names);

  /// Human-readable rendering of the first `max_rows` rows.
  std::string ToString(size_t max_rows = 10) const;

 private:
  std::string name_;
  std::vector<Column> columns_;
};

}  // namespace rel
}  // namespace amalur
