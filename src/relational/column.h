#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "relational/value.h"

/// \file column.h
/// Typed columnar storage. One vector of the physical type plus a validity
/// byte-vector (1 = present). Cell-level `Value` boxing only happens at API
/// boundaries; bulk paths (`ToMatrix`, joins) read the typed vectors directly.

namespace amalur {
namespace rel {

/// A single named, typed, nullable column.
class Column {
 public:
  Column(std::string name, DataType type)
      : name_(std::move(name)), type_(type) {}

  /// Pre-sized all-null column (rows are filled by position later).
  static Column Nulls(std::string name, DataType type, size_t rows);
  /// Column of doubles with all values present.
  static Column FromDoubles(std::string name, std::vector<double> values);
  /// Column of int64s with all values present.
  static Column FromInt64s(std::string name, std::vector<int64_t> values);
  /// Column of strings with all values present.
  static Column FromStrings(std::string name, std::vector<std::string> values);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  DataType type() const { return type_; }
  size_t size() const { return validity_.size(); }

  bool IsNull(size_t row) const {
    AMALUR_CHECK_LT(row, size()) << "column row out of range";
    return validity_[row] == 0;
  }

  /// Number of NULL cells.
  size_t NullCount() const;
  /// Fraction of NULL cells (0 for an empty column).
  double NullRatio() const {
    return size() == 0 ? 0.0
                       : static_cast<double>(NullCount()) /
                             static_cast<double>(size());
  }

  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  /// Appends a boxed value; its type must match the column type (or be null).
  void AppendValue(const Value& v);

  /// Overwrites row `row` (used when assembling join outputs).
  void SetValue(size_t row, const Value& v);

  /// Boxed read of one cell.
  Value GetValue(size_t row) const;

  /// Numeric read of one cell; NULL returns `null_substitute`. Only valid for
  /// int64/double columns.
  double GetDouble(size_t row, double null_substitute = 0.0) const;

  /// Direct typed access for bulk kernels; only valid for the matching type.
  const std::vector<int64_t>& int64_data() const { return ints_; }
  const std::vector<double>& double_data() const { return doubles_; }
  const std::vector<std::string>& string_data() const { return strings_; }

  /// Typed cell hash and equality (for deduplication and distinctness checks
  /// without boxing). Two cells of this column are equal exactly when their
  /// `Value::ToString()` renderings are: in a string column NULL equals "",
  /// elsewhere NULL equals only NULL; doubles compare by bits, except that
  /// NaNs of one sign are equal (so 0.0 != -0.0). Equal cells hash equally.
  size_t CellHash(size_t row) const;
  bool CellsEqual(size_t row, size_t other_row) const;

  /// New column with the given rows, in the given order; `kNullRow` emits NULL.
  static constexpr size_t kNullRow = static_cast<size_t>(-1);
  Column Gather(const std::vector<size_t>& rows) const;

 private:
  /// A string cell as `Value::ToString()` renders it: "" for NULL, whose
  /// stored string may be stale.
  std::string_view RenderedString(size_t row) const {
    return validity_[row] != 0 ? std::string_view(strings_[row])
                               : std::string_view();
  }

  std::string name_;
  DataType type_;
  std::vector<uint8_t> validity_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace rel
}  // namespace amalur
