#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "relational/table.h"

/// \file csv.h
/// CSV import/export for silo data: comma-separated, first row holds the
/// column names, quoted per RFC 4180. The reader infers per-column types
/// over the whole file (int64 ⊂ double ⊂ string; an unquoted empty field is
/// NULL) so that a column with one stray string falls back to string rather
/// than corrupting; a string column of numeric-looking values reads back
/// as numbers.

namespace amalur {
namespace rel {

/// Parses a CSV stream into a table named `table_name`. Malformed quoting or
/// a ragged row is `kInvalidArgument` naming the line.
Result<Table> ReadCsv(std::istream& input, const std::string& table_name);

/// Reads a CSV file; the table is named after the file's basename.
Result<Table> ReadCsvFile(const std::string& path);

/// Writes `table` as CSV (header row + data rows; NULL renders empty),
/// quoting what `ReadCsv` would otherwise read back differently.
Status WriteCsv(const Table& table, std::ostream& output);

/// Writes `table` to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path);

}  // namespace rel
}  // namespace amalur
