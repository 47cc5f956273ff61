#include "relational/csv.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"

namespace amalur {
namespace rel {

namespace {

/// The field separator of every file read and written.
constexpr char kDelimiter = ',';
/// Encloses a field that holds a delimiter, a quote, a line break or edge
/// whitespace; a quote inside it is written twice.
constexpr char kQuote = '"';

/// A field as read: unquoted text trimmed, quoted text verbatim. An unquoted
/// empty field is NULL (nullopt), a quoted one the empty string.
using TextField = std::optional<std::string>;

/// Splits `text` into records per RFC 4180 and notes the line each starts
/// on. A record ends at "\n", "\r\n" or a '\r' that ends the input; a
/// quote inside an unquoted field is literal text.
Status ParseRecords(std::string_view text,
                    std::vector<std::vector<TextField>>* records,
                    std::vector<size_t>* lines) {
  const auto at_line_end = [&](size_t pos) {
    return pos == text.size() || text[pos] == '\n' ||
           (text[pos] == '\r' &&
            (pos + 1 == text.size() || text[pos + 1] == '\n'));
  };
  size_t line = 1;
  for (size_t pos = 0; pos < text.size(); ++line) {
    lines->push_back(line);
    std::vector<TextField>& record = records->emplace_back();
    while (true) {
      std::string field;
      const bool quoted = pos < text.size() && text[pos] == kQuote;
      if (quoted) {
        const size_t open_line = line;
        for (++pos; pos < text.size(); ++pos) {
          if (text[pos] == kQuote &&
              (pos + 1 == text.size() || text[pos + 1] != kQuote)) {
            break;
          }
          if (text[pos] == kQuote) ++pos;  // a doubled quote stands for one
          if (text[pos] == '\n') ++line;
          field += text[pos];
        }
        if (pos++ == text.size()) {
          return Status::InvalidArgument(
              "unterminated quoted field starting at line ", open_line);
        }
        if (!at_line_end(pos) && text[pos] != kDelimiter) {
          return Status::InvalidArgument("text after a closing quote at line ",
                                         line);
        }
      } else {
        const size_t begin = pos;
        while (!at_line_end(pos) && text[pos] != kDelimiter) ++pos;
        field = Trim(text.substr(begin, pos - begin));
      }
      record.push_back(quoted || !field.empty() ? TextField(std::move(field))
                                                : std::nullopt);
      if (pos == text.size() || text[pos] != kDelimiter) break;
      ++pos;
    }
    if (pos < text.size() && text[pos] == '\r') ++pos;
    if (pos < text.size()) ++pos;  // the '\n'
  }
  return Status::OK();
}

/// What a single text field could parse as, and the column type each kind
/// infers (an all-NULL column defaults to double).
enum class FieldKind { kEmpty, kInt64, kDouble, kString };
constexpr DataType kColumnType[] = {DataType::kDouble, DataType::kInt64,
                                    DataType::kDouble, DataType::kString};

FieldKind ClassifyField(const TextField& field) {
  if (!field) return FieldKind::kEmpty;
  const std::string& text = *field;
  // strtod skips a leading blank, which only a quoted field keeps.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return FieldKind::kString;
  }
  int64_t int_value;
  auto [int_end, int_err] =
      std::from_chars(text.data(), text.data() + text.size(), int_value);
  // "-0" is negative zero, which only a double holds.
  if (int_err == std::errc() && int_end == text.data() + text.size() &&
      !(int_value == 0 && text[0] == '-')) {
    return FieldKind::kInt64;
  }
  // std::from_chars<double> is not universally available on older stdlibs.
  char* end = nullptr;
  errno = 0;
  (void)std::strtod(text.c_str(), &end);
  if (errno == 0 && end == text.c_str() + text.size()) {
    return FieldKind::kDouble;
  }
  return FieldKind::kString;
}

Value ParseField(const TextField& field, DataType type) {
  if (!field) return Value::Null();
  if (type == DataType::kString) return Value(*field);
  if (type == DataType::kDouble) {
    return Value(std::strtod(field->c_str(), nullptr));
  }
  int64_t v = 0;
  std::from_chars(field->data(), field->data() + field->size(), v);
  return Value(v);
}

/// Writes one field, quoted when reading it back unquoted would change it:
/// it is empty, holds a delimiter, quote or line break, or has edge blanks.
void WriteField(const std::string& text, std::ostream& output) {
  if (!text.empty() && text.find_first_of(",\"\r\n") == std::string::npos &&
      Trim(text).size() == text.size()) {
    output << text;
    return;
  }
  output << kQuote;
  for (char c : text) {
    if (c == kQuote) output << kQuote;
    output << c;
  }
  output << kQuote;
}

}  // namespace

Result<Table> ReadCsv(std::istream& input, const std::string& table_name) {
  const std::string text((std::istreambuf_iterator<char>(input)),
                         std::istreambuf_iterator<char>());
  std::vector<std::vector<TextField>> records;
  std::vector<size_t> lines;
  AMALUR_RETURN_NOT_OK(ParseRecords(text, &records, &lines));
  // Trailing blank lines are a file artifact, not empty records.
  while (!records.empty() && records.back().size() == 1 && !records.back()[0]) {
    records.pop_back();
  }
  if (records.empty()) return Status::InvalidArgument("empty CSV input");

  // The first record is the header. Pass 1: infer column types
  // (int64 -> double -> string).
  const size_t width = records[0].size();
  std::vector<FieldKind> column_kind(width, FieldKind::kEmpty);
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].size() != width) {
      return Status::InvalidArgument("the row at line ", lines[i], " has ",
                                     records[i].size(), " fields, expected ",
                                     width);
    }
    for (size_t j = 0; j < width; ++j) {
      column_kind[j] = std::max(column_kind[j], ClassifyField(records[i][j]));
    }
  }

  Table table(table_name);
  std::vector<DataType> types(width);
  for (size_t j = 0; j < width; ++j) {
    types[j] = kColumnType[static_cast<size_t>(column_kind[j])];
    AMALUR_RETURN_NOT_OK(
        table.AddColumn(Column(records[0][j].value_or(""), types[j])));
  }
  std::vector<Value> row(width);
  for (size_t i = 1; i < records.size(); ++i) {
    for (size_t j = 0; j < width; ++j) {
      row[j] = ParseField(records[i][j], types[j]);
    }
    AMALUR_RETURN_NOT_OK(table.AppendRow(row));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path) {
  std::ifstream input(path);
  if (!input.is_open()) return Status::IOError("cannot open ", path);
  std::string basename = path;
  const size_t slash = basename.find_last_of('/');
  if (slash != std::string::npos) basename = basename.substr(slash + 1);
  const size_t dot = basename.find_last_of('.');
  if (dot != std::string::npos) basename = basename.substr(0, dot);
  return ReadCsv(input, basename);
}

Status WriteCsv(const Table& table, std::ostream& output) {
  const auto names = table.schema().Names();
  for (size_t j = 0; j < names.size(); ++j) {
    if (j > 0) output << kDelimiter;
    WriteField(names[j], output);
  }
  output << "\n";
  for (size_t i = 0; i < table.NumRows(); ++i) {
    for (size_t j = 0; j < table.NumColumns(); ++j) {
      if (j > 0) output << kDelimiter;
      const Value value = table.column(j).GetValue(i);
      if (!value.is_null()) WriteField(value.ToString(), output);
    }
    output << "\n";
  }
  if (!output.good()) return Status::IOError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream output(path);
  if (!output.is_open()) return Status::IOError("cannot open ", path);
  return WriteCsv(table, output);
}

}  // namespace rel
}  // namespace amalur
