#include "relational/column.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <system_error>

namespace amalur {
namespace rel {

namespace {

/// The bits `%.17g` tells apart: every double's own, but one per NaN sign.
uint64_t RenderedBits(double v) {
  if (std::isnan(v)) {
    return std::signbit(v) ? 0xFFF8000000000000ULL : 0x7FF8000000000000ULL;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Hash of a NULL int64 or double cell.
constexpr uint64_t kNullHash = 0x9E3779B97F4A7C15ULL;

/// Whether `s` is `std::to_string` of an int64: an optional '-', then
/// digits without a leading zero ("0" alone, never "-0").
bool ParseIntegerRendering(std::string_view s, int64_t* v) {
  const size_t sign = !s.empty() && s[0] == '-' ? 1 : 0;
  if (s.size() == sign || (s[sign] == '0' && s.size() > 1)) return false;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *v);
  return ec == std::errc() && ptr == end;
}

/// Whether `s` is `%.17g` of a double: parsed, then printed again.
bool ParseDoubleRendering(std::string_view s, double* v) {
  char printed[32];  // a rendering takes at most 24 characters
  if (s.empty() || s.size() >= sizeof(printed)) return false;
  const char first = s[0] == '-' && s.size() > 1 ? s[1] : s[0];
  if (!(first >= '0' && first <= '9') && first != 'i' && first != 'n') {
    return false;
  }
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *v);
  if (ec != std::errc() || ptr != end) return false;
  std::snprintf(printed, sizeof(printed), "%.17g", *v);
  return s == printed;
}

}  // namespace

/// `%.17g` prints an integral double below 1e17 in magnitude without an
/// exponent, digit for digit as `std::to_string` prints the int64 of its
/// value; −0.0 prints "-0", which no int64 does. Every other double prints
/// as no int64 and as no other double, NaNs of one sign aside.
CellKey Column::DoubleKey(double v) {
  if (std::fabs(v) < 1e17 && std::trunc(v) == v &&
      !(v == 0.0 && std::signbit(v))) {
    return {CellKey::Kind::kInteger,
            static_cast<uint64_t>(static_cast<int64_t>(v)), {}};
  }
  return {CellKey::Kind::kDouble, RenderedBits(v), {}};
}

/// A string is the key of the number it renders exactly, else its bytes.
CellKey Column::StringKey(std::string_view s) {
  int64_t integer = 0;
  if (ParseIntegerRendering(s, &integer)) {
    return {CellKey::Kind::kInteger, static_cast<uint64_t>(integer), {}};
  }
  double number = 0.0;
  if (ParseDoubleRendering(s, &number)) return DoubleKey(number);
  return {CellKey::Kind::kString, 0, s};
}

Column Column::Nulls(std::string name, DataType type, size_t rows) {
  Column col(std::move(name), type);
  for (size_t i = 0; i < rows; ++i) col.AppendNull();
  return col;
}

Column Column::FromDoubles(std::string name, std::vector<double> values) {
  Column col(std::move(name), DataType::kDouble);
  col.validity_.assign(values.size(), 1);
  col.doubles_ = std::move(values);
  return col;
}

Column Column::FromInt64s(std::string name, std::vector<int64_t> values) {
  Column col(std::move(name), DataType::kInt64);
  col.validity_.assign(values.size(), 1);
  col.ints_ = std::move(values);
  return col;
}

Column Column::FromStrings(std::string name, std::vector<std::string> values) {
  Column col(std::move(name), DataType::kString);
  col.validity_.assign(values.size(), 1);
  col.strings_ = std::move(values);
  return col;
}

size_t Column::NullCount() const {
  size_t count = 0;
  for (uint8_t v : validity_) count += (v == 0);
  return count;
}

void Column::AppendNull() {
  validity_.push_back(0);
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
}

void Column::AppendInt64(int64_t v) {
  AMALUR_CHECK(type_ == DataType::kInt64) << "append int64 to " << name_;
  validity_.push_back(1);
  ints_.push_back(v);
}

void Column::AppendDouble(double v) {
  AMALUR_CHECK(type_ == DataType::kDouble) << "append double to " << name_;
  validity_.push_back(1);
  doubles_.push_back(v);
}

void Column::AppendString(std::string v) {
  AMALUR_CHECK(type_ == DataType::kString) << "append string to " << name_;
  validity_.push_back(1);
  strings_.push_back(std::move(v));
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(v.int64());
      break;
    case DataType::kDouble:
      // Accept int64 boxes into double columns (CSV type widening).
      AppendDouble(v.is_int64() ? static_cast<double>(v.int64()) : v.dbl());
      break;
    case DataType::kString:
      AppendString(v.str());
      break;
  }
}

void Column::SetValue(size_t row, const Value& v) {
  AMALUR_CHECK_LT(row, size()) << "SetValue out of range";
  if (v.is_null()) {
    validity_[row] = 0;
    return;
  }
  validity_[row] = 1;
  switch (type_) {
    case DataType::kInt64:
      ints_[row] = v.int64();
      break;
    case DataType::kDouble:
      doubles_[row] = v.is_int64() ? static_cast<double>(v.int64()) : v.dbl();
      break;
    case DataType::kString:
      strings_[row] = v.str();
      break;
  }
}

Value Column::GetValue(size_t row) const {
  AMALUR_CHECK_LT(row, size()) << "GetValue out of range";
  if (validity_[row] == 0) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kDouble:
      return Value(doubles_[row]);
    case DataType::kString:
      return Value(strings_[row]);
  }
  return Value::Null();
}

double Column::GetDouble(size_t row, double null_substitute) const {
  AMALUR_CHECK_LT(row, size()) << "GetDouble out of range";
  if (validity_[row] == 0) return null_substitute;
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kDouble:
      return doubles_[row];
    case DataType::kString:
      AMALUR_LOG(Fatal) << "GetDouble on string column " << name_;
  }
  return null_substitute;
}

size_t Column::CellHash(size_t row) const {
  AMALUR_CHECK_LT(row, size()) << "CellHash out of range";
  if (type_ == DataType::kString) {
    return std::hash<std::string_view>{}(RenderedString(row));
  }
  if (validity_[row] == 0) return kNullHash;
  return MixBits(type_ == DataType::kInt64 ? static_cast<uint64_t>(ints_[row])
                                           : RenderedBits(doubles_[row]));
}

bool Column::CellsEqual(size_t row, size_t other_row) const {
  AMALUR_CHECK_LT(row, size()) << "CellsEqual out of range";
  AMALUR_CHECK_LT(other_row, size()) << "CellsEqual out of range";
  if (type_ == DataType::kString) {
    return RenderedString(row) == RenderedString(other_row);
  }
  const bool present = validity_[row] != 0;
  const bool other_present = validity_[other_row] != 0;
  if (!present || !other_present) return present == other_present;
  if (type_ == DataType::kInt64) return ints_[row] == ints_[other_row];
  return RenderedBits(doubles_[row]) == RenderedBits(doubles_[other_row]);
}

void Column::CopyDoubles(double null_substitute, double* out,
                         size_t stride) const {
  AMALUR_CHECK(type_ != DataType::kString)
      << "CopyDoubles on string column " << name_;
  const size_t rows = size();
  if (type_ == DataType::kInt64) {
    for (size_t i = 0; i < rows; ++i) {
      out[i * stride] =
          validity_[i] != 0 ? static_cast<double>(ints_[i]) : null_substitute;
    }
  } else {
    for (size_t i = 0; i < rows; ++i) {
      out[i * stride] = validity_[i] != 0 ? doubles_[i] : null_substitute;
    }
  }
}

Column Column::Gather(const std::vector<size_t>& rows) const {
  Column out(name_, type_);
  for (size_t row : rows) {
    if (row == kNullRow) {
      out.AppendNull();
      continue;
    }
    AMALUR_CHECK_LT(row, size()) << "gather index out of range";
    if (validity_[row] == 0) {
      out.AppendNull();
      continue;
    }
    switch (type_) {
      case DataType::kInt64:
        out.AppendInt64(ints_[row]);
        break;
      case DataType::kDouble:
        out.AppendDouble(doubles_[row]);
        break;
      case DataType::kString:
        out.AppendString(strings_[row]);
        break;
    }
  }
  return out;
}

}  // namespace rel
}  // namespace amalur
