#include "relational/column.h"

#include <cmath>
#include <cstring>
#include <functional>

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

/// splitmix64 finalizer: spreads int64 and double bits over the hash.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

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
  return Mix(type_ == DataType::kInt64 ? static_cast<uint64_t>(ints_[row])
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
