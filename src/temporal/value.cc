#include "temporal/value.h"

#include <functional>

namespace tagg {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return Status::InvalidArgument(
          std::string("value of type ") +
          std::string(ValueTypeToString(type())) + " is not numeric");
  }
}

Result<int> Value::Compare(const Value& other) const {
  // Nulls: equal to each other, less than non-null.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  const bool numeric_a = type() != ValueType::kString;
  const bool numeric_b = other.type() != ValueType::kString;
  if (numeric_a != numeric_b) {
    return Status::InvalidArgument("cannot compare " + ToString() + " with " +
                                   other.ToString());
  }
  return CompareCompatible(other);
}

int Value::CompareCompatible(const Value& other) const {
  if (type() == ValueType::kString) {
    const int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
    const int64_t a = AsInt(), b = other.AsInt();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  const double a = type() == ValueType::kInt ? static_cast<double>(AsInt())
                                             : AsDouble();
  const double b = other.type() == ValueType::kInt
                       ? static_cast<double>(other.AsInt())
                       : other.AsDouble();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kInt:
      return std::hash<int64_t>{}(AsInt()) ^ 0x1;
    case ValueType::kDouble:
      return std::hash<double>{}(AsDouble()) ^ 0x2;
    case ValueType::kString:
      return std::hash<std::string>{}(AsString()) ^ 0x3;
  }
  return 0;
}

}  // namespace tagg
