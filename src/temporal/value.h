// Value: a dynamically typed attribute value (null, int64, double, string).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "util/result.h"

namespace tagg {

/// The type of an attribute or Value.
enum class ValueType : uint8_t { kNull = 0, kInt = 1, kDouble = 2,
                                 kString = 3 };

std::string_view ValueTypeToString(ValueType type);

/// A single attribute value.  Comparisons between numeric types coerce to
/// double; comparisons between incompatible types are errors.
class Value {
 public:
  /// Null value.
  Value() : repr_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Double(double v) { return Value(Repr(v)); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }

  ValueType type() const {
    return static_cast<ValueType>(repr_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// The held int64; must hold kInt.
  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  /// The held double; must hold kDouble.
  double AsDouble() const { return std::get<double>(repr_); }
  /// The held string; must hold kString.
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Numeric view of the value (int widened to double); error for
  /// null/string.
  Result<double> ToNumeric() const;

  /// Strict equality: same type and same contents (int 1 != double 1.0;
  /// use Compare for coercing comparison).
  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Three-way comparison with numeric coercion; errors on incompatible
  /// types (string vs numeric).  Nulls compare equal to each other and
  /// less than everything else.
  Result<int> Compare(const Value& other) const;

  /// Compare without the checks: both values must be non-null and of
  /// compatible types (both numeric, or both strings).
  int CompareCompatible(const Value& other) const;

  std::string ToString() const;

  /// Hash compatible with operator==.
  size_t Hash() const;

 private:
  using Repr = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}
  Repr repr_;
};

}  // namespace tagg
