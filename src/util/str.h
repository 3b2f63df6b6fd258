// Small string helpers shared across modules.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace tagg {

/// Lowercases ASCII characters; leaves other bytes untouched.
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// The one checked integer parser (flags, environment variables, text
/// commands): the whole of `text` must be a base-10 integer — an optional
/// '-', digits, nothing else — inside [min_value, max_value].  Returns
/// InvalidArgument when `text` is not an integer and OutOfRange when it is
/// one (int64 overflow included) outside the bounds.
Result<int64_t> ParseInt(
    std::string_view text,
    int64_t min_value = std::numeric_limits<int64_t>::min(),
    int64_t max_value = std::numeric_limits<int64_t>::max());

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace tagg
