#include "util/str.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace tagg {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Result<int64_t> ParseInt(std::string_view text, int64_t min_value,
                         int64_t max_value) {
  const char* last = text.data() + text.size();
  int64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::invalid_argument || end != last) {
    return Status::InvalidArgument("expected an integer, got '" +
                                   std::string(text) + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer '" + std::string(text) +
                              "' does not fit in 64 bits");
  }
  if (value < min_value || value > max_value) {
    return Status::OutOfRange("expected an integer in [" +
                              std::to_string(min_value) + ", " +
                              std::to_string(max_value) + "], got '" +
                              std::string(text) + "'");
  }
  return value;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace tagg
