#include "util/env.h"

#include <cstdlib>
#include <limits>

#include "util/logging.h"
#include "util/str.h"

namespace tagg {

size_t ClampCount(const char* what, long long value, size_t fallback,
                  size_t max_value) {
  if (max_value == 0) max_value = 1;
  if (fallback < 1) fallback = 1;
  if (fallback > max_value) fallback = max_value;
  if (value <= 0) {
    TAGG_LOG(Warn) << what << "=" << value
                   << " is not a positive count; using " << fallback;
    return fallback;
  }
  const unsigned long long unsigned_value =
      static_cast<unsigned long long>(value);
  if (unsigned_value > static_cast<unsigned long long>(max_value)) {
    TAGG_LOG(Warn) << what << "=" << value << " exceeds the maximum "
                   << max_value << "; clamping";
    return max_value;
  }
  return static_cast<size_t>(value);
}

size_t ResolveCountEnv(const char* name, size_t fallback, size_t max_value) {
  const int64_t value = ResolveIntEnv(name, static_cast<int64_t>(fallback),
                                      std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max());
  return ClampCount(name, value, fallback, max_value);
}

int64_t ResolveIntEnv(const char* name, int64_t fallback, int64_t min_value,
                      int64_t max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  Result<int64_t> value = ParseInt(raw, min_value, max_value);
  if (!value.ok()) {
    TAGG_LOG(Warn) << name << "='" << raw << "': " << value.status().message()
                   << "; using " << fallback;
    return fallback;
  }
  return *value;
}

}  // namespace tagg
