// Hardened parsing for count-valued configuration (environment variables
// and flags): worker pools, shard counts, queue sizes.
//
// The raw pattern `(size_t)strtol(getenv(...))` silently turns "-4" into
// 18446744073709551612 workers and "1e9" into 1, so every count knob goes
// through ClampCount/ResolveCountEnv instead: garbage falls back to the
// documented default, out-of-range values clamp to [1, max], and either
// repair logs one warning naming the knob so the operator learns the
// value was not taken at face value.

#pragma once

#include <cstddef>
#include <cstdint>

namespace tagg {

/// Clamps a parsed count into [1, max_value].  `value <= 0` is treated as
/// "unusable" and yields `fallback` (itself clamped); values above
/// `max_value` clamp down.  Any repair logs a warning naming `what`.
size_t ClampCount(const char* what, long long value, size_t fallback,
                  size_t max_value);

/// Resolves a count from the environment variable `name`: unset yields
/// `fallback` silently; a set but non-numeric / trailing-garbage /
/// overflowed value logs a warning and yields `fallback`; a numeric value
/// is clamped through ClampCount.
size_t ResolveCountEnv(const char* name, size_t fallback, size_t max_value);

/// Resolves an integer from the environment variable `name`: unset yields
/// `fallback` silently; a value that is not an integer in
/// [min_value, max_value] logs a warning and yields `fallback`.
int64_t ResolveIntEnv(const char* name, int64_t fallback, int64_t min_value,
                      int64_t max_value);

}  // namespace tagg
