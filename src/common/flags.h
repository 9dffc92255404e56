// Command-line flag parsing shared by ofc-sim and the bench binaries.
#ifndef OFC_COMMON_FLAGS_H_
#define OFC_COMMON_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/common/units.h"

namespace ofc {

// Matches `arg` against "NAME=VALUE" and stores VALUE in `*out` on a match.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Parses all of `value` as a number no lower than `min` (strictly above it
// when `above`); otherwise names the flag on stderr and returns false, so
// "--workers=abc" or "--invocations=-5" fail loudly instead of running a
// degenerate scenario.
template <typename T>
bool ParseNumber(const char* flag, const std::string& value, T min, T* out, bool above = false) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  bool ok = ec == std::errc() && ptr == end && (above ? parsed > min : parsed >= min);
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(parsed);
  }
  if (!ok) {
    std::fprintf(stderr, "%s=%s: want a number %s %g\n", flag, value.c_str(), above ? ">" : ">=",
                 static_cast<double>(min));
    return false;
  }
  *out = parsed;
  return true;
}

// Bound on the durations a flag may carry: 2^62 µs (about 146,000 years), so a
// time built from one flag plus another (a crash instant plus its downtime)
// still fits SimDuration.
inline constexpr SimDuration kMaxFlagDuration = SimDuration{1} << 62;

// Parses all of `value` as a count of `unit` (Seconds(1) for "-s" flags,
// Millis(1) for "-ms" flags) and stores it in whole µs, truncated. The value
// must be finite, at least 0 µs (at least 1 µs when `above`) and below
// kMaxFlagDuration, so "--queue-deadline-s=1e300" fails loudly instead of
// overflowing the cast.
inline bool ParseDuration(const char* flag, const std::string& value, SimDuration unit,
                          SimDuration* out, bool above = false) {
  double parsed = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  const double micros = parsed * static_cast<double>(unit);
  // Every comparison with NaN is false, so NaN fails the range test too.
  bool ok = ec == std::errc() && ptr == end && micros >= 0.0 &&
            micros < static_cast<double>(kMaxFlagDuration);
  const SimDuration duration = ok ? static_cast<SimDuration>(micros) : 0;
  ok = ok && (!above || duration > 0);
  if (!ok) {
    std::fprintf(stderr, "%s=%s: want a duration %s 0 and below %lld us\n", flag,
                 value.c_str(), above ? ">" : ">=",
                 static_cast<long long>(kMaxFlagDuration));
    return false;
  }
  *out = duration;
  return true;
}

}  // namespace ofc

#endif  // OFC_COMMON_FLAGS_H_
