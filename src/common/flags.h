// Command-line flag parsing shared by ofc-sim and the bench binaries.
#ifndef OFC_COMMON_FLAGS_H_
#define OFC_COMMON_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

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

}  // namespace ofc

#endif  // OFC_COMMON_FLAGS_H_
