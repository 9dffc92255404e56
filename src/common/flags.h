// Command-line flags shared by ofc-sim and the bench binaries. Each binary
// declares its flags once, as a table of FlagRow: ParseFlags binds argv through
// the table and PrintFlagUsage renders the same rows as --help.
#ifndef OFC_COMMON_FLAGS_H_
#define OFC_COMMON_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/units.h"

namespace ofc {

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

// Splits `text` at every `separator`, keeping empty fields.
inline std::vector<std::string> Split(const std::string& text, char separator) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(separator, start);
    out.push_back(text.substr(start, end - start));
    if (end == std::string::npos) {
      return out;
    }
    start = end + 1;
  }
}

// Stores one flag's value. `value` is null when the flag was given bare. On a
// bad value it names the flag on stderr and returns false.
using FlagBinder = std::function<bool(const char* flag, const std::string* value)>;

// One command-line flag, declared once. `spec` is its grammar and sets its
// arity: "--name" is a bare switch, "--name=V" needs a value and "--name[=V]"
// takes either form.
struct FlagRow {
  const char* group;  // Usage section heading; consecutive rows share a group.
  const char* spec;   // Flag grammar, e.g. "--mode=ofc|owk-swift|owk-redis".
  const char* help;   // One-line description.
  FlagBinder bind;
};

// One named value of a choice flag, e.g. {"owk-swift", Mode::kOwkSwift}.
template <typename T>
struct FlagChoice {
  const char* name;
  T value;
};

// A number no lower than `min`.
template <typename T>
FlagBinder NumberFlag(T* out, std::type_identity_t<T> min) {
  return [out, min](const char* flag, const std::string* value) {
    return ParseNumber(flag, *value, min, out);
  };
}

// A duration counted in `unit`; see ParseDuration.
inline FlagBinder DurationFlag(SimDuration* out, SimDuration unit, bool above = false) {
  return [out, unit, above](const char* flag, const std::string* value) {
    return ParseDuration(flag, *value, unit, out, above);
  };
}

// A string taken as given, such as an output path.
inline FlagBinder PathFlag(std::string* out) {
  return [out](const char*, const std::string* value) {
    *out = *value;
    return true;
  };
}

// A bare switch that turns `*out` on.
inline FlagBinder SwitchFlag(bool* out) {
  return [out](const char*, const std::string*) {
    *out = true;
    return true;
  };
}

// A comma list; empty fields are dropped, so "a,,b" binds {a, b}.
inline FlagBinder ListFlag(std::vector<std::string>* out) {
  return [out](const char*, const std::string* value) {
    *out = Split(*value, ',');
    std::erase(*out, std::string());
    return true;
  };
}

// One of `choices`, by name; `choices` must outlive the binder.
template <typename T, std::size_t N>
FlagBinder ChoiceFlag(T* out, const FlagChoice<T> (&choices)[N]) {
  return [out, &choices](const char* flag, const std::string* value) {
    for (const FlagChoice<T>& choice : choices) {
      if (*value == choice.name) {
        *out = choice.value;
        return true;
      }
    }
    std::string names;
    for (const FlagChoice<T>& choice : choices) {
      names += names.empty() ? "" : "|";
      names += choice.name;
    }
    std::fprintf(stderr, "%s=%s: want one of %s\n", flag, value->c_str(), names.c_str());
    return false;
  };
}

// The name `value` goes by in `choices`, which must list it.
template <typename T, std::size_t N>
const char* FlagChoiceName(const FlagChoice<T> (&choices)[N], T value) {
  return std::find_if(std::begin(choices), std::end(choices),
                      [value](const FlagChoice<T>& choice) { return choice.value == value; })
      ->name;
}

// Prints `rows` to stderr, one section per group, then `epilogue`.
inline void PrintFlagUsage(const char* program, std::span<const FlagRow> rows,
                           const std::string& epilogue = "") {
  std::fprintf(stderr, "usage: %s [flags]\n", program);
  const char* group = "";
  for (const FlagRow& row : rows) {
    if (std::strcmp(group, row.group) != 0) {
      group = row.group;
      std::fprintf(stderr, "\n%s:\n", group);
    }
    std::fprintf(stderr, "  %s\n      %s\n", row.spec, row.help);
  }
  std::fputs(epilogue.c_str(), stderr);
}

// Binds argv[1..] through `rows`, in order, so a later repeat of a flag binds
// again: a plain value is overridden, an accumulating binder accumulates.
// Returns false after naming the argument on stderr when a flag is unknown, a
// bare flag is given a value, a valued flag is given none, or a binder rejects
// the value; an unknown flag or --help also prints the usage, ending with
// `epilogue`. Callers exit 2.
inline bool ParseFlags(int argc, char** argv, std::span<const FlagRow> rows,
                       const std::string& epilogue = "") {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto row = std::find_if(rows.begin(), rows.end(), [&name](const FlagRow& r) {
      return std::string_view(r.spec, std::strcspn(r.spec, "=[")) == name;
    });
    if (row == rows.end()) {
      if (arg != "--help") {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      }
      PrintFlagUsage(argv[0], rows, epilogue);
      return false;
    }
    const char grammar = row->spec[name.size()];  // '\0' bare, '=' valued, '[' either.
    const bool has_value = eq != std::string::npos;
    if (has_value && grammar == '\0') {
      std::fprintf(stderr, "%s: %s takes no value\n", arg.c_str(), name.c_str());
      return false;
    }
    if (!has_value && grammar == '=') {
      std::fprintf(stderr, "%s: needs a value (%s)\n", arg.c_str(), row->spec);
      return false;
    }
    const std::string value = has_value ? arg.substr(eq + 1) : std::string();
    if (!row->bind(name.c_str(), has_value ? &value : nullptr)) {
      return false;
    }
  }
  return true;
}

}  // namespace ofc

#endif  // OFC_COMMON_FLAGS_H_
