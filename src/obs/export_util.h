// Shared serialization helpers for the observability exporters.
//
// Every artifact the simulator writes (metrics snapshots, trace JSON, timeline
// windows, SLO health summaries, flight-recorder dumps) funnels string data
// from uncontrolled sources — function names, tenant names, SLO specs typed on
// the command line — into JSON or CSV. Centralizing the escaping here keeps
// the exporters byte-compatible with each other and makes "hostile label"
// hardening a single-point fix instead of a per-exporter audit.
#ifndef OFC_OBS_EXPORT_UTIL_H_
#define OFC_OBS_EXPORT_UTIL_H_

#include <string>

namespace ofc::obs {

// JSON string-body escaping: quotes, backslashes, and control characters.
// The caller supplies the surrounding quotes.
std::string JsonEscape(const std::string& s);

// Renders a double as a JSON number: never "nan"/"inf" (clamped to 0), and
// integral values render without a fractional part so integer parsers
// round-trip losslessly.
std::string JsonNumber(double v);

// RFC-4180 CSV field: quoted (with doubled inner quotes) only when the value
// contains a comma, quote, or newline; returned verbatim otherwise.
std::string CsvField(const std::string& s);

// Writes `text` to `path`, replacing it; false on any I/O failure.
bool WriteTextFile(const std::string& path, const std::string& text);

}  // namespace ofc::obs

#endif  // OFC_OBS_EXPORT_UTIL_H_
