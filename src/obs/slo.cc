#include "src/obs/slo.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/obs/export_util.h"

namespace ofc::obs {

namespace {

std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) {
    return "";
  }
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

std::string CellKey(const std::string& name, const std::string& label) {
  std::string key = name;
  key.push_back('\0');
  key += label;
  return key;
}

// Applies a `key=val` option field; returns false on unknown key / bad value.
bool ApplyOption(const std::string& field, SloSpec* spec, std::string* error) {
  const std::size_t eq = field.find('=');
  if (eq == std::string::npos) {
    *error = "expected key=val option, got '" + field + "'";
    return false;
  }
  const std::string key = field.substr(0, eq);
  double value = 0.0;
  if (!ParseDouble(field.substr(eq + 1), &value) || value <= 0.0) {
    *error = "bad value in option '" + field + "'";
    return false;
  }
  if (key == "fast") {
    spec->fast_window_s = value;
  } else if (key == "slow") {
    spec->slow_window_s = value;
  } else if (key == "fastburn") {
    spec->fast_burn_threshold = value;
  } else if (key == "slowburn") {
    spec->slow_burn_threshold = value;
  } else {
    *error = "unknown option '" + key + "'";
    return false;
  }
  return true;
}

bool ParseOneSpec(const std::string& entry, std::size_t index, SloSpec* spec,
                  std::string* error) {
  std::vector<std::string> fields = Split(entry, ':');
  // Optional `name=` prefix rides in the first field.
  std::size_t eq = fields[0].find('=');
  if (eq != std::string::npos) {
    spec->name = fields[0].substr(0, eq);
    fields[0] = fields[0].substr(eq + 1);
  } else {
    spec->name = "slo" + std::to_string(index + 1);
  }
  if (spec->name.empty()) {
    *error = "empty SLO name in '" + entry + "'";
    return false;
  }
  std::size_t next = 0;
  if (fields[0] == "lat") {
    spec->type = SloSpec::Type::kLatency;
    if (fields.size() < 4) {
      *error = "latency SLO needs lat:<series>:p<Q>:<target_ms> in '" + entry + "'";
      return false;
    }
    spec->series = fields[1];
    const std::string& q = fields[2];
    double pct = 0.0;
    if (q.size() < 2 || q[0] != 'p' || !ParseDouble(q.substr(1), &pct) || pct <= 0.0 ||
        pct >= 100.0) {
      *error = "bad percentile '" + q + "' in '" + entry + "' (want e.g. p99)";
      return false;
    }
    spec->quantile = pct / 100.0;
    spec->budget = 1.0 - spec->quantile;
    if (!ParseDouble(fields[3], &spec->target_ms) || spec->target_ms < 0.0) {
      *error = "bad latency target '" + fields[3] + "' in '" + entry + "'";
      return false;
    }
    next = 4;
  } else if (fields[0] == "rate") {
    spec->type = SloSpec::Type::kRate;
    if (fields.size() < 3) {
      *error = "rate SLO needs rate:<num>/<den>:<budget> in '" + entry + "'";
      return false;
    }
    const std::size_t slash = fields[1].find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 == fields[1].size()) {
      *error = "rate SLO needs <numerator>/<denominator> in '" + entry + "'";
      return false;
    }
    spec->numerator = fields[1].substr(0, slash);
    spec->denominator = fields[1].substr(slash + 1);
    if (!ParseDouble(fields[2], &spec->budget) || spec->budget <= 0.0 || spec->budget > 1.0) {
      *error = "bad budget '" + fields[2] + "' in '" + entry + "' (want (0, 1])";
      return false;
    }
    next = 3;
  } else {
    *error = "unknown SLO type '" + fields[0] + "' in '" + entry + "' (want lat|rate)";
    return false;
  }
  for (std::size_t i = next; i < fields.size(); ++i) {
    if (!ApplyOption(fields[i], spec, error)) {
      return false;
    }
  }
  if (spec->fast_window_s > spec->slow_window_s) {
    *error = "fast window exceeds slow window in '" + entry + "'";
    return false;
  }
  return true;
}

}  // namespace

bool ParseSloSpecs(const std::string& text, std::vector<SloSpec>* specs, std::string* error) {
  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), '\n', ';');
  for (const std::string& raw : Split(normalized, ';')) {
    const std::string entry = Trim(raw);
    if (entry.empty() || entry[0] == '#') {
      continue;
    }
    SloSpec spec;
    if (!ParseOneSpec(entry, specs->size(), &spec, error)) {
      return false;
    }
    specs->push_back(std::move(spec));
  }
  return true;
}

SloMonitor::SloMonitor(MetricsRegistry* registry, TraceRecorder* trace,
                       std::vector<SloSpec> specs)
    : registry_(registry), trace_(trace), specs_(std::move(specs)) {
  states_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    states_[i].cells.Bind(*registry_, specs_[i].name);
  }
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->SetProcessName(kPidSlo, "slo");
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      trace_->SetThreadName(kPidSlo, i, specs_[i].name);
    }
  }
}

SloMonitor::WindowSample SloMonitor::Collect(const SloSpec& spec, SloState* state,
                                             SimTime start, SimTime end) {
  WindowSample window;
  window.start = start;
  window.end = end;
  if (spec.type == SloSpec::Type::kLatency) {
    // Bad = stored observations above target that arrived since the previous
    // evaluation, across every label of the series family. Once a cell hits
    // its stored-sample cap the SLO goes quiet for that cell (no new samples
    // to judge) — runs long enough to cap should raise the cap, not the SLO.
    registry_->VisitSeries([&](const std::string& name, const std::string& label,
                               const Series& cell) {
      if (name != spec.series) {
        return;
      }
      std::size_t& prev = state->prev_stored[CellKey(name, label)];
      const std::vector<double>& stored = cell.samples().values();
      if (stored.size() < prev) {
        prev = 0;  // Reset: re-judge everything since.
      }
      for (std::size_t i = prev; i < stored.size(); ++i) {
        window.total += 1.0;
        if (stored[i] > spec.target_ms) {
          window.bad += 1.0;
        }
      }
      prev = stored.size();
    });
  } else {
    auto delta = [&](const std::string& family) {
      const std::uint64_t cur = registry_->CounterTotal(family);
      std::uint64_t& prev = state->prev_counter[family];
      const std::uint64_t d = cur >= prev ? cur - prev : cur;
      prev = cur;
      return static_cast<double>(d);
    };
    window.bad = delta(spec.numerator);
    window.total = delta(spec.denominator);
  }
  return window;
}

double SloMonitor::BurnOver(const SloState& state, double window_s, double budget,
                            SimTime now) {
  const SimTime horizon =
      now > static_cast<SimTime>(window_s * 1e6) ? now - static_cast<SimTime>(window_s * 1e6)
                                                 : 0;
  double bad = 0.0;
  double total = 0.0;
  for (auto it = state.windows.rbegin(); it != state.windows.rend(); ++it) {
    if (it->end <= horizon) {
      break;
    }
    bad += it->bad;
    total += it->total;
  }
  if (total <= 0.0 || budget <= 0.0) {
    return 0.0;
  }
  return (bad / total) / budget;
}

void SloMonitor::Evaluate(SimTime now) {
  const SimTime start = evaluated_once_ ? last_eval_ : 0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    SloState& state = states_[i];
    state.windows.push_back(Collect(spec, &state, start, now));
    // Trim history beyond the slow lookback; nothing ever reads past it.
    const SimTime keep = static_cast<SimTime>(spec.slow_window_s * 1e6);
    while (!state.windows.empty() && state.windows.front().end + keep < now) {
      state.windows.pop_front();
    }
    state.fast_burn = BurnOver(state, spec.fast_window_s, spec.budget, now);
    state.slow_burn = BurnOver(state, spec.slow_window_s, spec.budget, now);
    state.worst_fast_burn = std::max(state.worst_fast_burn, state.fast_burn);
    state.worst_slow_burn = std::max(state.worst_slow_burn, state.slow_burn);
    state.cells.burn_fast->Set(state.fast_burn);
    state.cells.burn_slow->Set(state.slow_burn);

    const bool should_fire = state.fast_burn >= spec.fast_burn_threshold &&
                             state.slow_burn >= spec.slow_burn_threshold;
    if (should_fire && !state.firing) {
      state.firing = true;
      ++state.fired_count;
      ++*state.cells.alerts;
      state.active_alert = alerts_.size();
      SloAlert alert;
      alert.slo = spec.name;
      alert.fired_at = now;
      alert.fast_burn = state.fast_burn;
      alert.slow_burn = state.slow_burn;
      alerts_.push_back(std::move(alert));
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->Instant("slo-fire", "slo", now, kPidSlo, i,
                        {{"slo", spec.name},
                         {"fast_burn", JsonNumber(state.fast_burn)},
                         {"slow_burn", JsonNumber(state.slow_burn)}});
      }
    } else if (!should_fire && state.firing) {
      state.firing = false;
      alerts_[state.active_alert].resolved_at = now;
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->Instant("slo-clear", "slo", now, kPidSlo, i, {{"slo", spec.name}});
      }
    }
    state.cells.firing->Set(state.firing ? 1.0 : 0.0);
  }
  last_eval_ = now;
  evaluated_once_ = true;
}

double SloMonitor::worst_burn() const {
  double worst = 0.0;
  for (const SloState& state : states_) {
    worst = std::max(worst, state.worst_slow_burn);
  }
  return worst;
}

std::string SloMonitor::HealthJson(SimTime now) const {
  std::string out = "{\"sim_time_us\": " + std::to_string(now);
  out += ", \"worst_burn\": " + JsonNumber(worst_burn());
  out += ", \"alerts_fired\": " + std::to_string(alerts_.size());
  out += ", \"slos\": [";
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    const SloState& state = states_[i];
    if (i != 0) {
      out += ",";
    }
    out += "\n  {\"name\": \"" + JsonEscape(spec.name) + "\"";
    if (spec.type == SloSpec::Type::kLatency) {
      out += ", \"type\": \"latency\", \"series\": \"" + JsonEscape(spec.series) + "\"";
      out += ", \"quantile\": " + JsonNumber(spec.quantile);
      out += ", \"target_ms\": " + JsonNumber(spec.target_ms);
    } else {
      out += ", \"type\": \"rate\", \"numerator\": \"" + JsonEscape(spec.numerator) + "\"";
      out += ", \"denominator\": \"" + JsonEscape(spec.denominator) + "\"";
    }
    out += ", \"budget\": " + JsonNumber(spec.budget);
    out += ", \"fast_burn\": " + JsonNumber(state.fast_burn);
    out += ", \"slow_burn\": " + JsonNumber(state.slow_burn);
    out += ", \"worst_fast_burn\": " + JsonNumber(state.worst_fast_burn);
    out += ", \"worst_slow_burn\": " + JsonNumber(state.worst_slow_burn);
    out += ", \"alerts\": " + std::to_string(state.fired_count);
    out += ", \"firing\": ";
    out += state.firing ? "true" : "false";
    out += "}";
  }
  out += "\n], \"alerts\": [";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const SloAlert& alert = alerts_[i];
    if (i != 0) {
      out += ",";
    }
    out += "\n  {\"slo\": \"" + JsonEscape(alert.slo) + "\"";
    out += ", \"fired_at_us\": " + std::to_string(alert.fired_at);
    out += ", \"resolved_at_us\": " + std::to_string(alert.resolved_at);
    out += ", \"fast_burn\": " + JsonNumber(alert.fast_burn);
    out += ", \"slow_burn\": " + JsonNumber(alert.slow_burn) + "}";
  }
  out += "\n], \"breaker\": {\"opens\": " +
         std::to_string(registry_->CounterTotal("ofc.breaker.opens"));
  out += ", \"open_time_us\": " + JsonNumber(registry_->GaugeValue("ofc.breaker.open_time_us"));
  out += "}, \"shed\": {\"total\": " +
         std::to_string(registry_->CounterTotal("ofc.overload.shed"));
  out += ", \"queue_full\": " +
         std::to_string(registry_->CounterValue("ofc.overload.shed", "queue_full"));
  out += ", \"deadline\": " +
         std::to_string(registry_->CounterValue("ofc.overload.shed", "deadline"));
  out += "}, \"invocations\": {\"total\": " +
         std::to_string(registry_->CounterTotal("ofc.platform.invocations"));
  out += ", \"failed\": " +
         std::to_string(registry_->CounterTotal("ofc.platform.failed_invocations"));
  out += "}}\n";
  return out;
}

}  // namespace ofc::obs
