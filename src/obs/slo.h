// SloMonitor: declarative SLOs with multi-window burn-rate alerting.
//
// An SLO reduces to an error budget: a latency SLO "p99 of
// ofc.platform.total_ms <= 250ms" budgets 1% of requests over target; a rate
// SLO "ofc.overload.shed / ofc.platform.invocations <= 0.5%" budgets the ratio
// directly. At every telemetry scrape the monitor folds the scrape interval
// into per-SLO (bad, total) windows and computes burn rates — the fraction of
// budget consumed per unit time, normalized so burn = 1 means "exactly on
// budget" — over a fast and a slow lookback window. An alert fires only when
// BOTH exceed their thresholds (the Google SRE multi-window multi-burn-rate
// recipe: the fast window gives responsiveness, the slow window suppresses
// blips), and clears when either falls back under.
//
// Spec grammar (CLI `--slo=SPEC;SPEC;...` or `--slo=@file`, one spec per line,
// `#` comments):
//   [name=]lat:<series>:p<Q>:<target_ms>[:fast=S][:slow=S][:fastburn=F][:slowburn=F]
//   [name=]rate:<numerator>/<denominator>:<budget>[:fast=S][:slow=S][...]
// e.g.  warm=lat:ofc.platform.total_ms:p99:250:fast=60:slow=600
//       shed=rate:ofc.overload.shed/ofc.platform.invocations:0.005
// Defaults: fast=60s slow=600s fastburn=14 slowburn=6.
//
// Outputs: `ofc.slo.*` metric cells (created eagerly at construction so
// exports are stable whether or not alerts fire), instants on the kPidSlo
// trace track, structured alert records, and an end-of-run HealthJson summary
// (worst burns, alerts fired, breaker open time, shed totals).
#ifndef OFC_OBS_SLO_H_
#define OFC_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ofc::obs {

struct SloSpec {
  enum class Type { kLatency, kRate };
  std::string name;
  Type type = Type::kLatency;
  // kLatency: observations of `series` above `target_ms` spend budget 1 - q.
  std::string series;
  double quantile = 0.99;
  double target_ms = 0.0;
  // kRate: counter-delta ratio numerator/denominator against `budget`.
  std::string numerator;
  std::string denominator;
  double budget = 0.01;  // For kLatency this is derived as 1 - quantile.
  // Burn-rate windows and thresholds.
  double fast_window_s = 60.0;
  double slow_window_s = 600.0;
  double fast_burn_threshold = 14.0;
  double slow_burn_threshold = 6.0;
};

// Parses `;`/newline-separated specs; lines starting with '#' are skipped.
// Returns false and sets *error on malformed input.
bool ParseSloSpecs(const std::string& text, std::vector<SloSpec>* specs, std::string* error);

struct SloAlert {
  std::string slo;
  SimTime fired_at = 0;
  SimTime resolved_at = 0;  // 0 = still firing at end of run.
  double fast_burn = 0.0;   // Burn rates at fire time.
  double slow_burn = 0.0;
};

// Each SLO's metrics, labelled with the SLO's name: X(kind, cell, registry
// family). See "Metric lists" in src/obs/metrics.h.
#define OFC_SLO_METRICS(X)                                   \
  X(COUNTER, alerts, "ofc.slo.alerts")                       \
  X(GAUGE, burn_fast, "ofc.slo.burn_fast")                   \
  X(GAUGE, burn_slow, "ofc.slo.burn_slow")                   \
  X(GAUGE, firing, "ofc.slo.firing") /* 1 while alerting. */

class SloMonitor {
 public:
  // `registry` must outlive the monitor; `trace` may be null. Metric cells for
  // every spec are created here so snapshot layout does not depend on whether
  // alerts fire.
  SloMonitor(MetricsRegistry* registry, TraceRecorder* trace, std::vector<SloSpec> specs);
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  // Folds the interval since the previous call into each SLO's windows and
  // re-evaluates burn rates + alert state. Call once per telemetry scrape,
  // before the timeline scrape so `ofc.slo.*` gauges land in the same window.
  void Evaluate(SimTime now);

  const std::vector<SloSpec>& specs() const { return specs_; }
  const std::vector<SloAlert>& alerts() const { return alerts_; }
  std::uint64_t alerts_fired() const { return alerts_.size(); }
  // Worst slow-window burn observed across all SLOs and scrapes.
  double worst_burn() const;

  // End-of-run health summary: per-SLO burn peaks and alert counts, alert
  // records, plus platform-health counters (breaker open time, shed totals).
  std::string HealthJson(SimTime now) const;

 private:
  struct WindowSample {
    SimTime start = 0;
    SimTime end = 0;
    double bad = 0.0;
    double total = 0.0;
  };
  struct SloState {
    std::deque<WindowSample> windows;
    // Per-cell progress markers ("name\0label" keyed) for interval extraction.
    std::map<std::string, std::uint64_t> prev_counter;
    std::map<std::string, std::size_t> prev_stored;
    bool firing = false;
    std::size_t active_alert = 0;  // Index into alerts_ while firing.
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    double worst_fast_burn = 0.0;
    double worst_slow_burn = 0.0;
    std::uint64_t fired_count = 0;
    struct Cells {
      OFC_METRIC_CELLS(OFC_SLO_METRICS)
    };
    Cells cells;  // Bound at construction.
  };

  WindowSample Collect(const SloSpec& spec, SloState* state, SimTime start, SimTime end);
  static double BurnOver(const SloState& state, double window_s, double budget, SimTime now);

  MetricsRegistry* registry_;
  TraceRecorder* trace_;
  std::vector<SloSpec> specs_;
  std::vector<SloState> states_;
  std::vector<SloAlert> alerts_;
  SimTime last_eval_ = 0;
  bool evaluated_once_ = false;
};

}  // namespace ofc::obs

#endif  // OFC_OBS_SLO_H_
