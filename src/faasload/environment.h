// Experiment environments: the three configurations compared throughout §7.
//
//   * kOwkSwift — vanilla OpenWhisk, all data in the Swift RSDS (worst case);
//   * kOwkRedis — vanilla OpenWhisk, all data in a Redis IMOC (best case);
//   * kOfc      — OpenWhisk + OFC (RAMCloud cache, ML sizing, Swift RSDS).
//
// An Environment bundles the event loop, stores, cluster, OFC assembly and
// platform with consistent seeding so that benches construct them in one call.
// It is also the one place a run's optional parts are attached — the fault
// injector, the integrity scrubber and the telemetry scrape loop — and where
// what the run leaves behind is collected (Finish). ofc-sim, the chaos harness
// and the golden and determinism tests all run this one assembly.
#ifndef OFC_FAASLOAD_ENVIRONMENT_H_
#define OFC_FAASLOAD_ENVIRONMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/core/ofc_system.h"
#include "src/core/scrubber.h"
#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/fault/fault_injector.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/periodic.h"
#include "src/store/object_store.h"

namespace ofc::faasload {

enum class Mode { kOwkSwift, kOwkRedis, kOfc };

// The --mode spellings of ofc-sim and scale_stress.
inline constexpr FlagChoice<Mode> kModeChoices[] = {
    {"ofc", Mode::kOfc}, {"owk-swift", Mode::kOwkSwift}, {"owk-redis", Mode::kOwkRedis}};

std::string ModeName(Mode mode);

struct EnvironmentOptions {
  faas::PlatformOptions platform;
  rc::ClusterOptions cluster;
  core::OfcOptions ofc;
  std::uint64_t seed = 42;
  // Overrides the RSDS latency profile (default: Swift for kOwkSwift/kOfc,
  // Redis for kOwkRedis). The Figure 3 motivation experiment uses S3.
  std::optional<store::StoreProfile> rsds_profile;
  // Observability sinks injected into every layer (platform, cluster, OFC,
  // RSDS). Null `metrics` -> the environment owns a registry shared by all of
  // its components; null `flight` -> the environment owns a lifecycle stream
  // with its ring disabled (enable via flight().set_enabled(true)); null
  // `trace` -> the environment owns a disabled recorder (enable via
  // trace().set_enabled(true)). The trace is attached to the flight stream as
  // its second sink, so the components only ever see `flight`.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

// What a run leaves behind: every artifact a replay must reproduce byte for
// byte, plus the event loop's fingerprint.
struct RunArtifacts {
  std::string metrics_json;
  std::string timeline_json;  // Empty unless telemetry was started.
  std::string health_json;    // Empty unless telemetry was started.
  std::string flight_json;    // Empty unless the flight ring was on.
  SimTime final_time = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t invocations = 0;

  // One line per field that differs from `other` ("final sim time diverged:
  // 1 vs 2 us", "metrics JSON diverged at line 7 (byte 120)"); empty when the
  // two runs are identical.
  std::vector<std::string> Diff(const RunArtifacts& other) const;
};

class Environment {
 public:
  Environment(Mode mode, EnvironmentOptions options);
  // Detaches the trace it attached, so an injected flight recorder that
  // outlives the environment never points at an owned, destroyed trace.
  ~Environment() { flight_->set_trace(nullptr); }

  Mode mode() const { return mode_; }
  sim::EventLoop& loop() { return loop_; }
  store::ObjectStore& rsds() { return *rsds_; }
  faas::Platform& platform() { return *platform_; }
  // Null in baseline modes.
  rc::Cluster* cluster() { return cluster_.get(); }
  core::OfcSystem* ofc() { return ofc_.get(); }
  // The registry/recorder every component of this environment reports into.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  obs::TraceRecorder& trace() { return *flight_->trace(); }
  obs::FlightRecorder& flight() { return *flight_; }

  // ---- Optional parts. Each is built on first use, so a run that arms none
  // of them registers no metric cell for it.

  // The fault injector, wired to every target this mode has (the cluster and
  // proxy are null in the baseline modes, so plans addressing them reject),
  // the metrics and the flight stream; it names the fault-injector trace track.
  fault::FaultInjector& faults();
  // Starts the background integrity scrubber. It sweeps the cache cluster, so
  // it fails in the baseline modes. `options.metrics` is set here.
  Result<core::Scrubber*> StartScrubber(core::ScrubberOptions options);
  // Starts the telemetry scrape loop: every `interval` the SLOs are evaluated
  // first, so their ofc.slo.* cells land in the window the timeline scrape
  // then captures.
  void StartTelemetry(SimDuration interval, std::vector<obs::SloSpec> slos);
  // Null until StartTelemetry.
  obs::SloMonitor* slo() { return slo_.get(); }
  obs::TimelineRecorder* timeline() { return timeline_.get(); }

  // Stops the scrubber and the scrape loop, scrapes the final partial window
  // (the tail between the last tick and now) and collects the run's artifacts;
  // `flight_reason` heads the flight dump. The environment stays inspectable.
  RunArtifacts Finish(const std::string& flight_reason = "end_of_run");

 private:
  Mode mode_;
  sim::EventLoop loop_;
  obs::RegistryRef metrics_;
  std::unique_ptr<obs::TraceRecorder> owned_trace_;
  std::unique_ptr<obs::FlightRecorder> owned_flight_;
  obs::FlightRecorder* flight_ = nullptr;
  std::unique_ptr<store::ObjectStore> rsds_;
  std::unique_ptr<rc::Cluster> cluster_;
  std::unique_ptr<core::OfcSystem> ofc_;
  std::unique_ptr<faas::DirectDataService> direct_;
  std::unique_ptr<faas::Platform> platform_;
  // Optional parts, built on first use.
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<core::Scrubber> scrubber_;
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::TimelineRecorder> timeline_;
  std::unique_ptr<sim::PeriodicTask> scraper_;
};

}  // namespace ofc::faasload

#endif  // OFC_FAASLOAD_ENVIRONMENT_H_
