// Experiment environments: the three configurations compared throughout §7.
//
//   * kOwkSwift — vanilla OpenWhisk, all data in the Swift RSDS (worst case);
//   * kOwkRedis — vanilla OpenWhisk, all data in a Redis IMOC (best case);
//   * kOfc      — OpenWhisk + OFC (RAMCloud cache, ML sizing, Swift RSDS).
//
// An Environment bundles the event loop, stores, cluster, OFC assembly and
// platform with consistent seeding so that benches construct them in one call.
#ifndef OFC_FAASLOAD_ENVIRONMENT_H_
#define OFC_FAASLOAD_ENVIRONMENT_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/core/ofc_system.h"
#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
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

 private:
  Mode mode_;
  sim::EventLoop loop_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  std::unique_ptr<obs::TraceRecorder> owned_trace_;
  std::unique_ptr<obs::FlightRecorder> owned_flight_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::unique_ptr<store::ObjectStore> rsds_;
  std::unique_ptr<rc::Cluster> cluster_;
  std::unique_ptr<core::OfcSystem> ofc_;
  std::unique_ptr<faas::DirectDataService> direct_;
  std::unique_ptr<faas::Platform> platform_;
};

}  // namespace ofc::faasload

#endif  // OFC_FAASLOAD_ENVIRONMENT_H_
