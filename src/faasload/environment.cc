#include "src/faasload/environment.h"

namespace ofc::faasload {

std::string ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOwkSwift:
      return "OWK-Swift";
    case Mode::kOwkRedis:
      return "OWK-Redis";
    case Mode::kOfc:
      return "OFC";
  }
  return "unknown";
}

Environment::Environment(Mode mode, EnvironmentOptions options) : mode_(mode) {
  metrics_ = options.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  obs::TraceRecorder* trace = options.trace;
  if (trace == nullptr) {
    owned_trace_ = std::make_unique<obs::TraceRecorder>();  // Disabled by default.
    trace = owned_trace_.get();
  }
  flight_ = options.flight;
  if (flight_ == nullptr) {
    owned_flight_ = std::make_unique<obs::FlightRecorder>();  // Disabled by default.
    flight_ = owned_flight_.get();
  }
  // One lifecycle stream, two sinks: every component reports into flight_,
  // which draws the traced kinds into the trace.
  flight_->set_trace(trace);

  Rng rng(options.seed);
  const store::StoreProfile profile = options.rsds_profile.value_or(
      mode == Mode::kOwkRedis ? store::StoreProfile::Redis() : store::StoreProfile::Swift());
  rsds_ = std::make_unique<store::ObjectStore>(
      &loop_, profile, rng.Fork(), mode == Mode::kOwkRedis ? "redis" : "swift", metrics_);

  faas::PlatformOptions platform_options = options.platform;
  platform_options.metrics = metrics_;
  platform_options.flight = flight_;

  if (mode == Mode::kOfc) {
    // One RAMCloud storage server per invoker node (§6.1).
    rc::ClusterOptions cluster_options = options.cluster;
    cluster_options.default_capacity = 0;  // The CacheAgent sets real targets.
    cluster_options.metrics = metrics_;
    cluster_options.flight = flight_;
    cluster_ = std::make_unique<rc::Cluster>(&loop_, options.platform.num_workers,
                                             cluster_options, rng.Fork());
    core::OfcOptions ofc_options = options.ofc;
    ofc_options.cache_agent.worker_memory = options.platform.worker_memory;
    ofc_options.metrics = metrics_;
    ofc_options.flight = flight_;
    ofc_ = std::make_unique<core::OfcSystem>(&loop_, cluster_.get(), rsds_.get(), ofc_options);
    platform_ = std::make_unique<faas::Platform>(&loop_, platform_options,
                                                 ofc_->data_service(), ofc_->hooks(),
                                                 rng.Fork());
    ofc_->Start();
    trace->SetProcessName(obs::kPidCache, "cache-agent");
    trace->SetProcessName(obs::kPidStore, "rsds-writeback");
  } else {
    direct_ = std::make_unique<faas::DirectDataService>(rsds_.get());
    platform_ = std::make_unique<faas::Platform>(&loop_, platform_options, direct_.get(),
                                                 /*hooks=*/nullptr, rng.Fork());
  }
  trace->SetProcessName(obs::kPidInvocations, "invocations");
  trace->SetProcessName(obs::kPidPipelines, "pipelines");
}

}  // namespace ofc::faasload
