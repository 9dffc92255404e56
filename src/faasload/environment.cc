#include "src/faasload/environment.h"

#include <algorithm>
#include <utility>

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

Environment::Environment(Mode mode, EnvironmentOptions options)
    : mode_(mode), metrics_(options.metrics) {
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
      &loop_, profile, rng.Fork(), mode == Mode::kOwkRedis ? "redis" : "swift", metrics_.get());

  faas::PlatformOptions platform_options = options.platform;
  platform_options.metrics = metrics_.get();
  platform_options.flight = flight_;

  if (mode == Mode::kOfc) {
    // One RAMCloud storage server per invoker node (§6.1).
    rc::ClusterOptions cluster_options = options.cluster;
    cluster_options.default_capacity = 0;  // The CacheAgent sets real targets.
    cluster_options.metrics = metrics_.get();
    cluster_options.flight = flight_;
    cluster_ = std::make_unique<rc::Cluster>(&loop_, options.platform.num_workers,
                                             cluster_options, rng.Fork());
    core::OfcOptions ofc_options = options.ofc;
    ofc_options.cache_agent.worker_memory = options.platform.worker_memory;
    ofc_options.metrics = metrics_.get();
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

fault::FaultInjector& Environment::faults() {
  if (faults_ == nullptr) {
    fault::FaultInjectorTargets targets{platform_.get(), cluster_.get(), rsds_.get(),
                                        ofc_ != nullptr ? &ofc_->proxy() : nullptr};
    faults_ = std::make_unique<fault::FaultInjector>(
        &loop_, targets, fault::FaultInjectorOptions{metrics_.get(), flight_});
    trace().SetProcessName(obs::kPidFaults, "fault-injector");
  }
  return *faults_;
}

Result<core::Scrubber*> Environment::StartScrubber(core::ScrubberOptions options) {
  if (cluster_ == nullptr) {
    return FailedPreconditionError("the scrubber needs a cache cluster (OFC mode)");
  }
  options.metrics = metrics_.get();
  scrubber_ = std::make_unique<core::Scrubber>(&loop_, cluster_.get(), rsds_.get(), options);
  scrubber_->Start();
  return scrubber_.get();
}

void Environment::StartTelemetry(SimDuration interval, std::vector<obs::SloSpec> slos) {
  slo_ = std::make_unique<obs::SloMonitor>(metrics_.get(), &trace(), std::move(slos));
  timeline_ = std::make_unique<obs::TimelineRecorder>(metrics_.get());
  scraper_ = std::make_unique<sim::PeriodicTask>(&loop_, interval, [this](SimTime now) {
    slo_->Evaluate(now);
    timeline_->Scrape(now);
  });
  scraper_->Start();
}

RunArtifacts Environment::Finish(const std::string& flight_reason) {
  const SimTime now = loop_.now();
  if (scrubber_ != nullptr) {
    scrubber_->Stop();
  }
  RunArtifacts run;
  if (scraper_ != nullptr) {
    scraper_->Stop();
    slo_->Evaluate(now);
    timeline_->Scrape(now);
    run.timeline_json = timeline_->ToJson();
    run.health_json = slo_->HealthJson(now);
  }
  run.metrics_json = metrics_->SnapshotJson(now);
  if (flight_->enabled()) {
    run.flight_json = flight_->ToJson(flight_reason);
  }
  run.final_time = now;
  run.events_scheduled = loop_.total_scheduled();
  run.invocations = platform_->stats().invocations;
  return run;
}

std::vector<std::string> RunArtifacts::Diff(const RunArtifacts& other) const {
  std::vector<std::string> out;
  const auto count = [&out](const char* what, auto a, auto b, const char* unit) {
    if (a != b) {
      out.push_back(std::string(what) + " diverged: " + std::to_string(a) + " vs " +
                    std::to_string(b) + unit);
    }
  };
  count("final sim time", final_time, other.final_time, " us");
  count("event count", events_scheduled, other.events_scheduled, "");
  count("invocation count", invocations, other.invocations, "");
  const std::pair<const char*, std::string RunArtifacts::*> artifacts[] = {
      {"metrics JSON", &RunArtifacts::metrics_json},
      {"timeline JSON", &RunArtifacts::timeline_json},
      {"health JSON", &RunArtifacts::health_json},
      {"flight JSON", &RunArtifacts::flight_json},
  };
  for (const auto& [what, field] : artifacts) {
    const std::string& a = this->*field;
    const std::string& b = other.*field;
    if (a != b) {
      // Point at the first differing line to make the divergence debuggable.
      const auto end = a.begin() + static_cast<std::ptrdiff_t>(std::min(a.size(), b.size()));
      const auto at = std::mismatch(a.begin(), end, b.begin()).first;
      out.push_back(std::string(what) + " diverged at line " +
                    std::to_string(1 + std::count(a.begin(), at, '\n')) + " (byte " +
                    std::to_string(at - a.begin()) + ")");
    }
  }
  return out;
}

}  // namespace ofc::faasload
