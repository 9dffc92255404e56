// ofc_sim: command-line experiment runner.
//
// Runs a configurable multi-tenant workload against OWK-Swift, OWK-Redis, or
// OFC and prints per-tenant latency summaries plus OFC's internal counters —
// the quickest way to explore the system without writing code.
//
// FlagTable() below is the only declaration of the flags: Main() parses argv
// through its rows, --help prints them, and tools/gen_cli_docs.py renders them
// into docs/cli.md.
//
// Examples:
//   ofc_sim --mode=ofc --functions=wand_blur,wand_edge --duration-min=10
//   ofc_sim --mode=owk-swift --pipelines=map_reduce --interval-s=30
//   ofc_sim --mode=ofc --trace-json=trace.json   # open in ui.perfetto.dev
//   ofc_sim --timeline-json=tl.json --scrape-interval-s=10   # windowed telemetry
//   ofc_sim --slo='warm=lat:ofc.platform.total_ms:p99:250' --health-json=health.json
//   ofc_sim --flight-recorder --dump-on-assert=blackbox.json # post-mortem ring
//   ofc_sim --fault-plan=chaos.json              # replay a declarative fault plan
//   ofc_sim --crash-node-at=1:60:30              # crash node 1 at t=60s for 30s
//   ofc_sim --fault-plan=rot.json --scrub-interval-s=5   # corruption + scrubbing
//   ofc_sim --selfcheck-determinism              # replay twice, diff metrics
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/sim_assert.h"
#include "src/common/stats.h"
#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/export_util.h"
#include "src/obs/slo.h"
#include "src/sim/periodic.h"

namespace ofc {
namespace {

constexpr FlagChoice<faasload::TenantProfile> kProfileChoices[] = {
    {"normal", faasload::TenantProfile::kNormal},
    {"naive", faasload::TenantProfile::kNaive},
    {"advanced", faasload::TenantProfile::kAdvanced}};

constexpr FlagChoice<faasload::ArrivalPattern> kArrivalChoices[] = {
    {"poisson", faasload::ArrivalPattern::kExponential},
    {"periodic", faasload::ArrivalPattern::kPeriodic},
    {"bursty", faasload::ArrivalPattern::kBursty}};

// What the flags set. FlagTable() binds each field, and its help text says what
// the field does; a zero duration, count or capacity means off or unbounded.
// The stack's settings bind straight into `env`, except the worker memory,
// which --worker-gb gives in GiB.
struct Flags {
  faasload::EnvironmentOptions env;
  faasload::Mode mode = faasload::Mode::kOfc;
  faasload::TenantProfile profile = faasload::TenantProfile::kNormal;
  std::vector<std::string> functions;
  std::vector<std::string> pipelines;
  faasload::ArrivalPattern arrivals = faasload::ArrivalPattern::kExponential;
  int duration_min = 10;
  SimDuration interval = Seconds(30);
  int worker_gb = 16;
  int pretrain = 1000;
  std::string metrics_json;
  std::string metrics_csv;
  std::string trace_json;
  std::uint64_t trace_sample = 1;
  bool log_sim_time = false;
  SimDuration scrape_interval = Seconds(10);
  std::string timeline_json;
  std::vector<obs::SloSpec> slo_specs;
  std::string health_json;
  std::size_t flight_capacity = 0;
  std::string flight_json;
  std::string dump_on_assert;
  SimTime inject_breach_at = 0;
  fault::FaultPlan fault_plan;
  SimDuration scrub_interval = 0;
  bool progress = false;
  std::uint64_t max_events = 0;
  bool selfcheck = false;
  bool selfcheck_perturb = false;
};

// Reads `path` fully into `*out`; returns false (with a message) on failure.
bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// --crash-node-at=N:S[:D] — crash node N at S seconds, restart after D seconds
// (D omitted or 0: the node stays down). Each use adds one event to `plan`.
FlagBinder CrashNodeAtFlag(fault::FaultPlan* plan) {
  return [plan](const char* flag, const std::string* value) {
    const std::vector<std::string> fields = Split(*value, ':');
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kNodeCrash;
    const bool ok =
        (fields.size() == 2 || fields.size() == 3) &&
        ParseNumber("--crash-node-at N", fields[0], 0, &event.target) &&
        ParseDuration("--crash-node-at S", fields[1], Seconds(1), &event.at) &&
        (fields.size() == 2 ||
         ParseDuration("--crash-node-at D", fields[2], Seconds(1), &event.duration));
    if (!ok) {
      std::fprintf(stderr, "bad %s=%s (want N:S[:D])\n", flag, value->c_str());
      return false;
    }
    plan->events.push_back(event);
    return true;
  };
}

// --fault-plan=PATH: each use adds the file's events to `plan`.
FlagBinder FaultPlanFlag(fault::FaultPlan* plan) {
  return [plan](const char* flag, const std::string* value) {
    std::string body;
    if (!ReadFile(*value, &body)) {
      return false;
    }
    const auto parsed = fault::ParseFaultPlanJson(body);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s=%s: %s\n", flag, value->c_str(),
                   parsed.status().message().c_str());
      return false;
    }
    plan->events.insert(plan->events.end(), parsed->events.begin(), parsed->events.end());
    return true;
  };
}

// --slo=SPEC;...|@FILE: each use adds its specs to `specs`.
FlagBinder SloFlag(std::vector<obs::SloSpec>* specs) {
  return [specs](const char* flag, const std::string* value) {
    std::string text = *value;
    if (!text.empty() && text[0] == '@') {
      text.clear();
      if (!ReadFile(value->substr(1), &text)) {
        return false;
      }
    }
    std::string error;
    if (!obs::ParseSloSpecs(text, specs, &error)) {
      std::fprintf(stderr, "%s: %s\n", flag, error.c_str());
      return false;
    }
    return true;
  };
}

// --flight-recorder arms the default 4096-event ring; --flight-recorder=N
// sizes it.
FlagBinder FlightRecorderFlag(std::size_t* capacity) {
  return [capacity](const char* flag, const std::string* value) {
    if (value == nullptr) {
      *capacity = 4096;
      return true;
    }
    return ParseNumber(flag, *value, std::size_t{1}, capacity);
  };
}

// ofc-sim's flags, bound to `f`.
std::vector<FlagRow> FlagTable(Flags* f) {
  // FLAG-TABLE-BEGIN (parsed by tools/gen_cli_docs.py; keep one row per line)
  return {
    {"Scenario", "--mode=ofc|owk-swift|owk-redis", "System under test: OFC, or the vanilla OpenWhisk baselines against Swift/Redis (default ofc).", ChoiceFlag(&f->mode, faasload::kModeChoices)},
    {"Scenario", "--profile=normal|naive|advanced", "Tenant memory-booking profile: honest, 2x over-booked, or finely tuned (default normal).", ChoiceFlag(&f->profile, kProfileChoices)},
    {"Scenario", "--functions=f1,f2,...", "Comma-separated function tenants (default wand_blur,wand_sepia,wand_edge; see `available functions` in --help).", ListFlag(&f->functions)},
    {"Scenario", "--pipelines=p1,...", "Comma-separated pipeline tenants (see `available pipelines` in --help).", ListFlag(&f->pipelines)},
    {"Scenario", "--arrivals=poisson|periodic|bursty", "Inter-arrival process per tenant (default poisson).", ChoiceFlag(&f->arrivals, kArrivalChoices)},
    {"Scenario", "--duration-min=N", "Simulated run length in minutes (default 10).", NumberFlag(&f->duration_min, 1)},
    {"Scenario", "--interval-s=N", "Mean inter-arrival interval per tenant in seconds (default 30).", DurationFlag(&f->interval, Seconds(1), /*above=*/true)},
    {"Scenario", "--workers=N", "Number of worker nodes (default 4).", NumberFlag(&f->env.platform.num_workers, 1)},
    {"Scenario", "--worker-gb=N", "Memory per worker in GiB (default 16).", NumberFlag(&f->worker_gb, 1)},
    {"Scenario", "--seed=N", "Root RNG seed; same seed + same flags = byte-identical run (default 42).", NumberFlag(&f->env.seed, 0)},
    {"Scenario", "--pretrain=N", "Offline pretraining invocations per function before the run (default 1000).", NumberFlag(&f->pretrain, 0)},
    {"Observability", "--metrics-json=PATH", "Write the end-of-run metrics snapshot as JSON.", PathFlag(&f->metrics_json)},
    {"Observability", "--metrics-csv=PATH", "Write the end-of-run metrics snapshot as CSV (one row per cell).", PathFlag(&f->metrics_csv)},
    {"Observability", "--trace-json=PATH", "Record Chrome trace-event JSON of invocation/control-plane spans (open in ui.perfetto.dev).", PathFlag(&f->trace_json)},
    {"Observability", "--trace-sample=N", "With --trace-json: record every Nth invocation id (default 1 = all).", NumberFlag(&f->trace_sample, 1)},
    {"Observability", "--log-sim-time", "Prefix every log line with the simulated clock (t=<seconds>s).", SwitchFlag(&f->log_sim_time)},
    {"Observability", "--scrape-interval-s=S", "Telemetry scrape period for the timeline/SLO loop (default 10).", DurationFlag(&f->scrape_interval, Seconds(1), /*above=*/true)},
    {"Observability", "--timeline-json=PATH", "Write windowed counter/gauge/series snapshots scraped on the sim clock.", PathFlag(&f->timeline_json)},
    {"Observability", "--slo=SPEC;...|@FILE", "SLO burn-rate specs (name=lat:metric:pN:ms or name=rate:num/den:frac), inline or @file.", SloFlag(&f->slo_specs)},
    {"Observability", "--health-json=PATH", "Write the SLO health summary (worst burn, alerts) at end of run.", PathFlag(&f->health_json)},
    {"Observability", "--flight-recorder[=N]", "Arm the black-box event ring (default capacity 4096; =N sizes it).", FlightRecorderFlag(&f->flight_capacity)},
    {"Observability", "--flight-json=PATH", "Dump the flight-recorder ring to PATH at end of run.", PathFlag(&f->flight_json)},
    {"Observability", "--dump-on-assert=PATH", "Dump the flight-recorder ring to PATH when a SIM_ASSERT fires.", PathFlag(&f->dump_on_assert)},
    {"Fault injection", "--fault-plan=PATH", "Replay a declarative JSON fault schedule alongside the workload.", FaultPlanFlag(&f->fault_plan)},
    {"Fault injection", "--crash-node-at=N:S[:D]", "Crash node N at S seconds, restart after D seconds (omitted/0 = stays down).", CrashNodeAtFlag(&f->fault_plan)},
    {"Fault injection", "--scrub-interval-s=S", "Arm the background integrity scrubber with the given period (OFC mode only).", DurationFlag(&f->scrub_interval, Seconds(1), /*above=*/true)},
    {"Overload protection", "--queue-limit=N", "Platform admission queue depth bound (0 = unbounded).", NumberFlag(&f->env.platform.max_queue_depth, 0)},
    {"Overload protection", "--queue-deadline-s=S", "Shed queued invocations older than S seconds (0 = never).", DurationFlag(&f->env.platform.queue_deadline, Seconds(1))},
    {"Overload protection", "--max-concurrency=N", "Per-function concurrent invocation cap (0 = unbounded).", NumberFlag(&f->env.platform.max_concurrency_per_function, 0)},
    {"Overload protection", "--breaker-threshold=N", "Cache-path circuit breaker: open after N consecutive failures (0 = disabled).", NumberFlag(&f->env.ofc.proxy.breaker_failure_threshold, 0)},
    {"Overload protection", "--breaker-open-s=S", "Breaker open-state duration before half-open probing (default 5).", DurationFlag(&f->env.ofc.proxy.breaker_open_duration, Seconds(1))},
    {"Overload protection", "--breaker-probes=N", "Successful half-open probes required to close the breaker (default 3).", NumberFlag(&f->env.ofc.proxy.breaker_half_open_probes, 1)},
    {"Overload protection", "--breaker-slo-ms=MS", "Treat cache reads slower than MS as breaker failures (0 = latency ignored).", DurationFlag(&f->env.ofc.proxy.breaker_latency_slo, Millis(1))},
    {"Run guards", "--progress", "Print a liveness heartbeat to stderr every tenth of the horizon.", SwitchFlag(&f->progress)},
    {"Run guards", "--max-events=N", "Cap the event loop's dispatch budget; a runaway run truncates instead of spinning.", NumberFlag(&f->max_events, 1)},
    {"Self-checks", "--selfcheck-determinism", "Replay the scenario twice (perturbed hash salt) and diff all artifacts; nonzero exit on divergence.", SwitchFlag(&f->selfcheck)},
    {"Self-checks", "--selfcheck-perturb", "Test hook: leak the replay index into the seed so the selfcheck must fail.", SwitchFlag(&f->selfcheck_perturb)},
    {"Self-checks", "--inject-breach-at=S", "Test hook: fire a deliberate SIM_ASSERT at S seconds (proves --dump-on-assert works).", DurationFlag(&f->inject_breach_at, Seconds(1))},
  };
  // FLAG-TABLE-END
}

// The names --functions and --pipelines accept; ends the usage message.
std::string Catalog() {
  std::string out = "\navailable functions:\n";
  for (const workloads::FunctionSpec& spec : workloads::AllFunctions()) {
    out += "  " + spec.name + "\n";
  }
  out += "available pipelines:\n";
  for (const workloads::PipelineSpec& spec : workloads::AllPipelines()) {
    out += "  " + spec.name + "\n";
  }
  return out;
}

// Runs the scenario described by `flags` once. `run_index` identifies the
// replay for the selfcheck harness; `quiet` suppresses the human-readable
// report. Returns 0 on success and fills `out`.
int RunScenario(const Flags& flags, bool quiet, std::uint64_t run_index,
                faasload::RunArtifacts* out) {
  faasload::EnvironmentOptions env_options = flags.env;
  env_options.platform.worker_memory = GiB(flags.worker_gb);
  // The deliberate bug behind --selfcheck-perturb: a replay-dependent seed.
  env_options.seed += flags.selfcheck_perturb ? run_index : 0;
  const std::uint64_t seed = env_options.seed;
  faasload::Environment env(flags.mode, env_options);
  if (!flags.trace_json.empty()) {
    env.trace().set_enabled(true);
    env.trace().set_sample_period(flags.trace_sample);
  }
  const bool flight_on = flags.flight_capacity > 0 || !flags.dump_on_assert.empty() ||
                         !flags.flight_json.empty();
  if (flight_on) {
    if (flags.flight_capacity > 0) {
      env.flight().set_capacity(flags.flight_capacity);
    }
    env.flight().set_enabled(true);
  }
  if (!flags.dump_on_assert.empty()) {
    // Post-mortem: when any SIM_ASSERT fires, dump the black-box ring before
    // the abort so the causal chain that led up to the breach survives.
    SetSimAssertHook([&env, path = flags.dump_on_assert](const std::string& message) {
      if (env.flight().WriteJson(path, message)) {
        std::fprintf(stderr, "flight recorder dumped to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    });
  }
  if (flags.log_sim_time) {
    // Prefix every log line with the simulated clock, e.g. "t=12.345s".
    SetLogPrefixHook([&env] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "t=%.3fs", ToSeconds(env.loop().now()));
      return std::string(buf);
    });
  }
  faasload::LoadInjector injector(&env, flags.profile, seed + 1);

  for (const std::string& function : flags.functions) {
    if (workloads::FindFunction(function) == nullptr) {
      std::fprintf(stderr, "unknown function: %s\n%s", function.c_str(), Catalog().c_str());
      return 2;
    }
    faasload::TenantSpec spec;
    spec.name = "t-" + function;
    spec.function = function;
    spec.mean_interval_s = ToSeconds(flags.interval);
    spec.arrivals = flags.arrivals;
    if (!injector.AddTenant(spec).ok()) {
      return 1;
    }
  }
  for (const std::string& pipeline : flags.pipelines) {
    if (workloads::FindPipeline(pipeline) == nullptr) {
      std::fprintf(stderr, "unknown pipeline: %s\n%s", pipeline.c_str(), Catalog().c_str());
      return 2;
    }
    faasload::TenantSpec spec;
    spec.name = "t-" + pipeline;
    spec.function = pipeline;
    spec.is_pipeline = true;
    spec.mean_interval_s = ToSeconds(flags.interval);
    spec.arrivals = flags.arrivals;
    if (!injector.AddTenant(spec).ok()) {
      return 1;
    }
  }

  if (!flags.fault_plan.empty()) {
    if (Status scheduled = env.faults().Schedule(flags.fault_plan); !scheduled.ok()) {
      std::fprintf(stderr, "fault plan: %s\n", scheduled.message().c_str());
      return 1;
    }
  }
  if (flags.scrub_interval > 0 &&
      !env.StartScrubber(core::ScrubberOptions{.interval = flags.scrub_interval}).ok()) {
    std::fprintf(stderr, "--scrub-interval-s needs a cache cluster (--mode=ofc)\n");
    return 1;
  }
  if (!flags.timeline_json.empty() || !flags.health_json.empty() ||
      !flags.slo_specs.empty()) {
    env.StartTelemetry(flags.scrape_interval, flags.slo_specs);
  }

  if (flags.inject_breach_at > 0) {
    env.loop().ScheduleAt(flags.inject_breach_at, [&env] {
      SIM_ASSERT(false) << "; injected invariant breach (--inject-breach-at) at t="
                        << ToSeconds(env.loop().now()) << "s";
    });
  }

  injector.PretrainModels(flags.pretrain);
  if (!quiet) {
    std::printf("mode=%s profile=%s workers=%dx%dGiB duration=%dmin seed=%llu\n\n",
                faasload::ModeName(flags.mode).c_str(),
                faasload::TenantProfileName(flags.profile).c_str(),
                env_options.platform.num_workers, flags.worker_gb, flags.duration_min,
                static_cast<unsigned long long>(seed));
    if (!flags.fault_plan.empty()) {
      std::printf("fault plan: %zu events: %s\n\n", flags.fault_plan.size(),
                  fault::FaultPlanToJson(flags.fault_plan).c_str());
    }
  }
  // Progress heartbeat: a sim-clock timer reporting liveness every tenth of
  // the horizon. Goes to stderr so it never pollutes piped table output.
  std::unique_ptr<sim::PeriodicTask> progress;
  if (flags.progress && !quiet) {
    const SimDuration horizon = Minutes(flags.duration_min);
    const SimDuration step = horizon >= 10 ? horizon / 10 : SimDuration{1};
    progress = std::make_unique<sim::PeriodicTask>(
        &env.loop(), step, [&env, &injector](SimTime now) {
          std::fprintf(stderr,
                       "progress: t=%.1fs fired=%llu completed=%llu events=%llu\n",
                       ToSeconds(now),
                       static_cast<unsigned long long>(injector.invocations_fired()),
                       static_cast<unsigned long long>(injector.invocations_completed()),
                       static_cast<unsigned long long>(env.loop().total_dispatched()));
        });
    progress->Start();
  }
  if (flags.max_events > 0) {
    env.loop().set_dispatch_budget(flags.max_events);
  }
  injector.Run(Minutes(flags.duration_min));
  if (progress != nullptr) {
    progress->Stop();
  }
  const bool budget_hit = env.loop().dispatch_budget_exhausted();
  if (budget_hit) {
    std::fprintf(stderr,
                 "note: --max-events budget (%llu) exhausted at t=%.1fs; "
                 "run truncated (%llu invocations still in flight)\n",
                 static_cast<unsigned long long>(flags.max_events),
                 ToSeconds(env.loop().now()),
                 static_cast<unsigned long long>(injector.invocations_fired() -
                                                 injector.invocations_completed()));
  }
  *out = env.Finish();

  if (!quiet) {
    std::printf("%-24s %-7s %-12s %-12s %-12s %-9s\n", "tenant", "runs", "median (ms)",
                "p95 (ms)", "total (s)", "failures");
    for (const faasload::TenantResult& tenant : injector.results()) {
      Samples latencies;
      for (const auto& record : tenant.invocations) {
        latencies.Add(ToMillis(record.total));
      }
      for (const auto& record : tenant.pipelines) {
        latencies.Add(ToMillis(record.total));
      }
      std::printf("%-24s %-7zu %-12.1f %-12.1f %-12.1f %-9zu\n", tenant.name.c_str(),
                  tenant.invocations.size() + tenant.pipelines.size(), latencies.Median(),
                  latencies.Percentile(0.95),
                  ToSeconds(tenant.TotalExecutionTime()), tenant.FailureCount());
    }

    if (env.ofc() != nullptr) {
      const auto& proxy = env.ofc()->proxy().stats();
      const auto& cache = env.ofc()->cache_agent().stats();
      const auto& predictions = env.ofc()->prediction_stats();
      std::printf("\nOFC internals:\n");
      std::printf("  hit ratio            %.1f %%\n", 100.0 * proxy.HitRatio());
      std::printf("  admissions           %llu (failed %llu)\n",
                  static_cast<unsigned long long>(proxy.admissions),
                  static_cast<unsigned long long>(proxy.admission_failures));
      std::printf("  persistor runs       %llu\n",
                  static_cast<unsigned long long>(proxy.persistor_runs));
      std::printf("  scale up/down        %llu / %llu\n",
                  static_cast<unsigned long long>(cache.scale_ups),
                  static_cast<unsigned long long>(cache.scale_downs_plain +
                                                  cache.scale_downs_migration +
                                                  cache.scale_downs_eviction));
      std::printf("  predictions          %llu model, %llu fallback, %llu bad\n",
                  static_cast<unsigned long long>(predictions.model_predictions),
                  static_cast<unsigned long long>(predictions.booked_fallbacks),
                  static_cast<unsigned long long>(predictions.bad_predictions));
      std::printf("  cache used/capacity  %s / %s\n",
                  FormatBytes(env.cluster()->TotalUsed()).c_str(),
                  FormatBytes(env.cluster()->TotalCapacity()).c_str());
      if (env_options.ofc.proxy.breaker_failure_threshold > 0) {
        std::printf("  breaker              %llu opens, %llu closes, "
                    "%llu bypassed reads, %llu bypassed writes\n",
                    static_cast<unsigned long long>(proxy.breaker_opens),
                    static_cast<unsigned long long>(proxy.breaker_closes),
                    static_cast<unsigned long long>(proxy.breaker_bypassed_reads),
                    static_cast<unsigned long long>(proxy.breaker_bypassed_writes));
      }
    }
    const auto& platform = env.platform().stats();
    std::printf("\nplatform: %llu invocations, %llu cold starts, %llu OOM kills, "
                "%llu rescues, %llu failures, %llu shed\n",
                static_cast<unsigned long long>(platform.invocations),
                static_cast<unsigned long long>(platform.cold_starts),
                static_cast<unsigned long long>(platform.oom_kills),
                static_cast<unsigned long long>(platform.oom_rescues),
                static_cast<unsigned long long>(platform.failed_invocations),
                static_cast<unsigned long long>(platform.shed_requests));
  }

  const obs::SloMonitor* slo = env.slo();
  if (!quiet && slo != nullptr && !slo->specs().empty()) {
    std::printf("\nSLOs: worst burn %.2f, %llu alert(s) fired\n", slo->worst_burn(),
                static_cast<unsigned long long>(slo->alerts_fired()));
    for (const obs::SloAlert& alert : slo->alerts()) {
      if (alert.resolved_at == 0) {
        std::printf("  %s fired at t=%.1fs (fast %.1f, slow %.1f) — still firing\n",
                    alert.slo.c_str(), ToSeconds(alert.fired_at), alert.fast_burn,
                    alert.slow_burn);
      } else {
        std::printf("  %s fired at t=%.1fs, cleared at t=%.1fs (fast %.1f, slow %.1f)\n",
                    alert.slo.c_str(), ToSeconds(alert.fired_at),
                    ToSeconds(alert.resolved_at), alert.fast_burn, alert.slow_burn);
      }
    }
  }

  bool ok = true;
  const struct {
    const std::string& path;
    std::string body;
  } artifacts[] = {
      {flags.metrics_json, out->metrics_json},
      {flags.metrics_csv,
       flags.metrics_csv.empty() ? "" : env.metrics().SnapshotCsv(env.loop().now())},
      {flags.timeline_json, out->timeline_json},
      {flags.health_json, out->health_json},
      {flags.flight_json, out->flight_json},
  };
  for (const auto& artifact : artifacts) {
    if (!artifact.path.empty() && !obs::WriteTextFile(artifact.path, artifact.body)) {
      std::fprintf(stderr, "cannot write %s\n", artifact.path.c_str());
      ok = false;
    }
  }
  if (!flags.trace_json.empty()) {
    if (!env.trace().WriteJson(flags.trace_json)) {
      std::fprintf(stderr, "cannot write %s\n", flags.trace_json.c_str());
      ok = false;
    } else if (!quiet) {
      std::printf("\ntrace: %zu events (%zu dropped) -> %s\n", env.trace().num_events(),
                  env.trace().num_dropped(), flags.trace_json.c_str());
    }
  }
  ClearSimAssertHook();  // The hook captures `env`, which dies with this frame.
  ClearLogPrefixHook();  // Likewise.
  return ok ? 0 : 1;
}

// Runs the scenario described by `flags` twice with the same seed and diffs
// everything observable. The second replay additionally perturbs the salted
// hash used by the simulator's unordered containers, so any bucket-order
// dependence that leaks into metrics shows up as a diff. `label` names the
// pair in the report. Exit: 0 identical, 1 divergence.
int SelfcheckPair(const Flags& flags, const char* label) {
  constexpr std::uint64_t kPerturbedSalt = 0x9e3779b97f4a7c15ull;
  faasload::RunArtifacts first;
  faasload::RunArtifacts second;

  SetHashSalt(0);
  int rc = RunScenario(flags, /*quiet=*/true, /*run_index=*/0, &first);
  if (rc != 0) {
    return rc;
  }
  SetHashSalt(kPerturbedSalt);
  rc = RunScenario(flags, /*quiet=*/true, /*run_index=*/1, &second);
  SetHashSalt(0);
  if (rc != 0) {
    return rc;
  }

  // Every artifact a replay can leave behind must be byte-identical: the
  // end-of-run metrics snapshot plus (when enabled) the windowed timeline, the
  // SLO health summary, and the flight-recorder ring.
  const std::vector<std::string> diffs = first.Diff(second);
  for (const std::string& diff : diffs) {
    std::fprintf(stderr, "selfcheck[%s]: %s\n", label, diff.c_str());
  }
  if (!diffs.empty()) {
    std::fprintf(stderr, "selfcheck-determinism[%s]: FAIL — replays diverged\n", label);
    return 1;
  }
  std::printf("selfcheck-determinism[%s]: OK — %llu events, %llu invocations, "
              "metrics identical across replays (hash salt perturbed)\n",
              label, static_cast<unsigned long long>(first.events_scheduled),
              static_cast<unsigned long long>(first.invocations));
  return 0;
}

// The selfcheck runs the configured scenario as one replay pair and — when the
// mode can host faults and the user didn't supply a plan — a second pair with
// a built-in chaos schedule, so the degradation and recovery paths are held to
// the same byte-identical-replay bar as the happy path.
int RunSelfcheck(const Flags& flags) {
  int rc = SelfcheckPair(flags, "base");
  if (rc != 0) {
    return rc;
  }
  if (flags.mode != faasload::Mode::kOfc || !flags.fault_plan.empty()) {
    return 0;
  }
  Flags chaos = flags;
  chaos.fault_plan.events = {
      {Seconds(40), fault::FaultKind::kStoreBrownout, -1, Seconds(30), 4.0},
      {Seconds(60), fault::FaultKind::kNodeCrash,
       flags.env.platform.num_workers > 1 ? 1 : 0, Seconds(20), 2.0},
      {Seconds(75), fault::FaultKind::kWorkerCrash, 0, Seconds(10), 2.0},
      {Seconds(90), fault::FaultKind::kPersistorDrop, -1, Seconds(15), 2.0},
  };
  rc = SelfcheckPair(chaos, "chaos");
  if (rc != 0) {
    return rc;
  }
  // Third pair: overload — bursty arrivals against bounded admission with the
  // breaker armed, the store browned out and the cache path degraded, so load
  // shedding and breaker transitions are also held to byte-identical replays.
  Flags overload = flags;
  overload.arrivals = faasload::ArrivalPattern::kBursty;
  overload.interval = std::min(flags.interval, Seconds(5));
  overload.env.platform.max_queue_depth = 8;
  overload.env.platform.queue_deadline = Seconds(2);
  overload.env.ofc.proxy.breaker_failure_threshold = 3;
  overload.env.ofc.proxy.breaker_open_duration = Seconds(10);
  overload.env.ofc.proxy.breaker_half_open_probes = 2;
  overload.fault_plan.events = {
      {Seconds(30), fault::FaultKind::kStoreBrownout, -1, Seconds(60), 4.0},
      {Seconds(45), fault::FaultKind::kCacheDegraded, -1, Seconds(40), 2.0},
  };
  rc = SelfcheckPair(overload, "overload");
  if (rc != 0) {
    return rc;
  }
  // Fourth pair: corruption — bit flips across the cache and the durable store
  // with the background scrubber on, so detection, self-healing reads, and
  // scrub repairs are also held to byte-identical replays.
  Flags corruption = flags;
  corruption.scrub_interval = Seconds(5);
  corruption.fault_plan.events = {
      {Seconds(30), fault::FaultKind::kCorruptSegment, 0, 0, 3.0},
      {Seconds(50), fault::FaultKind::kCorruptReplica,
       flags.env.platform.num_workers > 1 ? 1 : 0, 0, 3.0},
      {Seconds(70), fault::FaultKind::kStoreRot, -1, 0, 4.0},
  };
  return SelfcheckPair(corruption, "corruption");
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, FlagTable(&flags), Catalog())) {
    return 2;
  }
  if (flags.functions.empty() && flags.pipelines.empty()) {
    flags.functions = {"wand_blur", "wand_sepia", "wand_edge"};
  }
  flags.fault_plan.Sort();

  if (flags.selfcheck || flags.selfcheck_perturb) {
    return RunSelfcheck(flags);
  }
  faasload::RunArtifacts run;
  return RunScenario(flags, /*quiet=*/false, /*run_index=*/0, &run);
}

}  // namespace ofc

int main(int argc, char** argv) { return ofc::Main(argc, argv); }
