// Million-invocation scale harness: drives the full OFC stack (platform +
// RAMCloud cache + ML sizing + RSDS) under a synthesized Azure-style
// multi-tenant trace and reports the simulator's own performance — wall-clock
// events/sec, invocations/sec, peak RSS, and per-phase time shares — as
// BENCH_scale.json.
//
// It also microbenchmarks the optimized sim::EventLoop against the checked-in
// pre-overhaul snapshot (bench/legacy_event_loop.h) on an identical synthetic
// event pattern, so the JSON carries both sides of the hot-path comparison
// (the README perf table's before/after column).
//
// Run `scale_stress --help` for the flags. The default 1M-invocation run
// finishes in minutes; CI's perf-smoke tier runs a downscaled
// --invocations=50000 pass and gates on tools/check_scale_bench.py against
// bench/scale_floor.json.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>  // simlint: allow(wall-clock) -- this bench measures the simulator's real throughput, not simulated time
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/legacy_event_loop.h"
#include "src/common/flags.h"
#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/obs/export_util.h"
#include "src/sim/event_loop.h"
#include "src/workloads/scale_trace.h"

namespace ofc {
namespace {

using WallClock = std::chrono::steady_clock;  // simlint: allow(wall-clock) -- harness self-timing

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();  // simlint: allow(wall-clock) -- harness self-timing
}

// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Flags {
  std::uint64_t invocations = 1'000'000;
  std::size_t tenants = 64;
  SimDuration duration = Seconds(3600);
  std::uint64_t seed = 42;
  faasload::Mode mode = faasload::Mode::kOfc;
  std::string out = "BENCH_scale.json";
  std::uint64_t loop_events = 2'000'000;  // Per side of the loop comparison.
  bool skip_loop_compare = false;
  bool progress = false;
};

// The synthetic scenario both event loops run for the before/after comparison:
// `actors` self-re-arming chains (the dominant simulator pattern — a completion
// schedules the next step), each hop also cancelling and re-arming a long-dated
// keep-alive timer (the churn pattern sandbox keep-alives produce). Callbacks
// capture a shared_ptr plus a couple of words, matching the platform's typical
// capture size. Returns dispatched events per wall-clock second.
template <typename Loop>
double MeasureLoopEps(std::uint64_t total_events, std::size_t actors) {
  Loop loop;
  struct Shared {
    std::uint64_t dispatched = 0;
    std::uint64_t budget = 0;
  };
  auto shared = std::make_shared<Shared>();
  shared->budget = total_events;
  std::vector<typename Loop::EventId> keepalive(actors, 0);

  // Recursive hop as a self-contained callable: value-captures keep it safe to
  // move between slots.
  struct Hop {
    Loop* loop;
    std::shared_ptr<Shared> shared;
    std::vector<typename Loop::EventId>* keepalive;
    std::size_t actor;
    void operator()() const {
      Shared& s = *shared;
      ++s.dispatched;
      if (s.dispatched + (*keepalive).size() >= s.budget) {
        return;  // Leave only the keep-alives outstanding.
      }
      // Keep-alive churn: cancel the previous timer, arm a fresh one.
      if ((*keepalive)[actor] != 0) {
        loop->Cancel((*keepalive)[actor]);
      }
      (*keepalive)[actor] = loop->ScheduleAfter(Seconds(600), [] {});
      loop->ScheduleAfter(Millis(1) + static_cast<SimDuration>(actor),
                          Hop{loop, shared, keepalive, actor});
    }
  };

  const auto start = WallClock::now();  // simlint: allow(wall-clock) -- measuring loop throughput
  for (std::size_t a = 0; a < actors; ++a) {
    loop.ScheduleAfter(static_cast<SimDuration>(a), Hop{&loop, shared, &keepalive, a});
  }
  loop.Run();
  const double wall = SecondsSince(start);
  return wall > 0 ? static_cast<double>(shared->dispatched) / wall : 0.0;
}

int Main(int argc, char** argv) {
  Flags flags;
  const FlagRow rows[] = {
      {"Scale", "--invocations=N", "Target invocations in the synthesized trace (default 1000000).",
       NumberFlag(&flags.invocations, 1)},
      {"Scale", "--tenants=N", "Tenants in the trace (default 64).", NumberFlag(&flags.tenants, 1)},
      {"Scale", "--duration-s=S", "Simulated horizon in seconds (default 3600).",
       DurationFlag(&flags.duration, Seconds(1), /*above=*/true)},
      {"Scale", "--seed=N", "Root RNG seed (default 42).", NumberFlag(&flags.seed, 0)},
      {"Scale", "--mode=ofc|owk-swift|owk-redis", "System under test (default ofc).",
       ChoiceFlag(&flags.mode, faasload::kModeChoices)},
      {"Scale", "--out=PATH", "Write the report JSON here (default BENCH_scale.json).",
       PathFlag(&flags.out)},
      {"Scale", "--progress", "Print a heartbeat every tenth of the horizon.",
       SwitchFlag(&flags.progress)},
      {"Event-loop comparison", "--loop-events=N",
       "Events per side of the legacy-vs-optimized loop comparison (default 2000000).",
       NumberFlag(&flags.loop_events, 1)},
      {"Event-loop comparison", "--skip-loop-compare", "Skip the event-loop comparison.",
       SwitchFlag(&flags.skip_loop_compare)},
  };
  if (!ParseFlags(argc, argv, rows)) {
    return 2;
  }

  bench::Banner("Scale stress: " + std::to_string(flags.invocations) +
                    " invocations, " + std::to_string(flags.tenants) + " tenants",
                "simulator scalability harness (not a paper figure)");

  // ---- Event-loop before/after microbenchmark ------------------------------
  double legacy_eps = 0.0;
  double optimized_eps = 0.0;
  if (!flags.skip_loop_compare) {
    constexpr std::size_t kActors = 256;
    legacy_eps = MeasureLoopEps<bench::LegacyEventLoop>(flags.loop_events, kActors);
    optimized_eps = MeasureLoopEps<sim::EventLoop>(flags.loop_events, kActors);
    std::printf("event loop: legacy %.0f ev/s, optimized %.0f ev/s (%.2fx)\n",
                legacy_eps, optimized_eps,
                legacy_eps > 0 ? optimized_eps / legacy_eps : 0.0);
  }

  // ---- Full-stack scale run ------------------------------------------------
  const auto setup_start = WallClock::now();  // simlint: allow(wall-clock) -- phase timing
  workloads::ScaleTraceOptions trace_options;
  trace_options.seed = flags.seed;
  trace_options.num_tenants = flags.tenants;
  trace_options.duration_s = ToSeconds(flags.duration);
  trace_options.target_invocations = flags.invocations;
  const workloads::ScaleTrace trace = workloads::GenerateScaleTrace(trace_options);

  faasload::EnvironmentOptions env_options;
  env_options.seed = flags.seed;
  env_options.platform.num_workers = 8;
  env_options.platform.worker_memory = GiB(32);
  faasload::Environment env(flags.mode, env_options);
  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, flags.seed);
  injector.set_max_records_per_tenant(0);  // Counters only; no per-record retention.
  if (Status status = injector.AddScaleTrace(trace); !status.ok()) {
    std::fprintf(stderr, "trace setup failed: %s\n", status.ToString().c_str());
    return 1;
  }
  injector.PretrainModels(40);
  const double setup_wall = SecondsSince(setup_start);

  if (flags.progress) {
    // Progress heartbeat in simulated time (one line per 10% of the horizon).
    const SimDuration step = std::max<SimDuration>(flags.duration / 10, 1);
    injector.AddSampler(step, [&env, &injector] {
      std::printf("  t=%.0fs: %llu fired, %llu completed, %llu events\n",
                  static_cast<double>(env.loop().now()) / 1e6,
                  static_cast<unsigned long long>(injector.invocations_fired()),
                  static_cast<unsigned long long>(injector.invocations_completed()),
                  static_cast<unsigned long long>(env.loop().total_dispatched()));
      std::fflush(stdout);
    });
  }

  const auto run_start = WallClock::now();  // simlint: allow(wall-clock) -- phase timing
  injector.Run(flags.duration);
  const double run_wall = SecondsSince(run_start);

  // ---- Report --------------------------------------------------------------
  const auto export_start = WallClock::now();  // simlint: allow(wall-clock) -- phase timing
  const std::uint64_t dispatched = env.loop().total_dispatched();
  const std::uint64_t scheduled = env.loop().total_scheduled();
  const std::uint64_t fired = injector.invocations_fired();
  const std::uint64_t completed = injector.invocations_completed();
  const double events_per_sec = run_wall > 0 ? static_cast<double>(dispatched) / run_wall : 0;
  const double inv_per_sec = run_wall > 0 ? static_cast<double>(completed) / run_wall : 0;

  // Simulated-time E/T/L shares (where simulated work went; the wall-clock
  // phase split above says where the *simulator's* time went).
  const double extract_ms = env.metrics().GetSeries("ofc.platform.extract_ms")->sum();
  const double transform_ms = env.metrics().GetSeries("ofc.platform.transform_ms")->sum();
  const double load_ms = env.metrics().GetSeries("ofc.platform.load_ms")->sum();
  const double etl_total = extract_ms + transform_ms + load_ms;

  bench::Table table({"metric", "value"});
  table.AddRow({"invocations fired", std::to_string(fired)});
  table.AddRow({"invocations completed", std::to_string(completed)});
  table.AddRow({"events dispatched", std::to_string(dispatched)});
  table.AddRow({"run wall (s)", bench::Fmt("%.2f", run_wall)});
  table.AddRow({"events/sec", bench::Fmt("%.0f", events_per_sec)});
  table.AddRow({"invocations/sec", bench::Fmt("%.0f", inv_per_sec)});
  table.AddRow({"peak RSS (MiB)", bench::Fmt("%.1f", PeakRssMb())});
  table.Print();

  std::string json = "{\n";
  json += "  \"target_invocations\": " + std::to_string(flags.invocations) + ",\n";
  json += "  \"tenants\": " + std::to_string(flags.tenants) + ",\n";
  json += "  \"duration_s\": " + obs::JsonNumber(ToSeconds(flags.duration)) + ",\n";
  json += "  \"seed\": " + std::to_string(flags.seed) + ",\n";
  json += "  \"mode\": \"" + std::string(FlagChoiceName(faasload::kModeChoices, flags.mode)) +
          "\",\n";
  json += "  \"expected_invocations\": " + obs::JsonNumber(trace.expected_invocations) + ",\n";
  json += "  \"invocations_fired\": " + std::to_string(fired) + ",\n";
  json += "  \"invocations_completed\": " + std::to_string(completed) + ",\n";
  json += "  \"events_scheduled\": " + std::to_string(scheduled) + ",\n";
  json += "  \"events_dispatched\": " + std::to_string(dispatched) + ",\n";
  json += "  \"wall_seconds\": {\"setup\": " + obs::JsonNumber(setup_wall) +
          ", \"run\": " + obs::JsonNumber(run_wall) + "},\n";
  json += "  \"events_per_sec\": " + obs::JsonNumber(events_per_sec) + ",\n";
  json += "  \"invocations_per_sec\": " + obs::JsonNumber(inv_per_sec) + ",\n";
  json += "  \"peak_rss_mb\": " + obs::JsonNumber(PeakRssMb()) + ",\n";
  json += "  \"sim_time_share\": {";
  if (etl_total > 0) {
    json += "\"extract\": " + obs::JsonNumber(extract_ms / etl_total) +
            ", \"transform\": " + obs::JsonNumber(transform_ms / etl_total) +
            ", \"load\": " + obs::JsonNumber(load_ms / etl_total);
  }
  json += "},\n";
  json += "  \"event_loop_compare\": {\"legacy_events_per_sec\": " +
          obs::JsonNumber(legacy_eps) +
          ", \"optimized_events_per_sec\": " + obs::JsonNumber(optimized_eps) +
          ", \"speedup\": " +
          obs::JsonNumber(legacy_eps > 0 ? optimized_eps / legacy_eps : 0.0) + "}\n";
  json += "}\n";

  if (!obs::WriteTextFile(flags.out, json)) {
    std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
    return 1;
  }
  const double export_wall = SecondsSince(export_start);
  std::printf("wrote %s (setup %.2fs, run %.2fs, export %.2fs)\n", flags.out.c_str(),
              setup_wall, run_wall, export_wall);

  if (fired != completed) {
    std::fprintf(stderr, "exactly-once violation: fired=%llu completed=%llu\n",
                 static_cast<unsigned long long>(fired),
                 static_cast<unsigned long long>(completed));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) { return ofc::Main(argc, argv); }
