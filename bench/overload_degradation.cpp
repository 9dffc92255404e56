// Overload & graceful degradation bench: sweeps offered load from well under
// to well past the platform's sustainable rate while the cache path degrades
// mid-run, and reports what bounded admission + the circuit breaker deliver:
// goodput, explicit shed rate, end-to-end P50/P99, and cumulative breaker open
// time. Writes the series as machine-readable JSON (default
// BENCH_overload.json, override with --json=PATH) so CI can track the
// degradation envelope across commits.
//
// Expected shape: goodput rises with offered load until the concurrency wall,
// then plateaus while the shed rate absorbs the excess; P99 stays bounded by
// the queue deadline instead of growing with the backlog; breaker open time is
// roughly the injected cache-fault window at every load point.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/faasload/environment.h"
#include "src/obs/export_util.h"
#include "src/workloads/functions.h"
#include "src/workloads/media.h"

namespace ofc {
namespace {

constexpr SimTime kHorizon = Seconds(60);       // Arrivals land before this.
constexpr SimDuration kDrain = Minutes(5);      // Completion budget past it.
constexpr SimTime kFaultStart = Seconds(20);    // Cache-path brownout window:
constexpr SimTime kFaultEnd = Seconds(40);      // breaker must trip and bypass.

struct LoadPoint {
  double offered_rps = 0;
  int scheduled = 0;
  int succeeded = 0;
  int shed = 0;
  double goodput_rps = 0;
  double shed_rate = 0;  // Fraction of submissions shed explicitly.
  double p50_ms = 0;
  double p99_ms = 0;
  double breaker_open_s = 0;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(pos + 0.5)];
}

LoadPoint RunPoint(SimDuration interarrival, std::uint64_t seed) {
  faasload::EnvironmentOptions env_options;
  env_options.seed = seed;
  // One worker with room for two 2 GiB sandboxes: a small, known concurrency
  // wall so the sweep crosses saturation within a few load points.
  env_options.platform.num_workers = 1;
  env_options.platform.worker_memory = GiB(4);
  env_options.platform.max_queue_depth = 8;
  env_options.platform.queue_deadline = Seconds(2);
  env_options.ofc.proxy.breaker_failure_threshold = 3;
  env_options.ofc.proxy.breaker_open_duration = Seconds(5);
  env_options.ofc.proxy.breaker_half_open_probes = 2;
  faasload::Environment env(faasload::Mode::kOfc, env_options);

  faas::FunctionConfig config;
  config.spec = *workloads::FindFunction("wand_sepia");
  config.booked_memory = GiB(2);
  if (!env.platform().RegisterFunction(config).ok()) {
    std::fprintf(stderr, "RegisterFunction failed\n");
    return {};
  }
  Rng pretrain_rng(seed + 17);
  env.ofc()->trainer().Pretrain(config.spec, 1000, pretrain_rng);

  Rng rng(seed * 7919 + 1);
  workloads::MediaGenerator generator(rng.Fork());
  std::vector<faas::InputObject> inputs;
  for (int i = 0; i < 4; ++i) {
    const auto media =
        generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(256));
    const std::string key = "in/" + std::to_string(i);
    env.rsds().Seed(key, media.byte_size, faas::MediaToTags(media));
    inputs.push_back(faas::InputObject{key, media});
  }

  // Cache-path brownout mid-sweep: every cache read/write fails until the
  // window closes, so the breaker opens and routes around it.
  env.loop().ScheduleAt(kFaultStart, [&env] {
    env.ofc()->proxy().InjectCacheFaultUntil(kFaultEnd);
  });

  LoadPoint point;
  point.offered_rps = 1e6 / static_cast<double>(interarrival);
  std::vector<double> latencies_ms;
  int completed = 0;
  for (SimTime at = 0; at < kHorizon; at += interarrival) {
    ++point.scheduled;
    env.loop().ScheduleAt(at, [&env, &point, &latencies_ms, &completed, &rng,
                               &inputs] {
      env.platform().Invoke("wand_sepia", {inputs[rng.Index(inputs.size())]},
                            {0.5}, [&point, &latencies_ms,
                                    &completed](const faas::InvocationRecord& r) {
                              ++completed;
                              if (r.shed) {
                                ++point.shed;
                              } else if (!r.failed) {
                                ++point.succeeded;
                                latencies_ms.push_back(ToMillis(r.total));
                              }
                            });
    });
  }
  const SimTime deadline = kHorizon + kDrain;
  while (completed < point.scheduled && env.loop().now() < deadline &&
         env.loop().Step()) {
  }

  point.goodput_rps = point.succeeded / ToSeconds(kHorizon);
  point.shed_rate =
      point.scheduled == 0 ? 0.0 : static_cast<double>(point.shed) / point.scheduled;
  point.p50_ms = Percentile(latencies_ms, 0.50);
  point.p99_ms = Percentile(latencies_ms, 0.99);
  point.breaker_open_s =
      env.metrics().GaugeValue("ofc.breaker.open_time_us") / 1e6;
  return point;
}

// False (after naming the path on stderr) when the write fails.
bool WriteJson(const std::string& path, const std::vector<LoadPoint>& points) {
  std::string json = "{\n  \"bench\": \"overload_degradation\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LoadPoint& p = points[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"offered_rps\": %.3f, \"scheduled\": %d, \"succeeded\": %d, "
                  "\"shed\": %d, \"goodput_rps\": %.3f, \"shed_rate\": %.4f, "
                  "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"breaker_open_s\": %.3f}%s\n",
                  p.offered_rps, p.scheduled, p.succeeded, p.shed, p.goodput_rps,
                  p.shed_rate, p.p50_ms, p.p99_ms, p.breaker_open_s,
                  i + 1 < points.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";
  if (!obs::WriteTextFile(path, json)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %zu load points -> %s\n", points.size(), path.c_str());
  return true;
}

bool Run(const std::string& json_path) {
  bench::Banner("Overload protection & graceful degradation",
                "robustness extension (bounded admission + cache breaker)");

  // wand_sepia runs ~21 ms warm and the worker fits two sandboxes, so the
  // concurrency wall sits near 75 req/s; the sweep brackets it from 20 to 200.
  const SimDuration kIntervals[] = {Millis(50), Millis(20), Millis(12),
                                    Millis(8), Millis(5)};
  std::vector<LoadPoint> points;
  for (SimDuration interval : kIntervals) {
    points.push_back(RunPoint(interval, /*seed=*/2021));
  }

  bench::Table table({"Offered (req/s)", "Scheduled", "Succeeded", "Shed",
                      "Goodput (req/s)", "Shed rate", "P50 (ms)", "P99 (ms)",
                      "Breaker open (s)"});
  for (const LoadPoint& p : points) {
    table.AddRow({bench::Fmt("%.2f", p.offered_rps), bench::Fmt("%.0f", p.scheduled),
                  bench::Fmt("%.0f", p.succeeded), bench::Fmt("%.0f", p.shed),
                  bench::Fmt("%.2f", p.goodput_rps), bench::Fmt("%.3f", p.shed_rate),
                  bench::Fmt("%.1f", p.p50_ms), bench::Fmt("%.1f", p.p99_ms),
                  bench::Fmt("%.2f", p.breaker_open_s)});
  }
  table.Print();

  std::printf(
      "\nExpected shape: goodput plateaus at the concurrency wall while the shed\n"
      "rate absorbs the excess; P99 stays bounded by the 2 s queue deadline; the\n"
      "breaker is open for roughly the injected 20 s cache-fault window.\n");

  return WriteJson(json_path, points);
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  std::string json_path = "BENCH_overload.json";
  const ofc::FlagRow rows[] = {
      {"Output", "--json=PATH", "Write the load points as JSON (default BENCH_overload.json).",
       ofc::PathFlag(&json_path)},
  };
  if (!ofc::ParseFlags(argc, argv, rows)) {
    return 2;
  }
  return ofc::Run(json_path) ? 0 : 1;
}
