// OFC simulator benchmark harness: one workload per process.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans-out PATH]
//
// Assembles the stack from public constructors (EventLoop, ObjectStore,
// Cluster, OfcSystem, Platform) with pass-through decorators on the
// DataService and PlatformHooks seams (seams.h), then drives a seeded
// open-loop arrival schedule through Platform::Invoke / InvokePipeline.
//
// A shard is one independent copy of the workload with its own seed: a
// fixed-size batch of set-up (trace synthesis, assembly, dataset seeding, model
// pretraining) and run phase. A round runs every shard once; rounds repeat
// until S seconds would be exceeded. Host metrics are medians over rounds,
// simulated metrics are pooled over the shards of one round.
//
// Simulated results are deterministic in the seed. Every round must give each
// shard the same simulated summary and fingerprint, traced or not, and every
// request must complete exactly once; otherwise the harness reports
// correct=false and exits 1. The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/seams.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/ofc_system.h"
#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/faasload/injector.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"
#include "src/workloads/functions.h"
#include "src/workloads/media.h"
#include "src/workloads/pipelines.h"
#include "src/workloads/scale_trace.h"

namespace ofc::perfbench {
namespace {

// ---- Workloads ---------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool ofc = true;
  faasload::TenantProfile profile = faasload::TenantProfile::kNormal;
  bool azure_trace = true;  // false: the §7.2.2 macro mix.
  int num_workers = 8;
  Bytes worker_memory = GiB(32);
  double duration_s = 0;
  // Azure trace shape.
  std::size_t tenants = 64;
  std::uint64_t target_invocations = 0;
  // Macro mix shape.
  int tenants_per_function = 1;
  int dataset_objects = 12;
  double mean_interval_s = 60.0;
  int pretrain_invocations = 40;
  // Independent copies of the workload run per round, each from its own seed;
  // simulated metrics pool them.
  int shards = 1;
  bool flight_recorder = false;
  SimDuration capacity_sample_period = Seconds(30);
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "azure-ofc" || name == "azure-swift") {
    spec.ofc = name == "azure-ofc";
    spec.duration_s = 1800.0;
    spec.target_invocations = 40'000;
    return spec;
  }
  if (name == "macro-pressure") {
    spec.azure_trace = false;
    spec.profile = faasload::TenantProfile::kAdvanced;
    spec.num_workers = 4;
    spec.worker_memory = GiB(160);
    spec.duration_s = 6 * 3600.0;
    spec.pretrain_invocations = 1000;
    spec.shards = 8;
    spec.flight_recorder = true;
    return spec;
  }
  return std::nullopt;
}

// The tenant population (trace tenants and their rates, datasets, bookings
// and pretrained models) is part of a workload's definition and comes from
// this fixed seed. --seed draws what varies from run to run: the arrival
// schedule, each request's object and arguments, and the simulator's own
// random streams. Drawing the population from --seed as well makes the
// outcome hinge on which tenant happens to be hot or how well its model was
// trained; README.md gives the measured spread.
constexpr std::uint64_t kPopulationSeed = 2021;

enum class Law { kPoisson, kPeriodic, kBursty, kDiurnal };

struct Tenant {
  std::string name;
  std::string function;
  const workloads::PipelineSpec* pipeline = nullptr;  // Null: single-stage.
  Law law = Law::kPoisson;
  double mean_interval_s = 60.0;
  int burst_size = 1;
  double burst_spacing_s = 0.25;
  double diurnal_period_s = 86400.0;
  double diurnal_amplitude = 0.0;
  int dataset_objects = 4;
  Bytes object_size = 0;
  Bytes pipeline_input = 0;
  // Filled by seeding.
  std::vector<faas::InputObject> dataset;  // Single-stage object pool.
  std::vector<faas::InputObject> chunks;   // Pipeline input chunks.
};

// One request of the open-loop schedule: when it is due, whose it is, which
// dataset object it reads and the function arguments.
struct Arrival {
  SimTime due = 0;
  std::uint32_t tenant = 0;
  std::uint32_t object = 0;
  std::vector<double> args;
};

struct Plan {
  std::vector<Tenant> tenants;
  std::vector<Arrival> arrivals;  // Sorted by due time (stable in tenant order).
};

std::vector<Tenant> AzureTenants(const WorkloadSpec& w) {
  workloads::ScaleTraceOptions options;
  options.seed = kPopulationSeed;
  options.num_tenants = w.tenants;
  options.duration_s = w.duration_s;
  options.target_invocations = w.target_invocations;
  const workloads::ScaleTrace trace = workloads::GenerateScaleTrace(options);
  std::vector<Tenant> tenants;
  for (const workloads::ScaleTraceTenant& t : trace.tenants) {
    Tenant tenant;
    tenant.name = t.name;
    tenant.function = t.function;
    tenant.mean_interval_s = t.mean_interval_s;
    tenant.burst_size = t.burst_size;
    tenant.burst_spacing_s = t.burst_spacing_s;
    tenant.diurnal_period_s = t.diurnal_period_s;
    tenant.diurnal_amplitude = t.diurnal_amplitude;
    tenant.dataset_objects = t.dataset_objects;
    tenant.object_size = t.object_size;
    switch (t.arrivals) {
      case workloads::ScaleArrivals::kPoisson: tenant.law = Law::kPoisson; break;
      case workloads::ScaleArrivals::kDiurnal: tenant.law = Law::kDiurnal; break;
      case workloads::ScaleArrivals::kBursty: tenant.law = Law::kBursty; break;
      case workloads::ScaleArrivals::kPeriodic: tenant.law = Law::kPeriodic; break;
    }
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

std::vector<Tenant> MacroTenants(const WorkloadSpec& w) {
  struct Template {
    const char* function;
    bool pipeline;
    Bytes input;
  };
  const Template kTemplates[] = {
      {"wand_blur", false, 0},   {"wand_resize", false, 0},  {"wand_sepia", false, 0},
      {"wand_rotate", false, 0}, {"wand_denoise", false, 0}, {"wand_edge", false, 0},
      {"map_reduce", true, MiB(30)}, {"THIS", true, MiB(125)},
  };
  std::vector<Tenant> tenants;
  for (int copy = 0; copy < w.tenants_per_function; ++copy) {
    for (const Template& t : kTemplates) {
      Tenant tenant;
      tenant.name = std::string(t.function) + "#" + std::to_string(copy);
      tenant.function = t.function;
      tenant.pipeline = t.pipeline ? workloads::FindPipeline(t.function) : nullptr;
      tenant.mean_interval_s = w.mean_interval_s;
      tenant.dataset_objects = w.dataset_objects;
      tenant.pipeline_input = t.input;
      tenants.push_back(std::move(tenant));
    }
  }
  return tenants;
}

// Draws every arrival of `tenant` within [0, horizon] (the arrival laws of
// faasload::LoadInjector, materialized up front).
void DrawArrivals(const Tenant& tenant, std::uint32_t index, SimTime horizon, Rng& rng,
                  std::vector<Arrival>* out) {
  const workloads::FunctionSpec* fn =
      tenant.pipeline == nullptr ? workloads::FindFunction(tenant.function) : nullptr;
  auto emit = [&](SimTime when) {
    Arrival arrival;
    arrival.due = when;
    arrival.tenant = index;
    if (fn != nullptr) {
      arrival.object = static_cast<std::uint32_t>(
          rng.Index(static_cast<std::size_t>(tenant.dataset_objects)));
      arrival.args = workloads::SampleArgs(*fn, rng);
    }
    out->push_back(std::move(arrival));
  };
  const auto micros = [](double s) { return static_cast<SimDuration>(s * 1e6); };
  SimTime t = 0;
  while (true) {
    switch (tenant.law) {
      case Law::kPoisson:
        t += micros(rng.Exponential(tenant.mean_interval_s));
        break;
      case Law::kPeriodic:
        t += micros(tenant.mean_interval_s);
        break;
      case Law::kBursty:
        t += micros(rng.Exponential(tenant.mean_interval_s));
        break;
      case Law::kDiurnal: {
        // Thinned Poisson: candidates at the peak rate, accepted with
        // probability rate(t) / peak.
        const double amplitude = std::clamp(tenant.diurnal_amplitude, 0.0, 1.0);
        const double base = 1.0 / tenant.mean_interval_s;
        const double peak = base * (1.0 + amplitude);
        while (true) {
          t += micros(rng.Exponential(1.0 / peak));
          const double phase = 2.0 * 3.14159265358979323846 *
                               (static_cast<double>(t) / 1e6) / tenant.diurnal_period_s;
          if (rng.NextDouble() * peak <= base * (1.0 + amplitude * std::sin(phase)) ||
              t > horizon) {
            break;
          }
        }
        break;
      }
    }
    if (t > horizon) {
      return;
    }
    emit(t);
    if (tenant.law == Law::kBursty) {
      SimTime member = t;
      for (int i = 1; i < tenant.burst_size; ++i) {
        member += micros(tenant.burst_spacing_s);
        if (member > horizon) {
          break;
        }
        emit(member);
      }
    }
  }
}

Plan MakePlan(const WorkloadSpec& w, std::uint64_t seed) {
  Plan plan;
  plan.tenants = w.azure_trace ? AzureTenants(w) : MacroTenants(w);
  Rng rng(seed ^ 0x5eedf00dULL);
  const SimTime horizon = static_cast<SimTime>(w.duration_s * 1e6);
  for (std::uint32_t i = 0; i < plan.tenants.size(); ++i) {
    Rng tenant_rng = rng.Fork();
    DrawArrivals(plan.tenants[i], i, horizon, tenant_rng, &plan.arrivals);
  }
  std::stable_sort(plan.arrivals.begin(), plan.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
  return plan;
}

// ---- Assembly ------------------------------------------------------------------

// The stack, built from public constructors in faasload::Environment's order
// and seeding, with the decorators between the platform and OFC.
struct Stack {
  Stack(const WorkloadSpec& w, std::uint64_t seed, bool traced)
      : tracer(traced),
        flight(obs::FlightRecorderOptions{.enabled = w.flight_recorder}) {
    Rng rng(seed);
    rsds = std::make_unique<store::ObjectStore>(&loop, store::StoreProfile::Swift(), rng.Fork(),
                                                "swift", &metrics);
    faas::PlatformOptions platform_options;
    platform_options.num_workers = w.num_workers;
    platform_options.worker_memory = w.worker_memory;
    platform_options.metrics = &metrics;
    platform_options.flight = &flight;
    if (w.ofc) {
      rc::ClusterOptions cluster_options;
      cluster_options.default_capacity = 0;  // The CacheAgent sets real targets.
      cluster_options.metrics = &metrics;
      cluster_options.flight = &flight;
      cluster = std::make_unique<rc::Cluster>(&loop, w.num_workers, cluster_options, rng.Fork());
      core::OfcOptions ofc_options;
      ofc_options.cache_agent.worker_memory = w.worker_memory;
      ofc_options.metrics = &metrics;
      ofc_options.flight = &flight;
      ofc = std::make_unique<core::OfcSystem>(&loop, cluster.get(), rsds.get(), ofc_options);
      data = std::make_unique<TracedDataService>(ofc->data_service(), true, &loop, &tracer);
      hooks = std::make_unique<TracedHooks>(
          ofc->hooks(), &tracer, [this](const faas::FunctionConfig& fn) {
            if (const core::FunctionModel* model = ofc->registry().Find(fn.spec.name)) {
              training_set_sizes.push_back(static_cast<double>(model->training_set_size()));
            }
          });
      platform = std::make_unique<faas::Platform>(&loop, platform_options, data.get(),
                                                  hooks.get(), rng.Fork());
      ofc->Start();
    } else {
      direct = std::make_unique<faas::DirectDataService>(rsds.get());
      data = std::make_unique<TracedDataService>(direct.get(), false, &loop, &tracer);
      platform = std::make_unique<faas::Platform>(&loop, platform_options, data.get(),
                                                  /*hooks=*/nullptr, rng.Fork());
    }
  }

  sim::EventLoop loop;
  obs::MetricsRegistry metrics;
  Tracer tracer;
  obs::FlightRecorder flight;
  std::unique_ptr<store::ObjectStore> rsds;
  std::unique_ptr<rc::Cluster> cluster;
  std::unique_ptr<core::OfcSystem> ofc;
  std::unique_ptr<faas::DirectDataService> direct;
  std::unique_ptr<TracedDataService> data;
  std::unique_ptr<TracedHooks> hooks;
  std::unique_ptr<faas::Platform> platform;
  std::vector<double> training_set_sizes;  // Traced runs: one per trainer call.
};

Status RegisterFunction(faas::Platform& platform, const workloads::FunctionSpec& fn,
                        const std::string& tenant, Bytes booked) {
  if (platform.GetFunction(fn.name) != nullptr) {
    return OkStatus();  // First tenant's booking wins, as in the load injector.
  }
  faas::FunctionConfig config;
  config.spec = fn;
  config.tenant = tenant;
  config.booked_memory = booked;
  return platform.RegisterFunction(config);
}

// Registers each tenant's function(s) under the booking profile and seeds its
// dataset in the RSDS (faasload::LoadInjector::AddTenant's preparation).
Status SeedTenants(const WorkloadSpec& w, Plan& plan, Stack& stack) {
  Rng rng(kPopulationSeed ^ 0xda7a5eedULL);
  const Bytes platform_max = stack.platform->options().max_sandbox_memory;
  for (Tenant& tenant : plan.tenants) {
    workloads::MediaGenerator generator(rng.Fork());
    if (tenant.pipeline == nullptr) {
      const workloads::FunctionSpec* fn = workloads::FindFunction(tenant.function);
      if (fn == nullptr) {
        return NotFoundError("no such function: " + tenant.function);
      }
      OFC_RETURN_IF_ERROR(RegisterFunction(
          *stack.platform, *fn, tenant.name,
          faasload::BookedMemoryFor(*fn, w.profile, platform_max, rng.NextU64())));
      for (int i = 0; i < tenant.dataset_objects; ++i) {
        const workloads::MediaDescriptor media =
            tenant.object_size > 0 ? generator.GenerateWithByteSize(fn->kind, tenant.object_size)
                                   : generator.Generate(fn->kind);
        const std::string key = "data/" + tenant.name + "/obj" + std::to_string(i);
        stack.rsds->Seed(key, media.byte_size, faas::MediaToTags(media));
        tenant.dataset.push_back(faas::InputObject{key, media});
      }
      continue;
    }
    const workloads::PipelineSpec& pipeline = *tenant.pipeline;
    const int chunks = pipeline.NumChunks(tenant.pipeline_input);
    const Bytes chunk_size = tenant.pipeline_input / chunks;
    std::vector<workloads::MediaDescriptor> stage_inputs;
    for (int c = 0; c < chunks; ++c) {
      const workloads::MediaDescriptor media =
          generator.GenerateWithByteSize(pipeline.input_kind, chunk_size);
      const std::string key = "data/" + tenant.name + "/chunk" + std::to_string(c);
      stack.rsds->Seed(key, media.byte_size, faas::MediaToTags(media));
      tenant.chunks.push_back(faas::InputObject{key, media});
      stage_inputs.push_back(media);
    }
    // Per-stage booking: the peak demand over every task of the stage on the
    // actual chunked input, with the profile's headroom.
    for (const workloads::PipelineStage& stage : pipeline.stages) {
      const workloads::FunctionSpec* fn = workloads::FindFunction(stage.function);
      if (fn == nullptr) {
        return NotFoundError("no such stage function: " + stage.function);
      }
      const std::size_t num_tasks =
          stage.fixed_tasks > 0 ? std::min<std::size_t>(static_cast<std::size_t>(stage.fixed_tasks),
                                                        stage_inputs.size())
                                : stage_inputs.size();
      Bytes peak = 0;
      std::vector<workloads::MediaDescriptor> outputs;
      for (std::size_t t = 0; t < num_tasks; ++t) {
        std::vector<faas::InputObject> task_inputs;
        for (std::size_t i = t; i < stage_inputs.size(); i += num_tasks) {
          task_inputs.push_back(faas::InputObject{"", stage_inputs[i]});
        }
        const workloads::MediaDescriptor aggregate = faas::Platform::AggregateMedia(task_inputs);
        Bytes task_out = 0;
        for (int trial = 0; trial < 8; ++trial) {
          const auto args = workloads::SampleArgs(*fn, rng);
          const auto demand = workloads::ComputeDemand(*fn, aggregate, args, &rng);
          peak = std::max(peak, demand.memory);
          task_out = std::max(task_out, demand.output_size);
        }
        outputs.push_back(workloads::OutputMedia(*fn, aggregate, task_out));
      }
      Bytes booked = platform_max;
      if (w.profile == faasload::TenantProfile::kAdvanced) {
        booked = std::min(static_cast<Bytes>(static_cast<double>(peak) * 1.1), platform_max);
      } else if (w.profile == faasload::TenantProfile::kNormal) {
        booked = std::min(static_cast<Bytes>(static_cast<double>(peak) * 1.87), platform_max);
      }
      OFC_RETURN_IF_ERROR(RegisterFunction(*stack.platform, *fn, tenant.name, booked));
      stage_inputs = std::move(outputs);
    }
  }
  return OkStatus();
}

void Pretrain(const WorkloadSpec& w, const Plan& plan, Stack& stack) {
  if (stack.ofc == nullptr) {
    return;
  }
  Rng rng(kPopulationSeed ^ 0x7a1a1e55ULL);
  std::vector<std::string> trained;
  auto train = [&](const std::string& name) {
    if (std::find(trained.begin(), trained.end(), name) != trained.end()) {
      return;
    }
    trained.push_back(name);
    Rng fn_rng = rng.Fork();
    stack.ofc->trainer().Pretrain(*workloads::FindFunction(name), w.pretrain_invocations, fn_rng);
  };
  for (const Tenant& tenant : plan.tenants) {
    if (tenant.pipeline == nullptr) {
      train(tenant.function);
    } else {
      for (const workloads::PipelineStage& stage : tenant.pipeline->stages) {
        train(stage.function);
      }
    }
  }
}

// ---- One shard --------------------------------------------------------------------

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Host speed on a shared machine drifts by a third within minutes (other
// tenants' load), and a median over one run cannot remove a drift that lasts
// longer than the run. Host times are therefore also reported at a reference
// speed: the run phase interleaves fixed slices of simulator-independent work,
// and a shard's times are scaled by how much slower those slices ran than
// kReferenceSliceS. README.md gives the measured effect.
constexpr int kReferenceSlices = 64;
constexpr double kReferenceSliceS = 0.0006;  // A slice on an idle 4-core x86 VM.

// One slice of fixed work: ordered-map churn and a binary heap over
// pseudo-random keys, the allocation and pointer-chasing mix the simulator
// spends its time on. Returns its wall time in seconds.
double ReferenceSliceSeconds() {
  constexpr int kOps = 3000;
  std::map<std::uint64_t, std::uint64_t> map;
  std::vector<std::uint64_t> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;
  const std::int64_t start = NowNs();
  for (int i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto [it, inserted] = map.try_emplace(x % 65536, x);
    if (!inserted) {
      sum += it->second;
      map.erase(it);
    }
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end());
      sum += heap.back();
      heap.pop_back();
    }
  }
  const std::int64_t end = NowNs();
  static volatile std::uint64_t sink = 0;  // Keeps the work observable.
  sink = sink ^ sum;
  return Seconds(end - start);
}

// Nearest-rank percentile of an unsorted sample (copied).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den <= 0 ? 0.0 : num / den; }

// Seed of shard `k` of a run seeded with `seed` (SplitMix64 finalizer).
std::uint64_t ShardSeed(std::uint64_t seed, int k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

// Everything simulated: identical in every round for one shard seed.
struct SimSummary {
  std::uint64_t requests = 0;
  std::uint64_t completed_once = 0;
  std::uint64_t completed_twice = 0;
  std::uint64_t failed = 0;  // Failed, shed or never completed.
  double request_ms_p50 = 0;
  double request_ms_p95 = 0;
  double el_ms_per_request = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t data_ops = 0;
  std::uint64_t data_op_failures = 0;
  std::uint64_t total_scheduled = 0;
  std::uint64_t total_dispatched = 0;
  SimTime end_time = 0;
  std::uint64_t registry_hash = 0;
  std::map<std::string, double> layer;  // Simulated per-layer counts and ratios.

  bool operator==(const SimSummary&) const = default;
  std::uint64_t Fingerprint() const {
    return Fnv1a(std::to_string(registry_hash) + "/" + std::to_string(total_scheduled) + "/" +
                 std::to_string(end_time));
  }
};

struct ShardRun {
  bool traced = false;
  double trace_s = 0;
  double seed_s = 0;  // Assembly + dataset seeding.
  double pretrain_s = 0;
  double setup_s = 0;
  double run_s = 0;
  double reference_s = 0;  // Reference-kernel slices run between loop steps.
  SimSummary sim;
  std::map<std::string, double> host_layer;  // Traced: span-derived host metrics.
  std::vector<Span> spans;                   // Traced: kept for the spans file.
  std::vector<double> latency_ms;            // Completed requests, for pooling.
  double el_ms_sum = 0;
};

// Host-time metrics from the span tree.
void SummarizeSpans(const Stack& stack, double requests, double run_ns,
                    std::map<std::string, double>* out) {
  const std::vector<Span>& spans = stack.tracer.spans();
  constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);
  // A child must lie inside its parent; then self times are never negative
  // and partition the root spans.
  std::vector<std::int64_t> self(spans.size(), 0);
  std::size_t nesting_errors = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] += duration;
    if (spans[i].parent >= 0) {
      const Span& parent = spans[static_cast<std::size_t>(spans[i].parent)];
      nesting_errors += spans[i].start_ns < parent.start_ns || spans[i].end_ns > parent.end_ns;
      self[static_cast<std::size_t>(spans[i].parent)] -= duration;
    }
  }
  std::vector<double> self_by_name(kNames, 0.0);
  std::vector<double> calls_by_name(kNames, 0.0);
  std::vector<double> trainer_calls_ns;
  double root_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto name = static_cast<std::size_t>(spans[i].name);
    self_by_name[name] += static_cast<double>(self[i]);
    calls_by_name[name] += 1;
    if (spans[i].parent < 0) {
      root_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
    if (spans[i].name == SpanName::kTrainer) {
      trainer_calls_ns.push_back(static_cast<double>(self[i]));
    }
  }
  auto self_of = [&](SpanName n) { return self_by_name[static_cast<std::size_t>(n)]; };
  auto calls_of = [&](SpanName n) { return calls_by_name[static_cast<std::size_t>(n)]; };
  std::map<std::string, double>& m = *out;
  m["sim.loop_self_ns_per_request"] = Ratio(self_of(SpanName::kLoop), requests);
  m["faas.invoke_ns_per_request"] = Ratio(self_of(SpanName::kInvoke), requests);
  m["faas.callback_ns_per_request"] = Ratio(self_of(SpanName::kDataCallback), requests);
  m["core.predictor.ns_per_call"] =
      Ratio(self_of(SpanName::kPredictor), calls_of(SpanName::kPredictor));
  m["core.predictor.ns_per_request"] = Ratio(self_of(SpanName::kPredictor), requests);
  m["core.trainer.ns_per_request"] = Ratio(self_of(SpanName::kTrainer), requests);
  // Model rebuilds are rarer than 1 in 100 calls, so the tail is p99.9.
  m["core.trainer.ns_p999"] = Percentile(trainer_calls_ns, 0.999);
  m["core.routing.ns_per_request"] = Ratio(self_of(SpanName::kRouting), requests);
  m["core.cache_agent.ns_per_request"] = Ratio(self_of(SpanName::kCacheAgent), requests);
  m["core.proxy.read_ns_per_call"] =
      Ratio(self_of(SpanName::kProxyRead), calls_of(SpanName::kProxyRead));
  m["core.proxy.write_ns_per_call"] =
      Ratio(self_of(SpanName::kProxyWrite), calls_of(SpanName::kProxyWrite));
  m["core.proxy.ns_per_request"] =
      Ratio(self_of(SpanName::kProxyRead) + self_of(SpanName::kProxyWrite) +
                self_of(SpanName::kProxyPipeline),
            requests);
  m["store.direct.ns_per_request"] =
      Ratio(self_of(SpanName::kDirectRead) + self_of(SpanName::kDirectWrite), requests);
  m["trace.spans_per_request"] = Ratio(static_cast<double>(spans.size()), requests);
  // Coverage: self times partition the root spans exactly; what the run phase
  // spent outside any root span is untraced.
  m["trace.untraced_share"] = Ratio(run_ns - root_ns, run_ns);
  m["trace.nesting_errors"] = static_cast<double>(nesting_errors);
  m["ml.training_set_size_mean"] = Mean(stack.training_set_sizes);
}

std::optional<ShardRun> RunShard(const WorkloadSpec& w, std::uint64_t seed, bool traced,
                                  std::string* error) {
  ShardRun rep;
  rep.traced = traced;
  const std::int64_t t0 = NowNs();
  Plan plan = MakePlan(w, seed);
  const std::int64_t t1 = NowNs();
  auto stack = std::make_unique<Stack>(w, seed, traced);
  if (Status status = SeedTenants(w, plan, *stack); !status.ok()) {
    *error = "seeding failed: " + status.ToString();
    return std::nullopt;
  }
  const std::int64_t t2 = NowNs();
  Pretrain(w, plan, *stack);
  const std::int64_t t3 = NowNs();
  rep.trace_s = Seconds(t1 - t0);
  rep.seed_s = Seconds(t2 - t1);
  rep.pretrain_s = Seconds(t3 - t2);
  rep.setup_s = Seconds(t3 - t0);

  // Per-request completion state, indexed like plan.arrivals.
  const std::size_t n = plan.arrivals.size();
  std::vector<std::uint8_t> completions(n, 0);
  std::vector<std::uint8_t> failed(n, 0);
  std::vector<double> latency_ms(n, 0.0);
  std::vector<double> el_ms(n, 0.0);
  std::size_t outstanding = n;
  sim::EventLoop& loop = stack->loop;
  faas::Platform& platform = *stack->platform;
  Stack* s = stack.get();

  auto complete = [&, s](std::size_t i, bool request_failed, SimDuration el) {
    if (completions[i]++ == 0) {
      --outstanding;
    }
    failed[i] = request_failed ? 1 : 0;
    latency_ms[i] = static_cast<double>(s->loop.now() - plan.arrivals[i].due) / 1000.0;
    el_ms[i] = static_cast<double>(el) / 1000.0;
  };

  // Open loop: one chained event walks the schedule; each request is issued
  // exactly at its due time, so the generator is never late.
  std::function<void(std::size_t)> fire = [&, s](std::size_t i) {
    const Arrival& arrival = plan.arrivals[i];
    const Tenant& tenant = plan.tenants[arrival.tenant];
    {
      ScopedSpan span(&s->tracer, SpanName::kInvoke, 0);
      if (tenant.pipeline != nullptr) {
        platform.InvokePipeline(*tenant.pipeline, tenant.chunks,
                                [&complete, i](const faas::PipelineRecord& record) {
                                  complete(i, record.failed,
                                           record.extract_time + record.load_time);
                                });
      } else {
        platform.Invoke(tenant.function, {tenant.dataset[arrival.object]},
                        std::move(plan.arrivals[i].args),
                        [&complete, i](const faas::InvocationRecord& record) {
                          complete(i, record.failed || record.shed,
                                   record.extract_time + record.load_time);
                        });
      }
    }
    if (i + 1 < n) {
      loop.ScheduleAt(plan.arrivals[i + 1].due, [&fire, i] { fire(i + 1); });
    }
  };
  if (n > 0) {
    loop.ScheduleAt(plan.arrivals[0].due, [&fire] { fire(0); });
  }
  // Harvested memory: the cache capacity the CacheAgent holds, sampled on a
  // fixed simulated period (scheduled in every run so runs stay identical).
  std::vector<double> capacity_gib;
  const SimTime horizon = static_cast<SimTime>(w.duration_s * 1e6);
  if (s->cluster != nullptr) {
    for (SimTime t = w.capacity_sample_period; t <= horizon; t += w.capacity_sample_period) {
      loop.ScheduleAt(t, [s, &capacity_gib] {
        capacity_gib.push_back(static_cast<double>(s->cluster->TotalCapacity()) /
                               static_cast<double>(GiB(1)));
      });
    }
  }

  // Run phase: the horizon in kReferenceSlices steps with one reference-kernel
  // slice after each (timed apart from the loop), then to quiescence in
  // 10-minute steps (periodic timers re-arm forever), abandoning requests
  // still open two hours later.
  std::int64_t run_ns = 0;
  auto run_until = [&](SimTime when) {
    const std::int64_t begin = NowNs();
    {
      ScopedSpan span(&s->tracer, SpanName::kLoop, 0);
      loop.RunUntil(when);
    }
    run_ns += NowNs() - begin;
  };
  for (int step = 1; step <= kReferenceSlices; ++step) {
    run_until(horizon * step / kReferenceSlices);
    rep.reference_s += ReferenceSliceSeconds();
  }
  SimTime deadline = horizon + Minutes(10);
  const SimTime hard_cap = horizon + Minutes(120);
  while (outstanding > 0 && deadline <= hard_cap) {
    run_until(deadline);
    deadline += Minutes(10);
  }
  rep.run_s = Seconds(run_ns);

  // ---- Simulated summary ----
  SimSummary& sim = rep.sim;
  sim.requests = n;
  std::vector<double> done_latency;
  double el_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sim.completed_once += completions[i] == 1 ? 1 : 0;
    sim.completed_twice += completions[i] > 1 ? 1 : 0;
    sim.failed += (completions[i] == 0 || failed[i] != 0) ? 1 : 0;
    if (completions[i] > 0) {
      done_latency.push_back(latency_ms[i]);
      el_sum += el_ms[i];
    }
  }
  sim.request_ms_p50 = Percentile(done_latency, 0.50);
  sim.request_ms_p95 = Percentile(done_latency, 0.95);
  sim.el_ms_per_request = Ratio(el_sum, static_cast<double>(done_latency.size()));
  rep.el_ms_sum = el_sum;
  rep.latency_ms = std::move(done_latency);
  const DataOpStats& data = s->data->stats();
  sim.data_ops = data.reads + data.writes;
  sim.data_op_failures = data.read_failures + data.write_failures;
  sim.total_scheduled = loop.total_scheduled();
  sim.total_dispatched = loop.total_dispatched();
  sim.end_time = loop.now();
  sim.registry_hash = Fnv1a(s->metrics.SnapshotJson(loop.now()));

  const double requests = static_cast<double>(n);
  const obs::MetricsRegistry& reg = s->metrics;
  std::map<std::string, double>& L = sim.layer;
  L["sim.events_per_request"] = Ratio(static_cast<double>(sim.total_dispatched), requests);
  L["sim.cancelled_share"] =
      Ratio(static_cast<double>(sim.total_scheduled - sim.total_dispatched),
            static_cast<double>(sim.total_scheduled));
  const faas::PlatformStats ps = platform.stats();
  L["faas.cold_start_ratio"] = Ratio(static_cast<double>(ps.cold_starts),
                                     static_cast<double>(ps.cold_starts + ps.warm_starts));
  const obs::Series* queue_wait = reg.FindSeries("ofc.platform.queue_wait_ms");
  L["faas.queue_wait_ms_p99"] =
      queue_wait == nullptr ? 0.0 : Percentile(queue_wait->samples().values(), 0.99);
  L["faas.invocations_per_request"] = Ratio(static_cast<double>(ps.invocations), requests);
  L["store.bytes_read_per_request"] =
      Ratio(static_cast<double>(s->rsds->stats().bytes_read), requests);
  L["store.bytes_written_per_request"] =
      Ratio(static_cast<double>(s->rsds->stats().bytes_written), requests);
  L["data.reads_per_request"] = Ratio(static_cast<double>(data.reads), requests);
  L["obs.flight_events_per_request"] =
      Ratio(static_cast<double>(s->flight.total_recorded()), requests);
  // OFC-only layers are absent on the baseline and report zeros there.
  const bool ofc = s->ofc != nullptr;
  const core::OfcPredictionStats pred = ofc ? s->ofc->prediction_stats() : core::OfcPredictionStats{};
  L["core.predictor.model_share"] =
      Ratio(static_cast<double>(pred.model_predictions),
            static_cast<double>(pred.model_predictions + pred.booked_fallbacks));
  L["core.predictor.bad_ratio"] =
      Ratio(static_cast<double>(pred.bad_predictions),
            static_cast<double>(pred.good_predictions + pred.bad_predictions));
  const core::CacheScalingStats cs = ofc ? s->ofc->cache_agent().stats() : core::CacheScalingStats{};
  L["core.cache_agent.scale_downs_plain"] = static_cast<double>(cs.scale_downs_plain);
  L["core.cache_agent.scale_downs_migration"] = static_cast<double>(cs.scale_downs_migration);
  L["core.cache_agent.scale_downs_eviction"] = static_cast<double>(cs.scale_downs_eviction);
  L["core.cache_agent.objects_evicted"] = static_cast<double>(cs.objects_evicted);
  L["core.cache_agent.objects_migrated"] = static_cast<double>(cs.objects_migrated);
  L["core.cache_agent.harvested_gib_mean"] = Mean(capacity_gib);
  const core::ProxyStats px = ofc ? s->ofc->proxy().stats() : core::ProxyStats{};
  sim.cache_hits = px.cache_hits;
  sim.cache_misses = px.cache_misses;
  L["core.proxy.intermediates_dropped"] = static_cast<double>(px.intermediates_dropped);
  L["core.proxy.persistor_runs"] = static_cast<double>(px.persistor_runs);
  L["core.cache_policy.evictions"] = static_cast<double>(reg.CounterTotal("ofc.policy.evictions"));
  L["core.cache_policy.bytes_evicted_per_request"] =
      Ratio(static_cast<double>(reg.CounterTotal("ofc.policy.bytes_evicted")), requests);
  const rc::ClusterStats rs = ofc ? s->cluster->stats() : rc::ClusterStats{};
  L["ramcloud.local_read_share"] =
      Ratio(static_cast<double>(rs.read_hits_local),
            static_cast<double>(rs.read_hits_local + rs.read_hits_remote));
  L["ramcloud.migrations"] = static_cast<double>(rs.migrations);
  L["ramcloud.evictions"] = static_cast<double>(rs.evictions);
  double cleaner_bytes = 0;
  for (int node = 0; ofc && node < s->cluster->num_nodes(); ++node) {
    cleaner_bytes += static_cast<double>(s->cluster->node_log(node).stats().cleaner_bytes_copied);
  }
  L["ramcloud.cleaner_bytes_copied_per_write"] =
      Ratio(cleaner_bytes, static_cast<double>(rs.writes));

  if (traced) {
    SummarizeSpans(*s, requests, static_cast<double>(run_ns), &rep.host_layer);
    rep.host_layer["data.read_sim_ms_p50"] = Percentile(data.read_sim_ms, 0.50);
    rep.host_layer["data.read_sim_ms_p99"] = Percentile(data.read_sim_ms, 0.99);
    rep.host_layer["data.write_sim_ms_p50"] = Percentile(data.write_sim_ms, 0.50);
    rep.host_layer["data.write_sim_ms_p99"] = Percentile(data.write_sim_ms, 0.99);
    rep.spans = s->tracer.spans();
  }
  return rep;
}

// ---- Reporting --------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "index,parent,name,request,start_ns,end_ns\n";
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << i << ',' << span.parent << ',' << SpanNameString(span.name) << ',' << span.request
        << ',' << span.start_ns - base << ',' << span.end_ns - base << '\n';
  }
  return static_cast<bool>(out);
}

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

int Main(int argc, char** argv) {
  Flags flags;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "every flag takes a value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      flags.workload = value;
    } else if (flag == "--seed") {
      flags.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      flags.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      flags.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans-out") {
      flags.spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }
  const std::optional<WorkloadSpec> workload = FindWorkload(flags.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload: %s\n", flags.workload.c_str());
    return 2;
  }
  // Failed-read warnings are counted through the DataService seam instead.
  SetLogLevel(LogLevel::kError);

  // Rounds until the time budget is spent (at least two, so the repetition
  // check always has something to compare); a round runs every shard once. A
  // traced run alternates untraced and traced rounds, tracing shard 0.
  const int shards = workload->shards;
  std::vector<std::vector<ShardRun>> rounds;
  const std::int64_t start = NowNs();
  double last_round_s = 0;
  std::string error;
  while (rounds.size() < 2 || Seconds(NowNs() - start) + last_round_s <= flags.seconds) {
    const std::int64_t round_start = NowNs();
    const bool traced_round = flags.trace && rounds.size() % 2 == 1;
    std::vector<ShardRun> round;
    for (int k = 0; k < shards; ++k) {
      std::optional<ShardRun> rep =
          RunShard(*workload, ShardSeed(flags.seed, k), traced_round && k == 0, &error);
      if (!rep.has_value()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      // Later rounds only need their summaries: keep one round's samples and
      // one traced shard's spans, so memory does not grow with the round count.
      if (!rounds.empty()) {
        rep->latency_ms = std::vector<double>();
      }
      if (rep->traced) {
        for (std::vector<ShardRun>& earlier : rounds) {
          earlier.front().spans = std::vector<Span>();
        }
      }
      round.push_back(std::move(*rep));
    }
    rounds.push_back(std::move(round));
    last_round_s = Seconds(NowNs() - round_start);
  }

  // ---- Checks ----
  std::vector<std::string> failures;
  const std::vector<ShardRun>& first = rounds.front();
  for (int k = 0; k < shards; ++k) {
    const SimSummary& sim = first[static_cast<std::size_t>(k)].sim;
    if (sim.completed_once != sim.requests || sim.completed_twice != 0) {
      failures.push_back("exactly-once: shard " + std::to_string(k) + ": " +
                         std::to_string(sim.completed_once) + " of " +
                         std::to_string(sim.requests) + " completed once, " +
                         std::to_string(sim.completed_twice) + " more than once");
    }
    for (std::size_t r = 1; r < rounds.size(); ++r) {
      const ShardRun& rep = rounds[r][static_cast<std::size_t>(k)];
      if (!(rep.sim == sim)) {
        failures.push_back("shard " + std::to_string(k) + " round " + std::to_string(r) +
                           (rep.traced ? " (traced)" : "") +
                           " simulated a different outcome than round 0");
      }
    }
  }
  // Host times: raw, and scaled to the reference speed (see kReferenceSliceS).
  std::vector<double> setup, setup_raw, speed, trace_s, seed_s, pretrain_s, round_run,
      round_run_raw, shard0_run, shard0_traced;
  const ShardRun* traced_rep = nullptr;
  for (const std::vector<ShardRun>& round : rounds) {
    double run_s = 0;
    double run_raw_s = 0;
    for (const ShardRun& rep : round) {
      const double scale = kReferenceSlices * kReferenceSliceS / rep.reference_s;
      speed.push_back(scale);
      setup.push_back(rep.setup_s * scale);
      setup_raw.push_back(rep.setup_s);
      trace_s.push_back(rep.trace_s);
      seed_s.push_back(rep.seed_s);
      pretrain_s.push_back(rep.pretrain_s);
      run_s += rep.run_s * scale;
      run_raw_s += rep.run_s;
    }
    if (round.front().traced) {
      traced_rep = &round.front();
      shard0_traced.push_back(round.front().run_s);
    } else {
      round_run.push_back(run_s);
      round_run_raw.push_back(run_raw_s);
      shard0_run.push_back(round.front().run_s);
    }
  }
  if (traced_rep != nullptr) {
    const double untraced = traced_rep->host_layer.at("trace.untraced_share");
    if (untraced < 0 || untraced > 0.05) {
      failures.push_back("span coverage: " + JsonNumber(untraced) +
                         " of the traced run phase lies outside every span");
    }
    if (traced_rep->host_layer.at("trace.nesting_errors") != 0) {
      failures.push_back("span nesting: a span ends outside its parent");
    }
  }

  // ---- Metrics: simulated ones pooled over the shards of round 0 ----
  std::uint64_t requests = 0, failed = 0, completed = 0, hits = 0, misses = 0, data_ops = 0,
                data_op_failures = 0, fingerprint = 0;
  double el_ms_sum = 0;
  std::vector<double> latency_ms;
  for (const ShardRun& rep : first) {
    requests += rep.sim.requests;
    failed += rep.sim.failed;
    completed += rep.sim.completed_once + rep.sim.completed_twice;
    hits += rep.sim.cache_hits;
    misses += rep.sim.cache_misses;
    data_ops += rep.sim.data_ops;
    data_op_failures += rep.sim.data_op_failures;
    el_ms_sum += rep.el_ms_sum;
    latency_ms.insert(latency_ms.end(), rep.latency_ms.begin(), rep.latency_ms.end());
    fingerprint = Fnv1a(std::to_string(fingerprint) + "/" + std::to_string(rep.sim.Fingerprint()));
  }
  const double run_median = Median(round_run);
  const double reads = static_cast<double>(hits + misses);
  const double data_op_fail_ratio =
      Ratio(static_cast<double>(data_op_failures), static_cast<double>(data_ops));
  std::vector<Metric> e2e = {
      {"requests_per_s", Ratio(static_cast<double>(requests), run_median), "1/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"rsds_read_share", workload->ofc ? Ratio(static_cast<double>(misses), reads) : 1.0,
       "share"},
      {"request_ms_p50", Percentile(latency_ms, 0.50), "ms"},
      {"request_ms_p95", Percentile(latency_ms, 0.95), "ms"},
      {"el_ms_per_request", Ratio(el_ms_sum, static_cast<double>(completed)), "ms"},
      {"request_ok_ratio", 1.0 - Ratio(static_cast<double>(failed), static_cast<double>(requests)),
       "share"},
      {"data_op_ok_ratio", 1.0 - data_op_fail_ratio, "share"},
  };

  std::printf("workload %s  seed %llu  shards %d  rounds %zu (%zu traced)\n",
              workload->name.c_str(), static_cast<unsigned long long>(flags.seed), shards,
              rounds.size(), shard0_traced.size());
  std::printf("requests %llu (latency samples %zu)  failed %llu  data ops %llu, failed %llu "
              "(data_op_fail_ratio %.6f)  hit_ratio %.6f\n",
              static_cast<unsigned long long>(requests), latency_ms.size(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(data_ops),
              static_cast<unsigned long long>(data_op_failures), data_op_fail_ratio,
              Ratio(static_cast<double>(hits), reads));
  std::printf("fingerprint %016llx\n", static_cast<unsigned long long>(fingerprint));
  for (const ShardRun& rep : first) {
    std::printf("  shard %016llx: registry %016llx, scheduled %llu, end %.3f sim s\n",
                static_cast<unsigned long long>(rep.sim.Fingerprint()),
                static_cast<unsigned long long>(rep.sim.registry_hash),
                static_cast<unsigned long long>(rep.sim.total_scheduled),
                static_cast<double>(rep.sim.end_time) / 1e6);
  }
  std::printf("request ms p90 %.1f p95 %.1f p98 %.1f p99 %.1f p99.5 %.1f p99.9 %.1f\n",
              Percentile(latency_ms, 0.90), Percentile(latency_ms, 0.95),
              Percentile(latency_ms, 0.98), Percentile(latency_ms, 0.99),
              Percentile(latency_ms, 0.995), Percentile(latency_ms, 0.999));
  std::printf("run phase s per round: median %.4f over %zu untraced rounds, %.4f at reference "
              "speed\n", Median(round_run_raw), round_run.size(), run_median);
  std::printf("reference slices ran %.3fx their nominal time (median; min %.3f, max %.3f); "
              "unscaled requests_per_s %.1f, setup_s %.5f\n",
              1.0 / Median(speed), 1.0 / *std::max_element(speed.begin(), speed.end()),
              1.0 / *std::min_element(speed.begin(), speed.end()),
              Ratio(static_cast<double>(requests), Median(round_run_raw)), Median(setup_raw));
  for (const Metric& m : e2e) {
    std::printf("  %-22s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::vector<Metric> out = e2e;
  if (flags.trace) {
    // Per-layer metrics describe shard 0.
    std::map<std::string, double> layer = first.front().sim.layer;
    layer["faas.request_ms_p99"] = Percentile(latency_ms, 0.99);
    layer["setup.trace_s"] = Median(trace_s);
    layer["setup.seed_s"] = Median(seed_s);
    layer["setup.pretrain_s"] = Median(pretrain_s);
    if (traced_rep != nullptr) {
      for (const auto& [name, value] : traced_rep->host_layer) {
        layer[name] = value;
      }
      layer["trace.overhead_share"] =
          Ratio(Median(shard0_traced) - Median(shard0_run), Median(shard0_run));
      if (!flags.spans_out.empty() && !WriteSpans(flags.spans_out, traced_rep->spans)) {
        failures.push_back("cannot write spans to " + flags.spans_out);
      }
    }
    out.clear();
    std::printf("per-layer, shard 0 (run phase median %.4f s untraced, %.4f s traced: "
                "tracing overhead %+.1f%%):\n",
                Median(shard0_run), Median(shard0_traced), 100.0 * layer["trace.overhead_share"]);
    for (const auto& [name, value] : layer) {
      std::printf("  %-44s %16.4f\n", name.c_str(), value);
      out.push_back({name, value, ""});
    }
  }

  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": " + std::string(failures.empty() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(requests * rounds.size()) +
                      ", \"failed\": " + std::to_string(failed * rounds.size()) +
                      ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ofc::perfbench

int main(int argc, char** argv) { return ofc::perfbench::Main(argc, argv); }
