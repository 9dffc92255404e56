// Unit tests for the FAASLOAD harness: environment factory and its optional
// run parts, tenant setup, dataset preparation, booking profiles, arrival
// processes.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/fault/fault_plan.h"

namespace ofc::faasload {
namespace {

EnvironmentOptions SmallEnv(std::uint64_t seed) {
  EnvironmentOptions options;
  options.platform.num_workers = 2;
  options.seed = seed;
  return options;
}

TEST(EnvironmentTest, ModeNames) {
  EXPECT_EQ(ModeName(Mode::kOwkSwift), "OWK-Swift");
  EXPECT_EQ(ModeName(Mode::kOwkRedis), "OWK-Redis");
  EXPECT_EQ(ModeName(Mode::kOfc), "OFC");
}

TEST(EnvironmentTest, RedisModeUsesFasterStore) {
  Environment swift(Mode::kOwkSwift, SmallEnv(1));
  Environment redis(Mode::kOwkRedis, SmallEnv(1));
  swift.rsds().Seed("x", MiB(1), {});
  redis.rsds().Seed("x", MiB(1), {});
  SimTime swift_done = 0;
  SimTime redis_done = 0;
  swift.rsds().Get("x", [&](Result<store::ObjectMetadata>) { swift_done = swift.loop().now(); });
  redis.rsds().Get("x", [&](Result<store::ObjectMetadata>) { redis_done = redis.loop().now(); });
  swift.loop().Run();
  redis.loop().Run();
  EXPECT_LT(redis_done, swift_done);
}

TEST(EnvironmentTest, ProfileOverrideApplies) {
  EnvironmentOptions options = SmallEnv(2);
  options.rsds_profile = store::StoreProfile::S3();
  Environment env(Mode::kOwkSwift, options);
  env.rsds().Seed("x", KiB(1), {});
  SimTime done = 0;
  env.rsds().Get("x", [&](Result<store::ObjectMetadata>) { done = env.loop().now(); });
  env.loop().Run();
  // S3 reads carry a ~28 ms base latency vs Swift's ~18 ms.
  EXPECT_GT(done, Millis(24));
}

// ---- The Environment's optional parts ---------------------------------------

// A fault plan scheduled through faults() reaches the flight ring with no
// wiring by the caller: the injector is attached to the environment's stream.
TEST(EnvironmentTest, FaultsRecordIntoTheFlightStream) {
  Environment env(Mode::kOfc, SmallEnv(3));
  env.flight().set_enabled(true);
  fault::FaultPlan plan;
  plan.events = {fault::FaultEvent{Seconds(1), fault::FaultKind::kNodeCrash, 1, Seconds(2)}};
  ASSERT_TRUE(env.faults().Schedule(plan).ok());
  env.loop().RunUntil(Seconds(5));
  const RunArtifacts run = env.Finish();
  for (const char* kind : {"\"kind\": \"fault_inject\"", "\"kind\": \"fault_heal\"",
                           "\"kind\": \"node_crash\"", "\"kind\": \"node_restart\""}) {
    EXPECT_NE(run.flight_json.find(kind), std::string::npos) << kind;
  }
  EXPECT_EQ(env.metrics().CounterTotal("ofc.fault.injected"), 1u);
}

TEST(EnvironmentTest, ScrubberNeedsACacheCluster) {
  Environment env(Mode::kOwkSwift, SmallEnv(4));
  const Result<core::Scrubber*> scrubber = env.StartScrubber({});
  EXPECT_EQ(scrubber.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(Environment(Mode::kOfc, SmallEnv(4)).StartScrubber({}).ok());
}

// Unarmed parts are never built: no fault, scrub or SLO cell is registered and
// Finish leaves the telemetry and flight artifacts empty.
TEST(EnvironmentTest, UnarmedPartsLeaveNoTrace) {
  Environment env(Mode::kOfc, SmallEnv(5));
  env.loop().RunUntil(Seconds(30));
  const RunArtifacts run = env.Finish();
  for (const char* family : {"ofc.fault.", "ofc.scrub.", "ofc.slo."}) {
    EXPECT_EQ(run.metrics_json.find(family), std::string::npos) << family;
  }
  EXPECT_TRUE(run.timeline_json.empty());
  EXPECT_TRUE(run.health_json.empty());
  EXPECT_TRUE(run.flight_json.empty());
  EXPECT_EQ(run.final_time, Seconds(30));
  EXPECT_EQ(env.slo(), nullptr);
}

// Finish stops the scrape loop and takes the final partial window: a run that
// ends between ticks still covers its tail, and the loop no longer rearms.
TEST(EnvironmentTest, FinishScrapesTheFinalPartialWindow) {
  Environment env(Mode::kOfc, SmallEnv(6));
  env.StartTelemetry(Seconds(10), {});
  env.loop().RunUntil(Seconds(25));
  const RunArtifacts run = env.Finish();
  ASSERT_NE(env.timeline(), nullptr);
  ASSERT_EQ(env.timeline()->windows().size(), 3u);  // Ticks at 10 s, 20 s + the tail.
  EXPECT_EQ(env.timeline()->windows().back().end, Seconds(25));
  EXPECT_FALSE(run.timeline_json.empty());
  EXPECT_FALSE(run.health_json.empty());
  env.loop().RunUntil(Seconds(60));
  EXPECT_EQ(env.timeline()->windows().size(), 3u);
}

TEST(RunArtifactsTest, DiffNamesEachDivergence) {
  RunArtifacts a;
  a.metrics_json = "{\n  \"x\": 1\n}";
  a.final_time = 5;
  RunArtifacts b = a;
  EXPECT_TRUE(a.Diff(b).empty());
  b.metrics_json = "{\n  \"x\": 2\n}";
  b.final_time = 6;
  EXPECT_EQ(a.Diff(b), (std::vector<std::string>{"final sim time diverged: 5 vs 6 us",
                                                  "metrics JSON diverged at line 2 (byte 9)"}));
}

TEST(InjectorTest, AddTenantRejectsUnknownFunction) {
  Environment env(Mode::kOwkSwift, SmallEnv(3));
  LoadInjector injector(&env, TenantProfile::kNormal, 4);
  TenantSpec spec;
  spec.name = "t";
  spec.function = "no_such_function";
  EXPECT_EQ(injector.AddTenant(spec).code(), StatusCode::kNotFound);
  spec.is_pipeline = true;
  spec.function = "no_such_pipeline";
  EXPECT_EQ(injector.AddTenant(spec).code(), StatusCode::kNotFound);
}

TEST(InjectorTest, DatasetIsSeededInRsds) {
  Environment env(Mode::kOwkSwift, SmallEnv(5));
  LoadInjector injector(&env, TenantProfile::kNormal, 6);
  TenantSpec spec;
  spec.name = "alice";
  spec.function = "wand_blur";
  spec.dataset_objects = 5;
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  EXPECT_EQ(env.rsds().NumObjects(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(env.rsds().Exists("data/alice/obj" + std::to_string(i)));
  }
  EXPECT_NE(env.platform().GetFunction("wand_blur"), nullptr);
}

TEST(InjectorTest, ObjectSizeTargetIsRespected) {
  Environment env(Mode::kOwkSwift, SmallEnv(7));
  LoadInjector injector(&env, TenantProfile::kNormal, 8);
  TenantSpec spec;
  spec.name = "bob";
  spec.function = "wand_blur";
  spec.dataset_objects = 8;
  spec.object_size = KiB(256);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  for (int i = 0; i < 8; ++i) {
    const auto meta = env.rsds().Stat("data/bob/obj" + std::to_string(i));
    ASSERT_TRUE(meta.ok());
    EXPECT_GT(meta->size, KiB(128));
    EXPECT_LT(meta->size, KiB(512));
  }
}

TEST(InjectorTest, PipelineTenantSeedsChunksAndRegistersStages) {
  Environment env(Mode::kOwkSwift, SmallEnv(9));
  LoadInjector injector(&env, TenantProfile::kNormal, 10);
  TenantSpec spec;
  spec.name = "carol";
  spec.function = "map_reduce";
  spec.is_pipeline = true;
  spec.pipeline_input_size = MiB(5);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  EXPECT_EQ(env.rsds().NumObjects(), 10u);  // 5 MiB / 512 KiB chunks.
  EXPECT_NE(env.platform().GetFunction("mr_map"), nullptr);
  EXPECT_NE(env.platform().GetFunction("mr_reduce"), nullptr);
}

TEST(InjectorTest, FanInStagesGetLargerBookings) {
  // The reduce stage aggregates every map output, so a profile-aware booking
  // must exceed the map stage's for a large enough input.
  Environment env(Mode::kOwkSwift, SmallEnv(11));
  LoadInjector injector(&env, TenantProfile::kAdvanced, 12);
  TenantSpec spec;
  spec.name = "dave";
  spec.function = "map_reduce";
  spec.is_pipeline = true;
  spec.pipeline_input_size = MiB(30);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  const Bytes map_booked = env.platform().GetFunction("mr_map")->booked_memory;
  const Bytes reduce_booked = env.platform().GetFunction("mr_reduce")->booked_memory;
  EXPECT_GT(reduce_booked, map_booked / 2);
  EXPECT_GE(map_booked, MiB(64));  // Clamped up to OWK's minimum.
}

TEST(InjectorTest, NaiveProfileBooksPlatformMax) {
  Environment env(Mode::kOwkSwift, SmallEnv(13));
  LoadInjector injector(&env, TenantProfile::kNaive, 14);
  TenantSpec spec;
  spec.name = "erin";
  spec.function = "wand_sepia";
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  EXPECT_EQ(env.platform().GetFunction("wand_sepia")->booked_memory,
            env.platform().options().max_sandbox_memory);
}

TEST(InjectorTest, PeriodicArrivalsAreRegular) {
  Environment env(Mode::kOwkSwift, SmallEnv(15));
  LoadInjector injector(&env, TenantProfile::kNormal, 16);
  TenantSpec spec;
  spec.name = "frank";
  spec.function = "wand_thumbnail";
  spec.mean_interval_s = 30.0;
  spec.arrivals = ArrivalPattern::kPeriodic;
  spec.dataset_objects = 1;
  spec.object_size = KiB(64);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  injector.Run(Minutes(5));
  // 300 s / 30 s = 10 invocations, minus edge effects.
  const auto& result = injector.results()[0];
  EXPECT_GE(result.invocations.size(), 9u);
  EXPECT_LE(result.invocations.size(), 10u);
}

TEST(InjectorTest, ExponentialArrivalCountIsPlausible) {
  Environment env(Mode::kOwkSwift, SmallEnv(17));
  LoadInjector injector(&env, TenantProfile::kNormal, 18);
  TenantSpec spec;
  spec.name = "grace";
  spec.function = "wand_thumbnail";
  spec.mean_interval_s = 10.0;
  spec.dataset_objects = 1;
  spec.object_size = KiB(64);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  injector.Run(Minutes(30));
  // Poisson with mean 180 arrivals: within +-40 % is a safe deterministic-seed
  // bound.
  const auto& result = injector.results()[0];
  EXPECT_GE(result.invocations.size(), 108u);
  EXPECT_LE(result.invocations.size(), 252u);
}

TEST(InjectorTest, BurstyArrivalsComeInTrains) {
  Environment env(Mode::kOwkSwift, SmallEnv(19));
  LoadInjector injector(&env, TenantProfile::kNormal, 20);
  TenantSpec spec;
  spec.name = "heidi";
  spec.function = "wand_thumbnail";
  spec.arrivals = ArrivalPattern::kBursty;
  spec.mean_interval_s = 120.0;
  spec.burst_size = 6;
  spec.burst_spacing_s = 1.0;
  spec.dataset_objects = 1;
  spec.object_size = KiB(64);
  ASSERT_TRUE(injector.AddTenant(spec).ok());
  injector.Run(Minutes(30));
  const auto& result = injector.results()[0];
  // Roughly 15 bursts x 6 invocations.
  EXPECT_GE(result.invocations.size(), 30u);
  // Bursts mean multiples of burst_size cluster in time: verify the total is
  // consistent with whole trains (within edge-of-horizon truncation).
  EXPECT_LE(result.invocations.size() % 6, 5u);
}

TEST(TenantResultTest, AggregationHelpers) {
  TenantResult result;
  result.name = "t";
  faas::InvocationRecord a;
  a.total = Seconds(2);
  faas::InvocationRecord b;
  b.total = Seconds(3);
  b.failed = true;
  result.invocations = {a, b};
  faas::PipelineRecord p;
  p.total = Seconds(5);
  result.pipelines = {p};
  EXPECT_EQ(result.TotalExecutionTime(), Seconds(10));
  EXPECT_EQ(result.FailureCount(), 1u);
}

}  // namespace
}  // namespace ofc::faasload
