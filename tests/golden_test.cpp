// Golden-file regression tests for every exporter artifact: the end-of-run
// metrics snapshot (JSON and CSV), the windowed timeline, the SLO health
// summary, the flight-recorder dump, and the Chrome trace.
//
// A fixed scenario (seed 42, three tenants, five simulated minutes) runs
// in-process and each artifact is compared byte-for-byte against
// tests/testdata/goldens/. A second, faulted scenario pins the RAMCloud
// recovery paths (scrubber quarantine drain and crash recovery) through its
// metrics snapshot and flight dump. Both scenarios are run through
// faasload::Environment, the same assembly ofc-sim runs. The simulator's
// determinism guarantee is what makes this sound: the selfcheck harness proves
// these artifacts are byte-identical across replays, so any diff here is a real
// format or behavior change — either a regression, or an intentional change
// that must be re-blessed with tools/update_goldens.py (set
// OFC_UPDATE_GOLDENS=1 to rewrite the files in place).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/faasload/environment.h"
#include "src/faasload/injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/slo.h"

namespace ofc {
namespace {

namespace fs = std::filesystem;

bool UpdateMode() {
  const char* env = std::getenv("OFC_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The run's artifacts plus the two exports only the golden scenario pins.
struct GoldenRun {
  faasload::RunArtifacts run;
  std::string metrics_csv;
  std::string trace_json;
};

// The fixed scenario. Anything touched here invalidates the goldens, which is
// the point: the blessed files pin scenario + exporter behavior together.
GoldenRun RunGoldenScenario() {
  faasload::EnvironmentOptions options;
  options.seed = 42;
  faasload::Environment env(faasload::Mode::kOfc, options);
  env.flight().set_capacity(128);
  env.flight().set_enabled(true);
  env.trace().set_enabled(true);

  std::vector<obs::SloSpec> slo_specs;
  std::string error;
  EXPECT_TRUE(obs::ParseSloSpecs(
      "warm=lat:ofc.platform.total_ms:p99:250\n"
      "shed=rate:ofc.overload.shed/ofc.platform.invocations:0.01",
      &slo_specs, &error))
      << error;

  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, /*seed=*/43);
  for (const char* function : {"wand_blur", "wand_sepia", "wand_edge"}) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 20.0;
    EXPECT_TRUE(injector.AddTenant(spec).ok());
  }

  env.StartTelemetry(Seconds(30), slo_specs);
  injector.PretrainModels(100);
  injector.Run(Minutes(5));

  GoldenRun golden;
  golden.run = env.Finish("golden scenario end-of-run dump");
  golden.metrics_csv = env.metrics().SnapshotCsv(env.loop().now());
  golden.trace_json = env.trace().ToJson();
  return golden;
}

// Shared across tests: the scenario runs once, each artifact gets its own
// test so a diff names the exporter that moved.
const GoldenRun& GoldenArtifacts() {
  static const GoldenRun golden = RunGoldenScenario();
  return golden;
}

// The recovery scenario is the run `ofc-sim --duration-min=6
// --scrub-interval-s=5 --fault-plan=PLAN` with PLAN
// tests/testdata/fault_plans/valid/quarantine_and_crash.json
// (ofc-sim's defaults: seed 42, four 16 GiB workers, three tenants every 30 s,
// 1000 pretraining invocations). Repeated corruption makes the scrubber
// quarantine nodes 0 and 1, then node 2 crashes, so both backup-promotion
// paths run and their checksum policies, losses and recovery counts are pinned.
// tools/obs_smoke_test.py runs that command through the shipped CLI and
// requires its --metrics-json to equal recovery_metrics.json byte for byte.
faasload::RunArtifacts RunRecoveryScenario() {
  faasload::EnvironmentOptions options;
  options.platform.num_workers = 4;
  options.platform.worker_memory = GiB(16);
  options.seed = 42;
  faasload::Environment env(faasload::Mode::kOfc, options);
  env.flight().set_enabled(true);

  faasload::LoadInjector injector(&env, faasload::TenantProfile::kNormal, /*seed=*/43);
  for (const char* function : {"wand_blur", "wand_sepia", "wand_edge"}) {
    faasload::TenantSpec spec;
    spec.name = std::string("t-") + function;
    spec.function = function;
    spec.mean_interval_s = 30.0;
    EXPECT_TRUE(injector.AddTenant(spec).ok());
  }

  std::ifstream in(fs::path(OFC_TESTDATA_DIR) / "fault_plans" / "valid" /
                   "quarantine_and_crash.json");
  std::ostringstream body;
  body << in.rdbuf();
  auto plan = fault::ParseFaultPlanJson(body.str());
  EXPECT_TRUE(plan.ok()) << plan.status().message();
  plan->Sort();
  EXPECT_TRUE(env.faults().Schedule(*plan).ok());
  EXPECT_TRUE(env.StartScrubber(core::ScrubberOptions{.interval = Seconds(5)}).ok());

  injector.PretrainModels(1000);
  injector.Run(Minutes(6));
  return env.Finish("recovery scenario end-of-run dump");
}

const faasload::RunArtifacts& RecoveryArtifacts() {
  static const faasload::RunArtifacts run = RunRecoveryScenario();
  return run;
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const fs::path path = fs::path(OFC_TESTDATA_DIR) / "goldens" / name;
  if (UpdateMode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run tools/update_goldens.py to bless it";
  std::ostringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) {
    return;
  }
  // Point at the first differing line so the failure is debuggable without
  // dumping two multi-kilobyte artifacts.
  const std::string& want = expected.str();
  std::size_t pos = 0;
  int line = 1;
  while (pos < want.size() && pos < actual.size() && want[pos] == actual[pos]) {
    if (want[pos] == '\n') {
      ++line;
    }
    ++pos;
  }
  const auto context = [](const std::string& s, std::size_t at) {
    const std::size_t begin = s.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
    const std::size_t end = s.find('\n', at);
    return s.substr(start, (end == std::string::npos ? s.size() : end) - start);
  };
  FAIL() << name << " diverged from its golden at line " << line << " (byte " << pos
         << ")\n  golden: " << context(want, pos) << "\n  actual: " << context(actual, pos)
         << "\nIf the change is intentional, re-bless with tools/update_goldens.py";
}

TEST(GoldenTest, MetricsJson) {
  CompareOrUpdate("metrics.json", GoldenArtifacts().run.metrics_json);
}

TEST(GoldenTest, MetricsCsv) { CompareOrUpdate("metrics.csv", GoldenArtifacts().metrics_csv); }

TEST(GoldenTest, TimelineJson) {
  CompareOrUpdate("timeline.json", GoldenArtifacts().run.timeline_json);
}

TEST(GoldenTest, HealthJson) {
  CompareOrUpdate("health.json", GoldenArtifacts().run.health_json);
}

TEST(GoldenTest, FlightJson) {
  CompareOrUpdate("flight.json", GoldenArtifacts().run.flight_json);
}

TEST(GoldenTest, TraceJson) { CompareOrUpdate("trace.json", GoldenArtifacts().trace_json); }

TEST(GoldenTest, RecoveryMetricsJson) {
  CompareOrUpdate("recovery_metrics.json", RecoveryArtifacts().metrics_json);
}

TEST(GoldenTest, RecoveryFlightJson) {
  CompareOrUpdate("recovery_flight.json", RecoveryArtifacts().flight_json);
}

}  // namespace
}  // namespace ofc
