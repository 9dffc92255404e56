// Figure 7 (§7.2.1): end-to-end ETL durations of 6 single-stage image functions
// and 4 multi-stage pipelines under five configurations: OWK-Swift, OWK-Redis,
// and OFC in the LocalHit / Miss / RemoteHit cache scenarios.
//
// Expected shape:
//   * OFC-LH beats OWK-Swift by up to ~82 % (single-stage) / ~60 % (pipelines)
//     and closely tracks OWK-Redis;
//   * OFC-M still beats OWK-Swift (outputs are write-back buffered) but loses
//     to OWK-Redis;
//   * OFC-RH costs slightly more than OFC-LH (remote RAM access), far below
//     Swift reads.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/micro_common.h"

namespace ofc {
namespace {

struct Config {
  faasload::Mode mode;
  bench::CacheScenario scenario;
};

const Config kConfigs[] = {
    {faasload::Mode::kOwkSwift, bench::CacheScenario::kMiss},
    {faasload::Mode::kOwkRedis, bench::CacheScenario::kMiss},
    {faasload::Mode::kOfc, bench::CacheScenario::kLocalHit},
    {faasload::Mode::kOfc, bench::CacheScenario::kMiss},
    {faasload::Mode::kOfc, bench::CacheScenario::kRemoteHit},
};

void SingleStage() {
  const char* kFunctions[] = {"wand_blur", "wand_resize", "wand_sepia",
                              "wand_rotate", "wand_denoise", "wand_edge"};
  for (const char* function : kFunctions) {
    std::printf("\n--- %s ---\n", function);
    bench::Table table({"Input size", "Config", "E (ms)", "T (ms)", "L (ms)",
                        "total (ms)", "vs OWK-Swift (%)"});
    for (Bytes size : {KiB(1), KiB(16), KiB(64), KiB(128), KiB(1024), KiB(3072)}) {
      double swift_total = 0;
      for (const Config& config : kConfigs) {
        const bench::EtlBreakdown etl =
            bench::RunSingleFunction(config.mode, config.scenario, function, size, 77);
        if (config.mode == faasload::Mode::kOwkSwift) {
          swift_total = etl.total_s;
        }
        const double gain =
            swift_total <= 0 ? 0 : 100.0 * (swift_total - etl.total_s) / swift_total;
        table.AddRow({FormatBytes(size), bench::ScenarioName(config.mode, config.scenario),
                      bench::Fmt("%.2f", etl.extract_s * 1e3),
                      bench::Fmt("%.2f", etl.compute_s * 1e3),
                      bench::Fmt("%.2f", etl.load_s * 1e3),
                      bench::Fmt("%.2f", etl.total_s * 1e3), bench::Fmt("%+.1f", gain)});
      }
    }
    table.Print();
  }
}

void Pipelines() {
  struct PipelineCase {
    const char* name;
    std::vector<Bytes> sizes;
  };
  const PipelineCase kCases[] = {
      {"map_reduce", {MiB(5), MiB(15), MiB(30)}},
      {"THIS", {MiB(30), MiB(60), MiB(125)}},
      {"IMAD", {MiB(5), MiB(15), MiB(30)}},
      {"image_processing", {MiB(1), MiB(3), MiB(8)}},
  };
  for (const PipelineCase& pipeline_case : kCases) {
    std::printf("\n--- pipeline: %s ---\n", pipeline_case.name);
    bench::Table table({"Input size", "Config", "E (s)", "T (s)", "L (s)", "total (s)",
                        "vs OWK-Swift (%)"});
    for (Bytes size : pipeline_case.sizes) {
      double swift_total = 0;
      for (const Config& config : kConfigs) {
        const bench::EtlBreakdown etl = bench::RunPipeline(
            config.mode, config.scenario, pipeline_case.name, size, 78);
        if (config.mode == faasload::Mode::kOwkSwift) {
          swift_total = etl.total_s;
        }
        const double gain =
            swift_total <= 0 ? 0 : 100.0 * (swift_total - etl.total_s) / swift_total;
        table.AddRow({FormatBytes(size), bench::ScenarioName(config.mode, config.scenario),
                      bench::Fmt("%.3f", etl.extract_s), bench::Fmt("%.3f", etl.compute_s),
                      bench::Fmt("%.3f", etl.load_s), bench::Fmt("%.3f", etl.total_s),
                      bench::Fmt("%+.1f", gain)});
      }
    }
    table.Print();
  }
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  if (!ofc::ParseFlags(argc, argv, {})) {
    return 2;
  }
  ofc::bench::Banner(
      "End-to-end ETL durations under OWK-Swift / OWK-Redis / OFC-{LH,M,RH}",
      "Figure 7 (§7.2.1)");
  ofc::SingleStage();
  ofc::Pipelines();
  return 0;
}
