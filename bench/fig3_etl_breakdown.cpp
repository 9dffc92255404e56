// Figure 3 (§2.2.3): contribution of the E/T/L phases for a single-stage image
// function (sharp_resize) and a pipeline (MapReduce word count), with the data
// in an S3-style RSDS vs. in a Redis IMOC.
//
// Expected shape: with the RSDS, E&L dominates small-object functions (up to
// ~97 % at 128 kB) and is a large share of the pipeline (~52 % at 30 MB); with
// Redis, the E&L contribution becomes negligible.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/micro_common.h"

namespace ofc {
namespace {

// The §2.2.3 motivation experiment runs on AWS: S3 as the RSDS. Swap the
// environment's store profile by measuring the baselines only (no OFC).
void Run() {
  bench::Banner("ETL phase breakdown: RSDS (S3-style) vs IMOC (Redis)",
                "Figure 3 (§2.2.3)");

  std::printf("\n(a) sharp_resize, single-stage image processing\n");
  bench::Table image_table({"Input size", "Backend", "E (s)", "T (s)", "L (s)",
                            "E&L share (%)"});
  for (Bytes size : {KiB(1), KiB(16), KiB(32), KiB(64), KiB(128), KiB(512), KiB(1024),
                     KiB(3072)}) {
    for (faasload::Mode mode : {faasload::Mode::kOwkSwift, faasload::Mode::kOwkRedis}) {
      const bench::EtlBreakdown etl = bench::RunSingleFunction(
          mode, bench::CacheScenario::kMiss, "sharp_resize", size, 42,
          mode == faasload::Mode::kOwkSwift ? std::optional(store::StoreProfile::S3())
                                            : std::nullopt);
      image_table.AddRow(
          {FormatBytes(size), mode == faasload::Mode::kOwkSwift ? "RSDS" : "Redis",
           bench::Fmt("%.4f", etl.extract_s), bench::Fmt("%.4f", etl.compute_s),
           bench::Fmt("%.4f", etl.load_s), bench::Fmt("%.1f", 100.0 * etl.EOverTotal())});
    }
  }
  image_table.Print();

  std::printf("\n(b) map_reduce word count, multi-stage pipeline\n");
  bench::Table mr_table({"Input size", "Backend", "E (s)", "T (s)", "L (s)",
                         "E&L share (%)"});
  for (Bytes size : {MiB(1), MiB(5), MiB(10), MiB(20), MiB(30)}) {
    for (faasload::Mode mode : {faasload::Mode::kOwkSwift, faasload::Mode::kOwkRedis}) {
      const bench::EtlBreakdown etl = bench::RunPipeline(
          mode, bench::CacheScenario::kMiss, "map_reduce", size, 43,
          mode == faasload::Mode::kOwkSwift ? std::optional(store::StoreProfile::S3())
                                            : std::nullopt);
      mr_table.AddRow(
          {FormatBytes(size), mode == faasload::Mode::kOwkSwift ? "RSDS" : "Redis",
           bench::Fmt("%.3f", etl.extract_s), bench::Fmt("%.3f", etl.compute_s),
           bench::Fmt("%.3f", etl.load_s), bench::Fmt("%.1f", 100.0 * etl.EOverTotal())});
    }
  }
  mr_table.Print();

  std::printf(
      "\nExpected shape: E&L dominates with the RSDS (up to ~97%% for small images,\n"
      "~half the pipeline time in absolute seconds); with Redis the absolute E&L\n"
      "cost drops by an order of magnitude and stops limiting the functions.\n");
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  if (!ofc::ParseFlags(argc, argv, {})) {
    return 2;
  }
  ofc::Run();
  return 0;
}
