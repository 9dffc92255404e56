// Figure 10 (§7.2.2): evolution of OFC's cache size over the 30-minute macro
// experiment, for the three tenant profiles.
//
// Expected shape: the cache capacity tracks the hoardable (booked-but-unused)
// memory, so naive > normal > advanced, fluctuating as sandboxes come and go.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/macro_common.h"

namespace ofc {
namespace {

void Run() {
  bench::Banner("OFC cache size over time, per tenant profile", "Figure 10 (§7.2.2)");

  struct Series {
    faasload::TenantProfile profile;
    std::vector<bench::CacheSample> samples;
    double mean_capacity_gb = 0;
  };
  std::vector<Series> all;
  for (faasload::TenantProfile profile :
       {faasload::TenantProfile::kNormal, faasload::TenantProfile::kNaive,
        faasload::TenantProfile::kAdvanced}) {
    bench::MacroConfig config;
    config.mode = faasload::Mode::kOfc;
    config.profile = profile;
    const bench::MacroResult result = bench::RunMacro(config);
    Series series;
    series.profile = profile;
    series.samples = result.cache_series;
    double sum = 0;
    for (const bench::CacheSample& sample : result.cache_series) {
      sum += static_cast<double>(sample.capacity) / 1e9;
    }
    series.mean_capacity_gb =
        result.cache_series.empty() ? 0 : sum / static_cast<double>(result.cache_series.size());
    all.push_back(std::move(series));
  }

  bench::Table table({"minute", "normal cap (GB)", "naive cap (GB)", "advanced cap (GB)",
                      "normal used (GB)", "naive used (GB)", "advanced used (GB)"});
  const std::size_t n =
      std::min({all[0].samples.size(), all[1].samples.size(), all[2].samples.size()});
  for (std::size_t i = 0; i < n; i += 2) {  // Every minute (samples are 30 s apart).
    table.AddRow({bench::Fmt("%.1f", all[0].samples[i].minute),
                  bench::Fmt("%.2f", static_cast<double>(all[0].samples[i].capacity) / 1e9),
                  bench::Fmt("%.2f", static_cast<double>(all[1].samples[i].capacity) / 1e9),
                  bench::Fmt("%.2f", static_cast<double>(all[2].samples[i].capacity) / 1e9),
                  bench::Fmt("%.3f", static_cast<double>(all[0].samples[i].used) / 1e9),
                  bench::Fmt("%.3f", static_cast<double>(all[1].samples[i].used) / 1e9),
                  bench::Fmt("%.3f", static_cast<double>(all[2].samples[i].used) / 1e9)});
  }
  table.Print();

  bench::Table summary({"Profile", "mean cache capacity (GB)"});
  for (const Series& series : all) {
    summary.AddRow({faasload::TenantProfileName(series.profile),
                    bench::Fmt("%.2f", series.mean_capacity_gb)});
  }
  summary.Print();
  std::printf(
      "\nExpected shape: naive books 2 GB everywhere so it hoards the most;\n"
      "advanced books tight so it hoards the least; normal sits in between\n"
      "(paper Figure 10: roughly 5-25 GB over the run, ordered the same way).\n");
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
