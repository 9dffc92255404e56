// Figure 5: distribution of memory-prediction errors for J48 with 16 MB
// intervals, all functions combined (raw predictions, before the conservative
// next-interval bump). The paper reports that 90 % of overpredictions fall
// within 3 intervals of the truth, for an average waste of only 26.8 MB.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/trace_util.h"
#include "src/common/stats.h"
#include "src/ml/evaluation.h"
#include "src/ml/j48.h"

namespace ofc {
namespace {

void Run() {
  bench::Banner("J48 memory-prediction error distribution (16 MB intervals)",
                "Figure 5 (§7.1.1): 90 % of overpredictions within 3 intervals; "
                "average waste ~27 MB");

  const core::MemoryIntervals intervals(MiB(16), GiB(2));
  std::vector<int> all_errors;
  int function_index = 0;
  for (const workloads::FunctionSpec& spec : workloads::AllFunctions()) {
    const ml::Dataset data =
        bench::BuildMemoryDataset(spec, intervals, 400, 3000 + function_index++);
    Rng rng(55);
    const auto result = ml::CrossValidate(
        [] { return std::make_unique<ml::J48>(); }, data, 10, rng);
    all_errors.insert(all_errors.end(), result.errors.begin(), result.errors.end());
  }

  Histogram histogram(-8.5 * 16, 8.5 * 16, 17);  // +-8 intervals in MB.
  std::size_t exact = 0;
  std::size_t over = 0;
  std::size_t over_within3 = 0;
  std::size_t under = 0;
  RunningStat over_waste_mb;
  for (int err : all_errors) {
    histogram.Add(static_cast<double>(err) * 16.0);
    if (err == 0) {
      ++exact;
    } else if (err > 0) {
      ++over;
      if (err <= 3) {
        ++over_within3;
      }
      over_waste_mb.Add(static_cast<double>(err) * 16.0);
    } else {
      ++under;
    }
  }

  std::printf("%s\n", histogram.ToString("Error distribution (MB to truth)").c_str());
  bench::Table table({"Metric", "Value"});
  const double n = static_cast<double>(all_errors.size());
  table.AddRow({"Predictions", std::to_string(all_errors.size())});
  table.AddRow({"Exact (%)", bench::Fmt("%.1f", 100.0 * static_cast<double>(exact) / static_cast<double>(n))});
  table.AddRow({"Over (%)", bench::Fmt("%.1f", 100.0 * static_cast<double>(over) / static_cast<double>(n))});
  table.AddRow({"Under (%)", bench::Fmt("%.1f", 100.0 * static_cast<double>(under) / static_cast<double>(n))});
  table.AddRow({"Overpredictions within 3 intervals (%)",
                bench::Fmt("%.1f", over == 0 ? 100.0 : 100.0 * static_cast<double>(over_within3) / static_cast<double>(over))});
  table.AddRow({"Average overprediction waste (MB)",
                bench::Fmt("%.1f", over_waste_mb.mean())});
  table.Print();
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
