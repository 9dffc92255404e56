// §7.1.3 model maturation quickness: for every function, feed the online
// training loop (ModelTrainer) with a stream of invocations and record how
// many invocations it takes to satisfy the §5.3.1 maturation criterion.
//
// Expected shape (paper): maturity checks start at 100 invocations; the median
// function matures at ~100, 75 % under 250, 95 % under 450.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/ml_service.h"

namespace ofc {
namespace {

void Run() {
  bench::Banner("Model maturation quickness (invocations until the §5.3.1 criterion)",
                "§7.1.3 (median ~100, 75% < 250, 95% < 450)");

  core::ModelConfig config;  // Production defaults (100-invocation floor).
  std::vector<int> matured_at;
  bench::Table table({"Function", "Matured after (invocations)"});
  for (const workloads::FunctionSpec& spec : workloads::AllFunctions()) {
    core::ModelRegistry registry(config);
    core::ModelTrainer trainer(&registry, store::StoreProfile::Swift());
    Rng rng(900 + matured_at.size());
    // Stream invocations in chunks until maturity (cap at 2000).
    core::FunctionModel& model = registry.GetOrCreate(spec);
    while (!model.mature() && model.observations() < 2000) {
      trainer.Pretrain(spec, 25, rng);
    }
    const int at = model.mature() ? model.matured_at() : -1;
    matured_at.push_back(at);
    table.AddRow({spec.name, at < 0 ? "did not mature (cap 2000)" : std::to_string(at)});
  }
  table.Print();

  std::vector<int> ok;
  for (int at : matured_at) {
    if (at >= 0) {
      ok.push_back(at);
    }
  }
  std::sort(ok.begin(), ok.end());
  auto quantile = [&](double q) {
    return ok.empty() ? 0 : ok[std::min(ok.size() - 1,
                                        static_cast<std::size_t>(q * static_cast<double>(ok.size())))];
  };
  bench::Table summary({"Metric", "Value"});
  summary.AddRow({"Functions matured", std::to_string(ok.size()) + " / " +
                                            std::to_string(matured_at.size())});
  summary.AddRow({"Median maturation (invocations)", std::to_string(quantile(0.5))});
  summary.AddRow({"75th percentile", std::to_string(quantile(0.75))});
  summary.AddRow({"95th percentile", std::to_string(quantile(0.95))});
  summary.Print();
  std::printf(
      "\nPaper reference: checks begin at 100 invocations (so 100 is the floor);\n"
      "median 100, 75%% of functions < 250, 95%% < 450 invocations.\n");
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
