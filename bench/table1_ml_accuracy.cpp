// Table 1: exact and exact-or-over (EO) prediction accuracy of four decision
// tree algorithms (HoeffdingTree, J48, RandomForest, RandomTree) across memory
// interval sizes {32, 16, 8} MB, averaged over all 19 functions, via 10-fold
// cross-validation. Also reproduces the §7.1.1 cache-benefit model metrics
// (precision / recall / F-measure for J48).
//
// Expected shape (paper): J48 ~ RandomForest > RandomTree > HoeffdingTree;
// accuracy decreases as intervals shrink; benefit model P/R/F near 99 %.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "bench/trace_util.h"
#include "src/ml/evaluation.h"
#include "src/ml/hoeffding_tree.h"
#include "src/ml/j48.h"
#include "src/ml/random_forest.h"
#include "src/ml/random_tree.h"

namespace ofc {
namespace {

constexpr int kInvocationsPerFunction = 400;
constexpr int kFolds = 10;

ml::ClassifierFactory MakeFactory(const std::string& algorithm) {
  if (algorithm == "J48") {
    return [] { return std::make_unique<ml::J48>(); };
  }
  if (algorithm == "RandomForest") {
    return [] {
      return std::make_unique<ml::RandomForest>(
          ml::RandomForestOptions{.num_trees = 20, .seed = 7});
    };
  }
  if (algorithm == "RandomTree") {
    return [] { return std::make_unique<ml::RandomTree>(ml::RandomTreeOptions{.seed = 7}); };
  }
  return [] {
    return std::make_unique<ml::HoeffdingTree>(ml::HoeffdingTreeOptions{.grace_period = 25});
  };
}

void MemoryAccuracy() {
  bench::Banner("ML memory-prediction accuracy", "Table 1 (§7.1.1)");
  bench::Table table({"Interval size", "Algorithm", "Exact (%)", "Exact-or-over (%)"});
  for (Bytes interval : {MiB(32), MiB(16), MiB(8)}) {
    const core::MemoryIntervals intervals(interval, GiB(2));
    for (const char* algorithm :
         {"HoeffdingTree", "J48", "RandomForest", "RandomTree"}) {
      double exact_sum = 0;
      double eo_sum = 0;
      int functions = 0;
      for (const workloads::FunctionSpec& spec : workloads::AllFunctions()) {
        const ml::Dataset data = bench::BuildMemoryDataset(
            spec, intervals, kInvocationsPerFunction, 1000 + functions);
        Rng rng(77);
        const auto result = ml::CrossValidate(MakeFactory(algorithm), data, kFolds, rng);
        exact_sum += result.confusion.Accuracy();
        eo_sum += result.confusion.ExactOrOverAccuracy();
        ++functions;
      }
      table.AddRow({FormatBytes(interval), algorithm,
                    bench::Fmt("%.2f", 100.0 * exact_sum / functions),
                    bench::Fmt("%.2f", 100.0 * eo_sum / functions)});
    }
  }
  table.Print();
}

void BenefitAccuracy() {
  bench::Banner("Cache-benefit prediction (J48 binary classifier)",
                "§7.1.1 'Prediction of cache benefit' (precision 98.8 %, recall 98.6 %)");
  double precision_sum = 0;
  double recall_sum = 0;
  double f_sum = 0;
  int functions = 0;
  for (const workloads::FunctionSpec& spec : workloads::AllFunctions()) {
    const ml::Dataset data = bench::BuildBenefitDataset(
        spec, store::StoreProfile::Swift(), kInvocationsPerFunction, 2000 + functions);
    // Skip functions whose benefit label is constant (always / never useful):
    // a binary classifier is trivially right there.
    const auto dist = data.ClassDistribution();
    if (dist[0] == 0.0 || dist[1] == 0.0) {
      continue;
    }
    Rng rng(99);
    const auto result =
        ml::CrossValidate([] { return std::make_unique<ml::J48>(); }, data, kFolds, rng);
    precision_sum += result.confusion.Precision(1);
    recall_sum += result.confusion.Recall(1);
    f_sum += result.confusion.FMeasure(1);
    ++functions;
  }
  bench::Table table({"Metric", "Value (%)"});
  table.AddRow({"Precision", bench::Fmt("%.1f", 100.0 * precision_sum / functions)});
  table.AddRow({"Recall", bench::Fmt("%.1f", 100.0 * recall_sum / functions)});
  table.AddRow({"F-measure", bench::Fmt("%.1f", 100.0 * f_sum / functions)});
  table.Print();
  std::printf("(averaged over %d functions with non-trivial benefit labels)\n", functions);
}

}  // namespace
}  // namespace ofc

int main(int argc, char** argv) {
  if (!ofc::ParseFlags(argc, argv, {})) {
    return 2;
  }
  ofc::MemoryAccuracy();
  ofc::BenefitAccuracy();
  return 0;
}
