// Figure 2: memory usage of an image-blurring function plotted against (top)
// the byte size of the input and (bottom) the function-specific argument
// (blurring sigma). The paper's point — reproduced here — is that neither
// single feature correlates cleanly with memory usage, while the full feature
// set (dimensions + format + argument) does, which motivates the ML models.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/workloads/functions.h"
#include "src/workloads/media.h"

namespace ofc {
namespace {

void Run() {
  bench::Banner("Memory usage vs. single input features (wand_blur)",
                "Figure 2 + §2.2.2 (why single features cannot predict memory)");

  const workloads::FunctionSpec* blur = workloads::FindFunction("wand_blur");
  Rng rng(2024);
  workloads::MediaGenerator generator(rng.Fork());

  const int kSamples = 600;
  std::vector<double> byte_sizes_mb;
  std::vector<double> sigmas;
  std::vector<double> decoded_mb;
  std::vector<double> memories_mb;
  for (int i = 0; i < kSamples; ++i) {
    const workloads::MediaDescriptor media = generator.Generate(blur->kind);
    const std::vector<double> args = workloads::SampleArgs(*blur, rng);
    const workloads::InvocationDemand demand =
        workloads::ComputeDemand(*blur, media, args, &rng);
    byte_sizes_mb.push_back(static_cast<double>(media.byte_size) / 1e6);
    sigmas.push_back(args[0]);
    decoded_mb.push_back(static_cast<double>(media.DecodedBytes()) / 1e6);
    memories_mb.push_back(static_cast<double>(demand.memory) / 1e6);
  }

  // Scatter summaries: memory distribution per byte-size band (top plot) and
  // per sigma band (bottom plot).
  auto band_table = [&](const std::vector<double>& feature, double lo, double hi, int bands,
                        const char* label, const char* unit) {
    std::printf("\nMemory usage by %s band:\n", label);
    bench::Table table({std::string(label) + " (" + unit + ")", "n", "mem min (MB)",
                        "mem mean (MB)", "mem max (MB)"});
    const double width = (hi - lo) / bands;
    for (int b = 0; b < bands; ++b) {
      RunningStat stat;
      for (int i = 0; i < kSamples; ++i) {
        if (feature[i] >= lo + b * width && feature[i] < lo + (b + 1) * width) {
          stat.Add(memories_mb[i]);
        }
      }
      if (stat.count() == 0) {
        continue;
      }
      char range[64];
      std::snprintf(range, sizeof(range), "%.1f-%.1f", lo + b * width, lo + (b + 1) * width);
      table.AddRow({range, std::to_string(stat.count()), bench::Fmt("%.0f", stat.min()),
                    bench::Fmt("%.0f", stat.mean()), bench::Fmt("%.0f", stat.max())});
    }
    table.Print();
  };

  band_table(byte_sizes_mb, 0.0, 6.0, 8, "input byte size", "MB");
  band_table(sigmas, 0.0, 6.0, 6, "sigma", "blur radius arg");

  std::printf("\nCorrelation of memory usage with individual vs combined features:\n");
  bench::Table corr({"feature", "Pearson r with memory"});
  corr.AddRow({"input byte size alone", bench::Fmt("%.3f", bench::Pearson(byte_sizes_mb,
                                                                          memories_mb))});
  corr.AddRow({"sigma alone", bench::Fmt("%.3f", bench::Pearson(sigmas, memories_mb))});
  // The full feature set captures the decoded footprint x argument structure.
  std::vector<double> combined;
  for (int i = 0; i < kSamples; ++i) {
    combined.push_back(decoded_mb[i] * (6.0 + 2.0 * sigmas[i] / 6.0));
  }
  corr.AddRow({"decoded dims x arg (model features)",
               bench::Fmt("%.3f", bench::Pearson(combined, memories_mb))});
  corr.Print();

  std::printf(
      "\nPaper's claim: no precise correlation from byte size or the argument alone;\n"
      "ML over the full per-category feature set is required (§2.2.2). Expected shape:\n"
      "low |r| for the single features, r ~ 1 for the combined model features.\n");
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
