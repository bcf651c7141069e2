// Reproduces Table V: averaged FLOPs and single-sample inference time of
// the heavy / predefined light / NAS-searched ("Ours") models on both
// datasets and both encoder families.
//
// The "Ours" column onboards two representative scenarios with the
// system's step (meta-adapted teacher, budget-limited NAS, distillation) and
// averages the searched models' FLOPs; inference time is the median of
// repeated single-sample predictions.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/util/table_printer.h"

namespace alt {
namespace bench {
namespace {

double MedianInferenceMs(models::BaseModel* model,
                         const data::ScenarioData& dataset, int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    data::Batch one = MakeBatch(
        dataset, {static_cast<size_t>(r % dataset.num_samples())});
    const double start = MonotonicSeconds();
    model->PredictProbs(one);
    times.push_back((MonotonicSeconds() - start) * 1e3);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Row {
  double heavy_flops = 0.0;
  double light_flops = 0.0;
  double ours_flops = 0.0;
  double heavy_ms = 0.0;
  double light_ms = 0.0;
  double ours_ms = 0.0;
};

/// With --quant=int8, every model is post-training quantized (eval-mode
/// Linear layers take the int8 GEMM) before its inference time is measured;
/// FLOPs columns still report the fp32-equivalent count.
void MaybeQuantize(models::BaseModel* model, bool quantize) {
  if (!quantize) return;
  model->SetTraining(false);
  model->QuantizeForServing();
}

Row Measure(BenchOptions options, models::EncoderKind kind, int64_t reps,
            bool quantize) {
  Row row;
  auto scenarios = PrepareWorkload(options);
  Rng rng(options.seed);
  auto heavy = models::BuildBaseModel(options.HeavyConfig(kind), &rng);
  auto light = models::BuildBaseModel(options.LightConfig(kind), &rng);
  ALT_CHECK(heavy.ok() && light.ok());
  row.heavy_flops = static_cast<double>(heavy.value()->FlopsPerSample());
  row.light_flops = static_cast<double>(light.value()->FlopsPerSample());
  MaybeQuantize(heavy.value().get(), quantize);
  MaybeQuantize(light.value().get(), quantize);
  row.heavy_ms =
      MedianInferenceMs(heavy.value().get(), scenarios[0].test, reps);
  row.light_ms =
      MedianInferenceMs(light.value().get(), scenarios[0].test, reps);

  // "Ours": onboarding of two representative scenarios (one large, one
  // small).
  std::unique_ptr<meta::MetaLearner> learner = InitializeLearner(
      options, scenarios,
      PickInitialScenarios(options, static_cast<int64_t>(scenarios.size())),
      kind);
  const core::OnboardOptions onboard =
      options.MakeOnboardOptions(options.LightConfig(kind));
  std::vector<size_t> picks = {0, scenarios.size() - 3};
  double flops_total = 0.0;
  double ms_total = 0.0;
  for (size_t pick : picks) {
    auto onboarded = core::OnboardScenario(
        learner.get(), scenarios[pick].train, data::ScenarioData(), onboard);
    ALT_CHECK(onboarded.ok()) << onboarded.status().ToString();
    models::BaseModel* ours = onboarded.value().light.get();
    flops_total += static_cast<double>(ours->FlopsPerSample());
    MaybeQuantize(ours, quantize);
    ms_total += MedianInferenceMs(ours, scenarios[pick].test,
                                  static_cast<int>(reps));
  }
  row.ours_flops = flops_total / static_cast<double>(picks.size());
  row.ours_ms = ms_total / static_cast<double>(picks.size());
  return row;
}

std::string FlopsStr(double flops) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fM", flops / 1e6);
  return buf;
}

}  // namespace
}  // namespace bench
}  // namespace alt

int main(int argc, char** argv) {
  using namespace alt;
  bench::Flags flags(argc, argv);
  bench::BenchOptions base;
  base.ApplyFlags(flags);
  const int64_t reps = flags.GetInt("reps", 201);
  const std::string quant = flags.GetString("quant", "");
  ALT_CHECK(quant.empty() || quant == "int8")
      << "unknown --quant value '" << quant << "' (expected int8)";
  const bool quantize = quant == "int8";

  std::printf("=== Table V: averaged FLOPs and inference time ===\n");
  std::printf("seq_len=%lld (paper: 128), single-sample inference, median "
              "of %lld reps%s\n\n",
              static_cast<long long>(base.seq_len),
              static_cast<long long>(reps),
              quantize ? ", int8-quantized serving path" : "");

  TablePrinter table({"metric", "dataset", "encoder", "Heavy", "Light",
                      "Ours"});
  for (auto [workload, wname, scale] :
       {std::tuple{bench::Workload::kDatasetA, "A", 1.0 / 600.0},
        std::tuple{bench::Workload::kDatasetB, "B", 1.0 / 150.0}}) {
    for (auto [kind, kname] :
         {std::pair{models::EncoderKind::kLstm, "LSTM"},
          std::pair{models::EncoderKind::kBert, "BERT"}}) {
      bench::BenchOptions options = base;
      options.workload = workload;
      options.scale = scale;
      bench::Row row = bench::Measure(options, kind, reps, quantize);
      table.AddRow({"FLOPs", wname, kname, bench::FlopsStr(row.heavy_flops),
                    bench::FlopsStr(row.light_flops),
                    bench::FlopsStr(row.ours_flops)});
      table.AddRow({"time(ms)", wname, kname,
                    TablePrinter::Num(row.heavy_ms, 3),
                    TablePrinter::Num(row.light_ms, 3),
                    TablePrinter::Num(row.ours_ms, 3)});
    }
  }
  table.Print();
  std::printf(
      "\nPaper Table V reference (seq len 128): FLOPs A: LSTM 4.78M/2.46M/"
      "2.12M, BERT 4.74M/2.44M/2.07M; B: LSTM 5.19M/2.75M/2.61M, BERT "
      "5.14M/2.68M/2.58M.\nInference A: LSTM 10.25/5.14/3.13ms, BERT "
      "6.71/3.42/2.96ms; B: LSTM 11.12/5.43/2.61ms, BERT 7.29/3.72/3.54ms.\n"
      "Expected shape: Heavy > Light > Ours in both FLOPs and latency.\n");
  return 0;
}
