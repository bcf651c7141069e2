// Reproduces Table VI: quality of the *initial* scenario agnostic model
// when built from {2, 4, 8, 16} initial scenarios, comparing the predefined
// LSTM and BERT heavy architectures against the NAS-constructed candidate.
// Averaged over 3 random initial-scenario draws, evaluated on a leave-out
// validation split of the pooled initial data (Sec. V-B5).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/nas/nas_search.h"
#include "src/train/trainer.h"
#include "src/util/table_printer.h"

namespace alt {
namespace bench {
namespace {

struct InitResult {
  double lstm = 0.0;
  double bert = 0.0;
  double nas = 0.0;
};

InitResult RunOnce(const BenchOptions& options,
                   const std::vector<PreparedScenario>& scenarios,
                   int64_t initial_count, uint64_t repeat) {
  BenchOptions opts = options;
  opts.initial_count = initial_count;
  auto initial = PickInitialScenarios(
      opts, static_cast<int64_t>(scenarios.size()), repeat);
  std::vector<data::ScenarioData> parts;
  for (int64_t idx : initial) {
    parts.push_back(scenarios[static_cast<size_t>(idx)].train);
  }
  data::ScenarioData pooled = data::ConcatScenarios(parts);
  Rng split_rng(options.seed * 11 + repeat);
  auto [fit, val] = data::SplitTrainTest(pooled, 0.25, &split_rng);

  train::TrainOptions train_options;
  train_options.epochs = options.epochs;
  train_options.learning_rate = options.learning_rate;
  train_options.seed = options.seed + repeat;

  InitResult result;
  for (auto [kind, out] :
       {std::pair{models::EncoderKind::kLstm, &result.lstm},
        std::pair{models::EncoderKind::kBert, &result.bert}}) {
    Rng rng(options.seed * 3 + repeat);
    auto model = models::BuildBaseModel(options.HeavyConfig(kind), &rng);
    ALT_CHECK(model.ok());
    ALT_CHECK(train::TrainModel(model.value().get(), fit, train_options).ok());
    *out = train::EvaluateAuc(model.value().get(), val);
  }

  // NAS candidate: unconstrained search on the pooled data (the init stage
  // has no inference budget — the agnostic model may be heavy).
  nas::NasSearchOptions nas_options;
  nas_options.supernet.num_layers = options.nas_layers;
  nas_options.search_epochs = options.nas_search_epochs;
  nas_options.weight_lr = options.learning_rate;
  nas_options.flops_budget = 0;
  nas_options.distill_delta = 0.0f;
  nas_options.final_train = train_options;
  nas_options.seed = options.seed * 17 + repeat;
  models::ModelConfig nas_base =
      options.HeavyConfig(models::EncoderKind::kLstm);
  auto nas_model = nas::SearchLightModel(nas_base, fit, nas_options, nullptr);
  ALT_CHECK(nas_model.ok()) << nas_model.status().ToString();
  result.nas = train::EvaluateAuc(nas_model.value().get(), val);
  return result;
}

}  // namespace
}  // namespace bench
}  // namespace alt

int main(int argc, char** argv) {
  using namespace alt;
  bench::Flags flags(argc, argv);
  bench::BenchOptions options;
  options.workload = bench::Workload::kDatasetA;
  options.ApplyFlags(flags);
  const int64_t repeats = flags.GetInt("repeats", 3);

  std::printf("=== Table VI: initial-model AUC, predefined vs NAS ===\n");
  std::printf("Dataset A, %lld repeats per cell\n\n",
              static_cast<long long>(repeats));
  auto scenarios = bench::PrepareWorkload(options);

  TablePrinter table({"Initial Numbers", "LSTM", "BERT", "NAS"});
  for (int64_t count : {2, 4, 8, 16}) {
    double lstm = 0.0;
    double bert = 0.0;
    double nas_auc = 0.0;
    for (int64_t r = 0; r < repeats; ++r) {
      bench::InitResult result = bench::RunOnce(
          options, scenarios, count, static_cast<uint64_t>(r));
      lstm += result.lstm;
      bert += result.bert;
      nas_auc += result.nas;
    }
    table.AddRow({std::to_string(count),
                  TablePrinter::Num(lstm / repeats),
                  TablePrinter::Num(bert / repeats),
                  TablePrinter::Num(nas_auc / repeats)});
  }
  table.Print();
  std::printf(
      "\nPaper Table VI reference: {2: 0.731/0.733/0.751, 4: 0.749/0.748/"
      "0.757, 8: 0.762/0.761/0.767, 16: 0.771/0.778/0.783}.\n"
      "Expected shape: NAS >= predefined at every count; quality grows with "
      "more initial scenarios.\n");
  return 0;
}
