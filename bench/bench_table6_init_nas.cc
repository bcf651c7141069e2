// Reproduces Table VI: quality of the *initial* scenario agnostic model
// when built from {2, 4, 8, 16} initial scenarios, comparing the predefined
// LSTM and BERT heavy architectures against the NAS-constructed candidate.
// Each cell is core::CompareInitialCandidates, the Fig. 4 comparison that
// AltSystem::Initialize runs: every candidate is trained as f0 is, on the
// same fit rows of the pooled initial data, and scored on the same
// held-out rows (Sec. V-B5). Averaged over 3 random initial-scenario draws.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/util/table_printer.h"

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

  // The LSTM preset, the BERT preset, and the NAS search from the LSTM
  // preset's dims with the benches' NAS settings (the init stage has no
  // inference budget: the agnostic model may be heavy).
  const models::ModelConfig lstm =
      options.HeavyConfig(models::EncoderKind::kLstm);
  core::InitCandidates candidates;
  candidates.presets = {options.HeavyConfig(models::EncoderKind::kBert)};
  candidates.nas = options.MakeOnboardOptions(lstm).nas;
  candidates.nas->seed = options.seed;

  TablePrinter table({"Initial Numbers", "LSTM", "BERT", "NAS"});
  for (int64_t count : {2, 4, 8, 16}) {
    options.initial_count = count;
    std::vector<double> auc(3, 0.0);
    for (int64_t r = 0; r < repeats; ++r) {
      std::vector<data::ScenarioData> parts;
      for (int64_t idx : bench::PickInitialScenarios(
               options, static_cast<int64_t>(scenarios.size()),
               static_cast<uint64_t>(r))) {
        parts.push_back(scenarios[static_cast<size_t>(idx)].train);
      }
      auto compared = core::CompareInitialCandidates(
          lstm, data::ConcatScenarios(parts), candidates,
          options.MakeMetaOptions());
      ALT_CHECK(compared.ok()) << compared.status().ToString();
      for (size_t c = 0; c < auc.size(); ++c) {
        auc[c] += compared.value()[c].auc / static_cast<double>(repeats);
      }
    }
    table.AddRow({std::to_string(count), TablePrinter::Num(auc[0]),
                  TablePrinter::Num(auc[1]), TablePrinter::Num(auc[2])});
  }
  table.Print();
  std::printf(
      "\nPaper Table VI reference: {2: 0.731/0.733/0.751, 4: 0.749/0.748/"
      "0.757, 8: 0.762/0.761/0.767, 16: 0.771/0.778/0.783}.\n"
      "Expected shape: NAS >= predefined at every count; quality grows with "
      "more initial scenarios.\n");
  return 0;
}
