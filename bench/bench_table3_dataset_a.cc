// Reproduces Table III: AUC of the compared strategies (SinH / MeH / MeL /
// Ours) on Dataset A, for the LSTM-based and BERT-based architectures.
//
// Absolute numbers differ from the paper (synthetic data, scaled sizes);
// the qualitative shape must match: MeH wins or ties, Ours is competitive
// with MeH at much lower FLOPs, and Ours beats the predefined light MeL.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/strategy_table.h"

int main(int argc, char** argv) {
  using namespace alt;
  bench::Flags flags(argc, argv);
  bench::BenchOptions options;
  options.workload = bench::Workload::kDatasetA;
  options.ApplyFlags(flags);

  std::printf("=== Table III: AUC on Dataset A (18 scenarios) ===\n");
  bench::RunStrategyTables(options);
  std::printf(
      "\nPaper Table III AVG reference: LSTM SinH=0.743 MeH=0.751 MeL=0.741 "
      "Ours=0.750 | BERT SinH=0.745 MeH=0.756 MeL=0.746 Ours=0.754\n");
  return 0;
}
