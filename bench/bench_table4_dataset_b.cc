// Reproduces Table IV: AUC of the compared strategies (SinH / MeH / MeL /
// Ours) on Dataset B (advertising, 32 scenarios), LSTM- and BERT-based.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/strategy_table.h"

int main(int argc, char** argv) {
  using namespace alt;
  bench::Flags flags(argc, argv);
  bench::BenchOptions options;
  options.workload = bench::Workload::kDatasetB;
  // Dataset B's head is ~5x smaller than A's; use a matching default scale.
  options.scale = 1.0 / 150.0;
  options.ApplyFlags(flags);

  std::printf("=== Table IV: AUC on Dataset B (32 scenarios) ===\n");
  bench::RunStrategyTables(options);
  std::printf(
      "\nPaper Table IV AVG reference: LSTM SinH=0.784 MeH=0.805 MeL=0.786 "
      "Ours=0.799 | BERT SinH=0.786 MeH=0.808 MeL=0.788 Ours=0.803\n");
  return 0;
}
