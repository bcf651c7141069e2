// Reproduces Table VIII: averaged AUC of the compared strategies on
// Dataset A (BERT-based) when the number of initial scenarios used to build
// the scenario agnostic heavy model varies over {2, 4, 8, 16}.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/strategy_table.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace alt;
  bench::Flags flags(argc, argv);
  bench::BenchOptions options;
  options.workload = bench::Workload::kDatasetA;
  options.ApplyFlags(flags);

  std::printf(
      "=== Table VIII: AVG AUC vs number of initial scenarios (BERT) ===\n\n");
  auto scenarios = bench::PrepareWorkload(options);

  // SinH does not depend on the initial scenarios; run it once.
  bench::StrategySet sinh_only;
  sinh_only.run_meta = false;
  bench::StrategyResults sinh_results = bench::RunStrategies(
      options, scenarios, {}, models::EncoderKind::kBert, sinh_only);
  const double sinh_avg = bench::Mean(sinh_results.sinh);

  TablePrinter table({"Initial Numbers", "SinH", "MeH", "MeL", "Ours"});
  for (int64_t count : {2, 4, 8, 16}) {
    bench::BenchOptions run_options = options;
    run_options.initial_count = count;
    auto initial = bench::PickInitialScenarios(
        run_options, static_cast<int64_t>(scenarios.size()));
    bench::StrategySet meta_only;
    meta_only.run_sinh = false;
    bench::StrategyResults results = bench::RunStrategies(
        run_options, scenarios, initial, models::EncoderKind::kBert,
        meta_only);
    table.AddRow({std::to_string(count), TablePrinter::Num(sinh_avg),
                  TablePrinter::Num(bench::Mean(results.meh)),
                  TablePrinter::Num(bench::Mean(results.mel)),
                  TablePrinter::Num(bench::Mean(results.ours))});
    std::printf("initial=%lld done: MeH=%.3f MeL=%.3f Ours=%.3f\n",
                static_cast<long long>(count), bench::Mean(results.meh),
                bench::Mean(results.mel), bench::Mean(results.ours));
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nPaper Table VIII reference: {2: 0.745/0.747/0.741/0.747, 4: 0.745/"
      "0.751/0.744/0.749, 8: 0.745/0.756/0.746/0.754, 16: 0.745/0.769/0.750/"
      "0.763}.\nExpected shape: MeH best everywhere; MeH/Ours improve with "
      "more initial scenarios.\n");
  return 0;
}
