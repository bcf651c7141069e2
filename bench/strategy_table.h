#ifndef ALT_BENCH_STRATEGY_TABLE_H_
#define ALT_BENCH_STRATEGY_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/table_printer.h"

namespace alt {
namespace bench {

/// Renders a Table III/IV-style AUC comparison for both encoder families.
inline void PrintStrategyTable(const StrategyResults& lstm,
                               const StrategyResults& bert) {
  TablePrinter table({"ID", "SinH(L)", "MeH(L)", "MeL(L)", "Ours(L)",
                      "SinH(B)", "MeH(B)", "MeL(B)", "Ours(B)"});
  const std::vector<const std::vector<double>*> columns = {
      &lstm.sinh, &lstm.meh, &lstm.mel, &lstm.ours,
      &bert.sinh, &bert.meh, &bert.mel, &bert.ours};
  const size_t n = lstm.sinh.size();
  for (size_t i = 0; i <= n; ++i) {  // Row n is the average.
    std::vector<std::string> row = {i < n ? std::to_string(i + 1) : "AVG"};
    for (const std::vector<double>* column : columns) {
      row.push_back(TablePrinter::Num(i < n ? (*column)[i] : Mean(*column)));
    }
    table.AddRow(row);
  }
  table.Print();
}

/// Checks and narrates the expected qualitative shape: MeH >= SinH (transfer
/// helps), Ours ~ MeH and Ours > MeL (NAS light competitive with heavy,
/// better than predefined light).
inline void PrintShapeSummary(const char* name, const StrategyResults& r) {
  const double sinh = Mean(r.sinh);
  const double meh = Mean(r.meh);
  const double mel = Mean(r.mel);
  const double ours = Mean(r.ours);
  std::printf(
      "[%s] AVG  SinH=%.3f  MeH=%.3f  MeL=%.3f  Ours=%.3f\n"
      "  shape: MeH-SinH=%+.3f (paper: positive)  Ours-MeL=%+.3f (paper: "
      "positive)  MeH-Ours=%+.3f (paper: small positive)\n",
      name, sinh, meh, mel, ours, meh - sinh, ours - mel, meh - ours);
}

/// Tables III and IV: every strategy for both encoder families on
/// `options`' workload, printed as a table and as shape summaries.
inline void RunStrategyTables(const BenchOptions& options) {
  std::printf("scale=%.5f seq_len=%lld epochs=%lld initial=%lld\n\n",
              options.scale, static_cast<long long>(options.seq_len),
              static_cast<long long>(options.epochs),
              static_cast<long long>(options.initial_count));
  const std::vector<PreparedScenario> scenarios = PrepareWorkload(options);
  const std::vector<int64_t> initial = PickInitialScenarios(
      options, static_cast<int64_t>(scenarios.size()));
  const StrategyResults lstm = RunStrategies(options, scenarios, initial,
                                             models::EncoderKind::kLstm);
  const StrategyResults bert = RunStrategies(options, scenarios, initial,
                                             models::EncoderKind::kBert);
  PrintStrategyTable(lstm, bert);
  std::printf("\n");
  PrintShapeSummary("LSTM-based", lstm);
  PrintShapeSummary("BERT-based", bert);
}

}  // namespace bench
}  // namespace alt

#endif  // ALT_BENCH_STRATEGY_TABLE_H_
