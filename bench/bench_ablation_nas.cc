// Ablations of the design choices DESIGN.md calls out for the budget-
// limited NAS (not a paper table; supports Sec. III-D's design decisions):
//   1. distillation on/off (Eq. 5's delta);
//   2. FLOPs-regularizer lambda sweep (Eq. 4);
//   3. FLOPs-budget sweep (0.5x / 1x / 2x of the predefined light encoder).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/train/trainer.h"
#include "src/util/table_printer.h"

namespace alt {
namespace bench {
namespace {

struct AblationRun {
  double auc = 0.0;
  int64_t encoder_flops = 0;
};

/// The light half of onboarding with one Eq. 5 delta, Eq. 4 lambda and
/// FLOPs budget swapped into `onboard`.
AblationRun RunNas(core::OnboardOptions onboard,
                   const PreparedScenario& scenario,
                   models::BaseModel* teacher, float delta, float lambda,
                   int64_t budget) {
  onboard.nas.distill_delta = delta;
  onboard.nas.lambda_flops = lambda;
  onboard.nas.flops_budget = budget;
  auto light =
      core::OnboardLight(teacher, scenario.train, scenario.test, onboard);
  ALT_CHECK(light.ok()) << light.status().ToString();
  const core::ScenarioArtifacts& a = light.value().artifacts;
  return {a.light_test_auc, a.arch.Flops(onboard.light_config.seq_len)};
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

  std::printf("=== NAS ablations (Dataset A) ===\n\n");
  auto scenarios = bench::PrepareWorkload(options);
  auto initial = bench::PickInitialScenarios(
      options, static_cast<int64_t>(scenarios.size()));

  // Teacher: meta-adapted heavy model for the probe scenarios.
  std::unique_ptr<meta::MetaLearner> learner = bench::InitializeLearner(
      options, scenarios, initial, models::EncoderKind::kLstm);
  const core::OnboardOptions onboard = options.MakeOnboardOptions(
      options.LightConfig(models::EncoderKind::kLstm));
  const int64_t budget = onboard.nas.flops_budget;

  // Probe scenarios: one head, one mid, one tail.
  const std::vector<size_t> probes = {0, scenarios.size() / 2,
                                      scenarios.size() - 2};

  // --- Ablation 1: distillation on/off. ----------------------------------
  std::printf("Ablation 1 — distillation (Eq. 5 delta):\n");
  TablePrinter distill_table({"scenario", "delta=0 (no distill)",
                              "delta=1", "delta=4", "teacher AUC"});
  for (size_t p : probes) {
    const bench::PreparedScenario& s = scenarios[p];
    auto teacher = learner->AdaptToScenario(s.train, /*send_feedback=*/false);
    ALT_CHECK(teacher.ok());
    std::vector<std::string> row = {std::to_string(s.scenario_id + 1)};
    for (float delta : {0.0f, 1.0f, 4.0f}) {
      bench::AblationRun run = bench::RunNas(
          onboard, s, teacher.value().get(), delta, 0.1f, budget);
      row.push_back(TablePrinter::Num(run.auc));
    }
    row.push_back(TablePrinter::Num(
        train::EvaluateAuc(teacher.value().get(), s.test)));
    distill_table.AddRow(row);
  }
  distill_table.Print();
  std::printf("Expected: distillation (delta>0) helps the light student.\n\n");

  // --- Ablation 2: lambda sweep. ------------------------------------------
  std::printf("Ablation 2 — FLOPs-regularizer lambda (Eq. 4):\n");
  TablePrinter lambda_table(
      {"lambda", "AUC", "encoder FLOPs", "budget"});
  {
    const bench::PreparedScenario& s = scenarios[0];
    auto teacher = learner->AdaptToScenario(s.train, /*send_feedback=*/false);
    ALT_CHECK(teacher.ok());
    for (float lambda : {0.0f, 0.1f, 0.5f, 2.0f}) {
      // No hard budget here: lambda alone steers the extracted size.
      bench::AblationRun run = bench::RunNas(
          onboard, s, teacher.value().get(), 1.0f, lambda, /*budget=*/0);
      lambda_table.AddRow({TablePrinter::Num(lambda, 1),
                           TablePrinter::Num(run.auc),
                           std::to_string(run.encoder_flops),
                           "(none)"});
    }
  }
  lambda_table.Print();
  std::printf("Expected: larger lambda extracts cheaper architectures.\n\n");

  // --- Ablation 3: budget sweep. -------------------------------------------
  std::printf("Ablation 3 — FLOPs budget sweep:\n");
  TablePrinter budget_table({"budget", "AUC", "encoder FLOPs"});
  {
    const bench::PreparedScenario& s = scenarios[1];
    auto teacher = learner->AdaptToScenario(s.train, /*send_feedback=*/false);
    ALT_CHECK(teacher.ok());
    for (double factor : {0.1, 0.5, 1.0}) {
      const int64_t b = static_cast<int64_t>(budget * factor);
      // lambda = 0 so the hard budget is the binding constraint.
      bench::AblationRun run =
          bench::RunNas(onboard, s, teacher.value().get(), 1.0f, 0.0f, b);
      budget_table.AddRow({std::to_string(b), TablePrinter::Num(run.auc),
                           std::to_string(run.encoder_flops)});
    }
  }
  budget_table.Print();
  std::printf("Expected: derived FLOPs <= budget at every setting.\n");
  return 0;
}
