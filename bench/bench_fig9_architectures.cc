// Reproduces Fig. 9: the architectures searched by the budget-limited NAS
// for a large-sample scenario (Dataset A scenario 4) and a small-sample
// scenario (scenario 15). The paper observes that the large scenario gets a
// more complicated architecture (larger filters, more parameters).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/nas/derived_encoder.h"

namespace alt {
namespace bench {
namespace {

int64_t CountParameters(const nas::Architecture& arch) {
  Rng rng(1);
  nas::DerivedNasEncoder encoder(arch, &rng);
  return encoder.NumParameters();
}

double AverageKernel(const nas::Architecture& arch) {
  int64_t total = 0;
  int64_t count = 0;
  for (const nas::LayerSpec& layer : arch.layers) {
    if (layer.op.kernel > 0) {
      total += layer.op.kernel;
      ++count;
    }
  }
  return count == 0 ? 0.0 : static_cast<double>(total) / count;
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

  std::printf("=== Fig. 9: searched architectures (Dataset A) ===\n\n");
  auto scenarios = bench::PrepareWorkload(options);

  // Onboard both scenarios as the system does: a meta-adapted heavy
  // teacher, then the budget-limited NAS with distillation.
  auto initial = bench::PickInitialScenarios(
      options, static_cast<int64_t>(scenarios.size()));
  std::unique_ptr<meta::MetaLearner> learner = bench::InitializeLearner(
      options, scenarios, initial, models::EncoderKind::kLstm);
  const core::OnboardOptions onboard = options.MakeOnboardOptions(
      options.LightConfig(models::EncoderKind::kLstm));

  // Paper Fig. 9: scenario 4 (large, 875k samples) vs 15 (small, 47k).
  nas::Architecture arch_large;
  nas::Architecture arch_small;
  for (const auto& [label, index, out] :
       {std::tuple{"Scenario 4 (large sample size)", size_t{3}, &arch_large},
        std::tuple{"Scenario 15 (small sample size)", size_t{14},
                   &arch_small}}) {
    const bench::PreparedScenario& scenario = scenarios[index];
    auto onboarded = core::OnboardScenario(learner.get(), scenario.train,
                                           scenario.test, onboard);
    ALT_CHECK(onboarded.ok()) << onboarded.status().ToString();
    const core::ScenarioArtifacts& a = onboarded.value().artifacts;
    *out = a.arch;
    std::printf("--- %s (train n=%lld) ---\n%s", label,
                static_cast<long long>(scenario.train.num_samples()),
                a.arch.ToString().c_str());
    std::printf("encoder FLOPs: %lld (budget %lld)  parameters: %lld  "
                "avg kernel: %.2f  test AUC: %.3f\n\n",
                static_cast<long long>(a.arch.Flops(options.seq_len)),
                static_cast<long long>(onboard.nas.flops_budget),
                static_cast<long long>(bench::CountParameters(a.arch)),
                bench::AverageKernel(a.arch), a.light_test_auc);
    std::printf("JSON: %s\n\n", a.arch.ToJson().Dump().c_str());
  }
  std::printf(
      "Paper's observation: the large-sample architecture is more complex\n"
      "(bigger average filter size, more trainable parameters) than the\n"
      "small-sample one. Measured: params %lld vs %lld, avg kernel %.2f vs "
      "%.2f.\n",
      static_cast<long long>(bench::CountParameters(arch_large)),
      static_cast<long long>(bench::CountParameters(arch_small)),
      bench::AverageKernel(arch_large), bench::AverageKernel(arch_small));
  return 0;
}
