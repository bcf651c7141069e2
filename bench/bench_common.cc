#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>

#include "src/train/trainer.h"
#include "src/util/logging.h"

namespace alt {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";
    }
  }
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::stod(it->second);
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::stoll(it->second);
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "1" || it->second == "true";
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

void BenchOptions::ApplyFlags(const Flags& flags) {
  if (flags.GetBool("full", false)) {
    // Paper-sized sequences; still a reduced sample scale (full 5.4M-sample
    // training is not a laptop workload).
    seq_len = 128;
    scale = 1.0 / 100.0;
    epochs = 5;
    learning_rate = 1e-3f;
  }
  scale = flags.GetDouble("scale", scale);
  seq_len = flags.GetInt("seq_len", seq_len);
  initial_count = flags.GetInt("initial", initial_count);
  epochs = flags.GetInt("epochs", epochs);
  learning_rate =
      static_cast<float>(flags.GetDouble("lr", learning_rate));
  nas_search_epochs = flags.GetInt("nas_epochs", nas_search_epochs);
  nas_layers = flags.GetInt("nas_layers", nas_layers);
  seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(seed)));
}

data::SyntheticConfig BenchOptions::MakeDataConfig() const {
  return workload == Workload::kDatasetA
             ? data::DatasetAConfig(scale, seq_len, min_scenario_size)
             : data::DatasetBConfig(scale, seq_len, min_scenario_size);
}

models::ModelConfig BenchOptions::HeavyConfig(
    models::EncoderKind kind) const {
  const data::SyntheticConfig dc = MakeDataConfig();
  models::ModelConfig c = models::ModelConfig::Heavy(
      kind, dc.profile_dim, dc.seq_len, dc.vocab_size);
  c.learning_rate = learning_rate;
  return c;
}

models::ModelConfig BenchOptions::LightConfig(
    models::EncoderKind kind) const {
  const data::SyntheticConfig dc = MakeDataConfig();
  models::ModelConfig c = models::ModelConfig::Light(
      kind, dc.profile_dim, dc.seq_len, dc.vocab_size);
  c.learning_rate = learning_rate;
  return c;
}

meta::MetaOptions BenchOptions::MakeMetaOptions() const {
  meta::MetaOptions meta_options;
  meta_options.init_train.epochs = epochs;
  meta_options.init_train.batch_size = batch_size;
  meta_options.finetune.epochs = std::max<int64_t>(1, epochs / 2);
  meta_options.finetune.batch_size = batch_size;
  meta_options.seed = seed;
  return meta_options;
}

core::OnboardOptions BenchOptions::MakeOnboardOptions(
    const models::ModelConfig& light_config) const {
  core::OnboardOptions onboard;
  onboard.light_config = light_config;
  onboard.nas.supernet.num_layers = nas_layers;
  onboard.nas.search_epochs = nas_search_epochs;
  onboard.nas.batch_size = batch_size;
  onboard.nas.weight_lr = learning_rate;
  onboard.nas.flops_budget = core::LightEncoderFlops(light_config);
  onboard.nas.final_train.epochs = epochs;
  onboard.nas.final_train.batch_size = batch_size;
  onboard.nas.final_train.learning_rate = learning_rate;
  onboard.seed = seed;
  return onboard;
}

std::vector<PreparedScenario> PrepareWorkload(const BenchOptions& options) {
  data::SyntheticGenerator generator(options.MakeDataConfig());
  feature::DataPreparationConfig prep;
  prep.test_fraction = 0.2;  // Paper: 20% held out as the test set.
  prep.seed = options.seed;
  std::vector<PreparedScenario> scenarios;
  for (int64_t s = 0; s < options.MakeDataConfig().num_scenarios; ++s) {
    auto prepared =
        feature::PrepareScenarioData(generator.GenerateScenario(s), prep);
    ALT_CHECK(prepared.ok()) << prepared.status().ToString();
    PreparedScenario scenario;
    scenario.scenario_id = s;
    scenario.train = std::move(prepared.value().train);
    scenario.test = std::move(prepared.value().test);
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

std::vector<int64_t> PickInitialScenarios(const BenchOptions& options,
                                          int64_t num_scenarios,
                                          uint64_t repeat) {
  Rng rng(options.seed * 7 + repeat * 1009 + 3);
  auto picks = rng.SampleWithoutReplacement(
      static_cast<size_t>(num_scenarios),
      static_cast<size_t>(
          std::min<int64_t>(options.initial_count, num_scenarios)));
  std::vector<int64_t> out(picks.begin(), picks.end());
  std::sort(out.begin(), out.end());
  return out;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::unique_ptr<meta::MetaLearner> InitializeLearner(
    const BenchOptions& options,
    const std::vector<PreparedScenario>& scenarios,
    const std::vector<int64_t>& initial, models::EncoderKind encoder) {
  auto learner = std::make_unique<meta::MetaLearner>(
      options.HeavyConfig(encoder), options.MakeMetaOptions());
  std::vector<data::ScenarioData> initial_train;
  for (int64_t idx : initial) {
    initial_train.push_back(scenarios[static_cast<size_t>(idx)].train);
  }
  const Status initialized =
      core::InitializeAgnostic(learner.get(), initial_train);
  ALT_CHECK(initialized.ok()) << initialized.ToString();
  return learner;
}

StrategyResults RunStrategies(const BenchOptions& options,
                              const std::vector<PreparedScenario>& scenarios,
                              const std::vector<int64_t>& initial,
                              models::EncoderKind encoder,
                              const StrategySet& set) {
  StrategyResults results;

  // --- SinH: per-scenario heavy model from scratch. -----------------------
  if (set.run_sinh) {
    const models::ModelConfig heavy_config = options.HeavyConfig(encoder);
    train::TrainOptions train_options;
    train_options.epochs = options.epochs;
    train_options.batch_size = options.batch_size;
    train_options.learning_rate = options.learning_rate;
    train_options.seed = options.seed;
    for (const PreparedScenario& s : scenarios) {
      Rng rng(options.seed * 101 + static_cast<uint64_t>(s.scenario_id));
      auto model = models::BuildBaseModel(heavy_config, &rng);
      ALT_CHECK(model.ok());
      ALT_CHECK(
          train::TrainModel(model.value().get(), s.train, train_options)
              .ok());
      results.sinh.push_back(
          train::EvaluateAuc(model.value().get(), s.test));
    }
  }
  if (!set.run_meta) return results;

  // --- MeH, MeL and Ours: f0 from the initial scenarios, then the system's
  // onboarding step per scenario. Its heavy model is MeH and the teacher of
  // both light strategies. ------------------------------------------------
  std::unique_ptr<meta::MetaLearner> learner =
      InitializeLearner(options, scenarios, initial, encoder);
  core::OnboardOptions onboard =
      options.MakeOnboardOptions(options.LightConfig(encoder));
  onboard.predefined_light = true;
  for (const PreparedScenario& s : scenarios) {
    auto onboarded =
        core::OnboardScenario(learner.get(), s.train, s.test, onboard);
    ALT_CHECK(onboarded.ok()) << onboarded.status().ToString();
    const core::OnboardResult& r = onboarded.value();
    results.meh.push_back(r.artifacts.heavy_test_auc);
    results.mel.push_back(r.predefined_light_test_auc);
    results.ours.push_back(r.artifacts.light_test_auc);
  }
  return results;
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace bench
}  // namespace alt
