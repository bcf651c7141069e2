// Online recommendation walkthrough — the paper's online application
// (Sec. V-C). Compares three policies on a simulated 7-day CTR experiment
// for one scenario:
//   baseline — scenario-only light model,
//   MeL      — meta teacher distilled into the predefined light model,
//   ALT      — meta teacher + budget-limited NAS light model,
// then deploys the winner to the model server and reports serving latency
// percentiles.
//
// Build & run:  ./build/examples/online_recommendation

#include <cstdio>

#include "src/core/onboard.h"
#include "src/data/synthetic.h"
#include "src/serving/serving_client.h"
#include "src/serving/online_simulator.h"
#include "src/train/trainer.h"

int main() {
  using namespace alt;

  data::SyntheticConfig data_config;
  data_config.num_scenarios = 6;
  data_config.profile_dim = 24;
  data_config.seq_len = 16;
  data_config.vocab_size = 40;
  data_config.scenario_sizes = {1200, 900, 700, 500, 400, 300};
  data_config.seed = 17;
  data::SyntheticGenerator generator(data_config);

  models::ModelConfig heavy_config = models::ModelConfig::Heavy(
      models::EncoderKind::kLstm, data_config.profile_dim,
      data_config.seq_len, data_config.vocab_size);
  heavy_config.learning_rate = 0.01f;
  models::ModelConfig light_config = models::ModelConfig::Light(
      models::EncoderKind::kLstm, data_config.profile_dim,
      data_config.seq_len, data_config.vocab_size);
  light_config.learning_rate = 0.01f;

  // Meta learner over 5 historical scenarios; scenario 5 is the target.
  meta::MetaOptions meta_options;
  meta_options.init_train.epochs = 4;
  meta_options.finetune.epochs = 2;
  meta::MetaLearner learner(heavy_config, meta_options);
  std::vector<data::ScenarioData> history;
  for (int64_t s = 0; s < 5; ++s) {
    history.push_back(generator.GenerateScenario(s));
  }
  if (!core::InitializeAgnostic(&learner, history).ok()) {
    std::printf("meta init failed\n");
    return 1;
  }

  const int64_t target = 5;
  data::ScenarioData target_data = generator.GenerateScenario(target);
  train::TrainOptions train_options;
  train_options.epochs = 4;
  train_options.learning_rate = 0.01f;

  // Baseline.
  Rng rng(23);
  auto baseline = models::BuildBaseModel(light_config, &rng);
  train::TrainModel(baseline.value().get(), target_data, train_options)
      .ok();

  // MeL and ALT from one onboarding step: the meta-adapted teacher is
  // distilled into the predefined light model and into the budget-limited
  // NAS light model.
  core::OnboardOptions onboard;
  onboard.light_config = light_config;
  onboard.nas.flops_budget = core::LightEncoderFlops(light_config);
  onboard.nas.search_epochs = 3;
  onboard.nas.weight_lr = 0.01f;
  onboard.nas.final_train = train_options;
  onboard.predefined_light = true;
  auto onboarded = core::OnboardScenario(&learner, target_data,
                                         data::ScenarioData(), onboard);
  if (!onboarded.ok()) {
    std::printf("onboarding failed: %s\n",
                onboarded.status().ToString().c_str());
    return 1;
  }
  core::OnboardResult& result = onboarded.value();

  // 7-day CTR simulation; identical candidate streams for all policies.
  serving::OnlineSimOptions sim;
  sim.days = 7;
  sim.users_per_day = 200;
  sim.top_k = 40;
  auto run = [&](models::BaseModel* model) {
    return serving::RunOnlineSimulation(
               generator, target,
               [model](const data::ScenarioData& candidates) {
                 return train::Predict(model, candidates);
               },
               sim)
        .value();
  };
  auto base_ctr = run(baseline.value().get());
  auto mel_ctr = run(result.predefined_light.get());
  auto alt_ctr = run(result.light.get());

  std::printf("day  baseline   MeL        ALT\n");
  for (int64_t d = 0; d < sim.days; ++d) {
    std::printf("%3lld  %.4f     %.4f     %.4f\n",
                static_cast<long long>(d + 1),
                base_ctr.daily_ctr[static_cast<size_t>(d)],
                mel_ctr.daily_ctr[static_cast<size_t>(d)],
                alt_ctr.daily_ctr[static_cast<size_t>(d)]);
  }
  std::printf("mean CTR: baseline %.4f, MeL %.4f (%+.2f%%), ALT %.4f "
              "(%+.2f%%)\n",
              base_ctr.mean_ctr, mel_ctr.mean_ctr,
              100.0 * (mel_ctr.mean_ctr / base_ctr.mean_ctr - 1.0),
              alt_ctr.mean_ctr,
              100.0 * (alt_ctr.mean_ctr / base_ctr.mean_ctr - 1.0));

  // Deploy the ALT model and show serving latency.
  serving::ServingClient client;
  client.Deploy("recs", std::move(result.light)).ok();
  for (int i = 0; i < 50; ++i) {
    data::ScenarioData users = generator.GenerateExtra(target, 1, 5000 + i);
    client.Predict("recs", MakeFullBatch(users)).ok();
  }
  auto stats = client.GetLatencyStats("recs").value();
  std::printf("serving latency over %lld requests: p50 %.3f ms, p99 %.3f "
              "ms\n",
              static_cast<long long>(stats.num_requests), stats.p50_ms,
              stats.p99_ms);
  std::printf("searched encoder:\n%s",
              result.artifacts.arch.ToString().c_str());
  return 0;
}
