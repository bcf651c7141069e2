#include "src/core/alt_system.h"

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/onboard.h"
#include "src/data/synthetic.h"
#include "src/tensor/cpu_features.h"
#include "src/train/trainer.h"
#include "src/util/parallel_for.h"

namespace alt {
namespace core {
namespace {

/// End-to-end integration tests over a miniature long-tail family. Kept
/// deliberately small: the goal is exercising the full pipeline (prepare ->
/// meta adapt -> NAS + distill -> deploy), not absolute quality.

data::SyntheticConfig CoreDataConfig() {
  data::SyntheticConfig config;
  config.num_scenarios = 5;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {300, 250, 200, 180, 150};
  config.seed = 61;
  return config;
}

AltSystemOptions FastOptions() {
  AltSystemOptions options;
  options.heavy_config = models::ModelConfig::Heavy(
      models::EncoderKind::kLstm, 6, 8, 12);
  options.heavy_config.encoder_layers = 2;
  options.heavy_config.hidden_dim = 6;
  options.heavy_config.profile_hidden = {10};
  options.heavy_config.head_hidden = {8};
  options.heavy_config.learning_rate = 0.01f;
  options.light_config = options.heavy_config;
  options.light_config.encoder_layers = 1;
  options.meta.init_train.epochs = 2;
  options.meta.finetune.epochs = 1;
  options.nas.supernet.num_layers = 2;
  options.nas.search_epochs = 1;
  options.nas.final_train.epochs = 2;
  options.nas.final_train.learning_rate = 0.01f;
  options.nas.weight_lr = 0.01f;
  options.parallel_scenarios = 2;
  options.seed = 5;
  return options;
}

TEST(AltSystemTest, RequiresInitialization) {
  AltSystem system(FastOptions());
  EXPECT_FALSE(system.initialized());
  data::SyntheticGenerator gen(CoreDataConfig());
  EXPECT_FALSE(system.OnScenarioArrival(gen.GenerateScenario(0)).ok());
  EXPECT_FALSE(system.Initialize({}).ok());
}

TEST(AltSystemTest, BudgetComesFromLightConfig) {
  AltSystem system(FastOptions());
  EXPECT_GT(system.LightEncoderFlopsBudget(), 0);
}

TEST(AltSystemTest, EndToEndScenarioArrival) {
  data::SyntheticGenerator gen(CoreDataConfig());
  AltSystem system(FastOptions());
  ASSERT_TRUE(system
                  .Initialize({gen.GenerateScenario(0),
                               gen.GenerateScenario(1)})
                  .ok());
  ASSERT_TRUE(system.initialized());

  auto artifacts = system.OnScenarioArrival(gen.GenerateScenario(2));
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  const ScenarioArtifacts& a = artifacts.value();
  EXPECT_EQ(a.scenario_id, 2);
  // The light model is lighter than the heavy model.
  EXPECT_LT(a.light_flops, a.heavy_flops);
  // Searched encoder respects the budget.
  EXPECT_LE(a.arch.Flops(8), system.LightEncoderFlopsBudget());
  // Both models beat chance on the held-out test split.
  EXPECT_GT(a.heavy_test_auc, 0.5);
  EXPECT_GT(a.light_test_auc, 0.5);
  // The light model is deployed and serving.
  EXPECT_TRUE(system.serving()->IsDeployed(a.deployment_name));
  data::Batch batch = MakeFullBatch(gen.GenerateScenario(2));
  EXPECT_TRUE(system.serving()->Predict(a.deployment_name, batch).ok());
}

TEST(AltSystemTest, ParallelScenarioArrivals) {
  data::SyntheticGenerator gen(CoreDataConfig());
  AltSystem system(FastOptions());
  ASSERT_TRUE(system.Initialize({gen.GenerateScenario(0)}).ok());
  std::vector<data::ScenarioData> arriving = {gen.GenerateScenario(2),
                                              gen.GenerateScenario(3),
                                              gen.GenerateScenario(4)};
  auto artifacts = system.OnScenariosArrival(arriving);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  EXPECT_EQ(artifacts.value().size(), 3u);
  EXPECT_EQ(system.serving()->Scenarios().size(), 3u);
}

/// FNV-1a over `n` bytes, continuing from `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Initialize plus two arrivals on FastOptions. The hash covers each
/// arrival's searched architecture, its AUC and FLOPs bits, and the
/// deployed light model's served scores on 16 rows.
uint64_t OnboardingHash() {
  data::SyntheticGenerator gen(CoreDataConfig());
  AltSystem system(FastOptions());
  EXPECT_TRUE(system
                  .Initialize({gen.GenerateScenario(0),
                               gen.GenerateScenario(1)})
                  .ok());
  uint64_t h = 14695981039346656037ULL;
  for (int64_t id : {2, 3}) {
    auto arrived = system.OnScenarioArrival(gen.GenerateScenario(id));
    EXPECT_TRUE(arrived.ok()) << arrived.status().ToString();
    if (!arrived.ok()) return 0;
    const ScenarioArtifacts& a = arrived.value();
    const std::string arch = a.arch.ToString();
    h = Fnv1a(h, arch.data(), arch.size());
    for (double auc : {a.heavy_test_auc, a.light_test_auc}) {
      h = Fnv1a(h, &auc, sizeof(auc));
    }
    for (int64_t flops : {a.heavy_flops, a.light_flops}) {
      h = Fnv1a(h, &flops, sizeof(flops));
    }
    auto served = system.serving()->Predict(
        a.deployment_name, MakeFullBatch(gen.GenerateExtra(id, 16, 1)));
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    if (!served.ok()) return 0;
    h = Fnv1a(h, served.value().data(),
              sizeof(float) * served.value().size());
  }
  return h;
}

TEST(AltSystemTest, OnboardingOutputsArePinned) {
  // Onboarding's bits, pinned so that a refactor of the pipeline keeps
  // them. GEMMs agree across SIMD tiers only to rounding (DESIGN.md, "SIMD
  // dispatch"), so each tier has its own constant; the thread count must
  // not move it.
  const std::vector<std::pair<SimdLevel, uint64_t>> pinned = {
      {SimdLevel::kScalar, 0xe729dfc1b2a2e8fcULL},
      {SimdLevel::kAvx2, 0x8ba8c2d2c5236358ULL},
      {SimdLevel::kAvx512, 0x8ba8c2d2c5236358ULL},
  };
  const SimdLevel saved_level = ActiveSimdLevel();
  for (const auto& [level, want] : pinned) {
    if (!SetSimdLevel(level)) continue;
    for (int threads : {1, 4}) {
      SetComputeThreads(threads);
      EXPECT_EQ(OnboardingHash(), want)
          << SimdLevelName(level) << " threads=" << threads;
    }
  }
  SetComputeThreads(0);
  SetSimdLevel(saved_level);
}

TEST(OnboardTest, PredefinedLightIsTrainedOnlyWhenAsked) {
  data::SyntheticGenerator gen(CoreDataConfig());
  const AltSystemOptions system_options = FastOptions();
  OnboardOptions options;
  options.light_config = system_options.light_config;
  options.nas = system_options.nas;
  options.nas.flops_budget = LightEncoderFlops(options.light_config);
  options.seed = system_options.seed;
  auto prepared = feature::PrepareScenarioData(gen.GenerateScenario(2),
                                               system_options.prep);
  ASSERT_TRUE(prepared.ok());
  const data::ScenarioData& train_part = prepared.value().train;
  const data::ScenarioData& test_part = prepared.value().test;

  std::vector<OnboardResult> results;
  for (bool mel : {false, true}) {
    // A fresh learner per run, so both runs adapt the same f0.
    meta::MetaLearner learner(system_options.heavy_config,
                              system_options.meta);
    ASSERT_TRUE(learner.Initialize({gen.GenerateScenario(0)}).ok());
    options.predefined_light = mel;
    auto onboarded =
        OnboardScenario(&learner, train_part, test_part, options);
    ASSERT_TRUE(onboarded.ok()) << onboarded.status().ToString();
    results.push_back(std::move(onboarded).value());
  }
  const OnboardResult& off = results[0];
  const OnboardResult& on = results[1];

  EXPECT_EQ(off.predefined_light, nullptr);
  EXPECT_EQ(off.predefined_light_test_auc, 0.0);
  ASSERT_NE(on.predefined_light, nullptr);
  EXPECT_GT(on.predefined_light_test_auc, 0.5);
  EXPECT_EQ(on.predefined_light_test_auc,
            train::EvaluateAuc(on.predefined_light.get(), test_part));

  // MeL is light_config's model distilled from the returned teacher, with
  // the documented seeds: the same recipe by hand (the teacher scored into
  // the soft-label column) gives the same scores.
  const uint64_t id = static_cast<uint64_t>(train_part.scenario_id);
  Rng rng(options.seed * 211 + id);
  auto by_hand = models::BuildBaseModel(options.light_config, &rng);
  ASSERT_TRUE(by_hand.ok());
  train::TrainOptions mel_train = options.nas.final_train;
  mel_train.seed = options.seed * 31 + id;
  data::ScenarioData labelled = train_part;
  labelled.soft_labels = train::Predict(on.heavy.get(), train_part, 64);
  ASSERT_TRUE(train::TrainModel(by_hand.value().get(), labelled, mel_train,
                                options.nas.distill_delta)
                  .ok());
  EXPECT_EQ(train::Predict(by_hand.value().get(), test_part),
            train::Predict(on.predefined_light.get(), test_part));

  // Training MeL leaves the heavy and searched light models as they were.
  EXPECT_EQ(on.artifacts.arch.ToString(), off.artifacts.arch.ToString());
  EXPECT_EQ(on.artifacts.heavy_test_auc, off.artifacts.heavy_test_auc);
  EXPECT_EQ(on.artifacts.light_test_auc, off.artifacts.light_test_auc);
  EXPECT_EQ(train::Predict(on.light.get(), test_part),
            train::Predict(off.light.get(), test_part));
}

TEST(AltSystemTest, HpoInitializationPath) {
  data::SyntheticGenerator gen(CoreDataConfig());
  // f0's weights after an HPO initialization with `init_seed` as
  // meta.init_train's seed.
  auto f0_weights = [&](uint64_t init_seed) {
    AltSystemOptions options = FastOptions();
    options.use_hpo_init = true;
    options.hpo.tune.max_trials = 3;
    options.hpo.tune.parallelism = 1;
    options.hpo.train.epochs = 1;
    options.meta.init_train.seed = init_seed;
    AltSystem system(options);
    EXPECT_TRUE(system.Initialize({gen.GenerateScenario(0)}).ok());
    EXPECT_TRUE(system.initialized());
    std::vector<float> weights;
    for (ag::Variable* p :
         system.meta_learner()->agnostic_model()->Parameters()) {
      const Tensor& value = p->value();
      weights.insert(weights.end(), value.data(),
                     value.data() + value.numel());
    }
    return weights;
  };
  // The system seed alone seeds the candidates' training; init_train's seed
  // is unread.
  const std::vector<float> f0 = f0_weights(1);
  EXPECT_FALSE(f0.empty());
  EXPECT_EQ(f0_weights(2), f0);
}

}  // namespace
}  // namespace core
}  // namespace alt
