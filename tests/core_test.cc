#include "src/core/alt_system.h"

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/onboard.h"
#include "src/data/synthetic.h"
#include "src/nas/nas_search.h"
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
    ASSERT_TRUE(
        InitializeAgnostic(&learner, {gen.GenerateScenario(0)}).ok());
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

/// The prepared train parts of scenarios `ids`, as AltSystem::Initialize
/// pools them.
std::vector<data::ScenarioData> TrainParts(std::vector<int64_t> ids) {
  data::SyntheticGenerator gen(CoreDataConfig());
  std::vector<data::ScenarioData> parts;
  for (int64_t id : ids) {
    auto prepared = feature::PrepareScenarioData(gen.GenerateScenario(id),
                                                 FastOptions().prep);
    EXPECT_TRUE(prepared.ok());
    parts.push_back(std::move(prepared.value().train));
  }
  return parts;
}

std::vector<float> Weights(models::BaseModel* model) {
  std::vector<float> weights;
  for (ag::Variable* p : model->Parameters()) {
    const Tensor& value = p->value();
    weights.insert(weights.end(), value.data(), value.data() + value.numel());
  }
  return weights;
}

std::string Dump(const models::ModelConfig& config) {
  return config.ToJson().Dump();
}

/// Fig. 4's generators, small: three one-epoch HPO trials, and the NAS.
InitCandidates SmallGenerators() {
  InitCandidates candidates;
  candidates.hpo.emplace();
  candidates.hpo->tune.max_trials = 3;
  candidates.hpo->tune.parallelism = 1;
  candidates.hpo->train.epochs = 1;
  candidates.nas = FastOptions().nas;
  return candidates;
}

TEST(InitializeTest, CandidateAucIsItsTrainingScoredOnTheHeldOutRows) {
  const AltSystemOptions options = FastOptions();
  const data::ScenarioData pooled = data::ConcatScenarios(TrainParts({0, 1}));
  InitCandidates candidates = SmallGenerators();
  models::ModelConfig shallow = options.heavy_config;
  shallow.encoder_layers = 1;
  candidates.presets = {shallow};
  auto compared = CompareInitialCandidates(options.heavy_config, pooled,
                                           candidates, options.meta);
  ASSERT_TRUE(compared.ok()) << compared.status().ToString();
  ASSERT_EQ(compared.value().size(), 4u);
  EXPECT_EQ(Dump(compared.value()[0].config), Dump(options.heavy_config));
  EXPECT_EQ(Dump(compared.value()[1].config), Dump(shallow));
  EXPECT_EQ(compared.value()[3].config.encoder, models::EncoderKind::kNas);

  // By hand: the documented split, build and training, then the AUC.
  Rng split_rng(options.meta.seed * 13 + 5);
  auto [fit, held_out] = data::SplitTrainTest(pooled, 0.25, &split_rng);
  for (const InitCandidate& candidate : compared.value()) {
    Rng rng(options.meta.seed);
    auto model = nas::BuildModel(candidate.config, &rng);
    ASSERT_TRUE(model.ok());
    train::TrainOptions init = options.meta.init_train;
    init.learning_rate = candidate.config.learning_rate;
    init.seed = options.meta.seed * 17 + 1;
    ASSERT_TRUE(train::TrainModel(model.value().get(), fit, init).ok());
    EXPECT_EQ(candidate.auc,
              train::EvaluateAuc(model.value().get(), held_out))
        << Dump(candidate.config);
  }
}

TEST(InitializeTest, HeldOutLabelsDoNotReachTheGenerators) {
  const AltSystemOptions options = FastOptions();
  const data::ScenarioData pooled = data::ConcatScenarios(TrainParts({0, 1}));
  // The held-out rows: the comparison's split of a copy whose labels are
  // row numbers.
  data::ScenarioData numbered = pooled;
  for (size_t i = 0; i < numbered.labels.size(); ++i) {
    numbered.labels[i] = static_cast<float>(i);
  }
  Rng split_rng(options.meta.seed * 13 + 5);
  const data::ScenarioData held_out =
      data::SplitTrainTest(numbered, 0.25, &split_rng).second;
  ASSERT_GT(held_out.num_samples(), 0);
  data::ScenarioData flipped = pooled;
  for (float row : held_out.labels) {
    float& label = flipped.labels[static_cast<size_t>(row)];
    label = 1.0f - label;
  }

  // Eight trials, so that the tuner's pick follows the rows its trials
  // score (with three, flipped rows there would not change it either).
  InitCandidates candidates = SmallGenerators();
  candidates.hpo->tune.max_trials = 8;
  auto before = CompareInitialCandidates(options.heavy_config, pooled,
                                         candidates, options.meta);
  auto after = CompareInitialCandidates(options.heavy_config, flipped,
                                        candidates, options.meta);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(before.value().size(), 3u);
  ASSERT_EQ(after.value().size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    // The preset, the tuned config and the searched one are generated, and
    // trained, from the fit rows alone; only their scores see the flip.
    EXPECT_EQ(Dump(after.value()[c].config), Dump(before.value()[c].config));
    EXPECT_NEAR(after.value()[c].auc, 1.0 - before.value()[c].auc, 1e-9);
  }
}

TEST(InitializeTest, TheWinnerIsTrainedFromScratchOnAllRows) {
  const AltSystemOptions options = FastOptions();
  const std::vector<data::ScenarioData> parts = TrainParts({0, 1});
  meta::MetaLearner alone(options.heavy_config, options.meta);
  EXPECT_FALSE(InitializeAgnostic(&alone, {}).ok());
  EXPECT_FALSE(alone.initialized());
  // One candidate: the preset's one f0 training on the pooled rows.
  ASSERT_TRUE(InitializeAgnostic(&alone, parts).ok());
  auto by_hand = TrainInitialModel(
      options.heavy_config, data::ConcatScenarios(parts), options.meta);
  ASSERT_TRUE(by_hand.ok());
  const std::vector<float> f0 = Weights(alone.agnostic_model());
  EXPECT_EQ(f0, Weights(by_hand.value().get()));

  // A candidate that training cannot move (learning rate 0) loses to the
  // trained preset, wherever it stands in the list; the winner's f0 is the
  // one-candidate f0, not a model kept from the comparison.
  models::ModelConfig frozen = options.heavy_config;
  frozen.learning_rate = 0.0f;
  for (bool frozen_first : {false, true}) {
    meta::MetaLearner learner(frozen_first ? frozen : options.heavy_config,
                              options.meta);
    InitCandidates candidates;
    candidates.presets = {frozen_first ? options.heavy_config : frozen};
    ASSERT_TRUE(InitializeAgnostic(&learner, parts, candidates).ok());
    EXPECT_EQ(Dump(learner.config()), Dump(options.heavy_config));
    EXPECT_EQ(Weights(learner.agnostic_model()), f0);
  }
}

TEST(AltSystemTest, HpoInitializationTrainsTheWinnerOnce) {
  data::SyntheticGenerator gen(CoreDataConfig());
  AltSystemOptions options = FastOptions();
  AltSystem plain(options);
  ASSERT_TRUE(plain.Initialize({gen.GenerateScenario(0)}).ok());
  const std::vector<float> plain_f0 =
      Weights(plain.meta_learner()->agnostic_model());
  options.use_hpo_init = true;
  options.hpo = SmallGenerators().hpo.value();
  options.meta.init_train.seed = 2;  // Unread: f0's seed derives from meta.
  // HPO seed 1 tunes a config that validates worse than the preset, 7 one
  // that validates better; the two seeds cover both outcomes.
  std::vector<bool> preset_won;
  for (uint64_t hpo_seed : {1, 7}) {
    options.hpo.seed = hpo_seed;
    AltSystem system(options);
    ASSERT_TRUE(system.Initialize({gen.GenerateScenario(0)}).ok());
    const models::ModelConfig winner = system.meta_learner()->config();
    const std::vector<float> f0 =
        Weights(system.meta_learner()->agnostic_model());
    // f0 is the winner's one f0 training on every prepared initial row...
    auto by_hand = TrainInitialModel(
        winner, data::ConcatScenarios(TrainParts({0})), options.meta);
    ASSERT_TRUE(by_hand.ok());
    EXPECT_EQ(f0, Weights(by_hand.value().get())) << "hpo seed " << hpo_seed;
    // ...so it is the use_hpo_init = false f0 exactly when the preset won.
    preset_won.push_back(Dump(winner) == Dump(options.heavy_config));
    EXPECT_EQ(preset_won.back(), f0 == plain_f0) << "hpo seed " << hpo_seed;
  }
  EXPECT_EQ(preset_won, (std::vector<bool>{true, false}));
}

}  // namespace
}  // namespace core
}  // namespace alt
