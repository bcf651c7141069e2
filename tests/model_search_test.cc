#include "src/hpo/model_search.h"

#include "gtest/gtest.h"
#include "src/data/synthetic.h"

namespace alt {
namespace hpo {
namespace {

data::ScenarioData SearchData() {
  data::SyntheticConfig config;
  config.num_scenarios = 1;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {500};
  config.seed = 83;
  return data::SyntheticGenerator(config).GenerateScenario(0);
}

models::ModelConfig SearchBase() {
  models::ModelConfig c = models::ModelConfig::Heavy(
      models::EncoderKind::kLstm, 6, 8, 12);
  c.encoder_layers = 2;
  c.learning_rate = 0.01f;
  return c;
}

TEST(ModelSearchTest, SpaceMatchesFig3Knobs) {
  SearchSpace space = DefaultModelSearchSpace(SearchBase());
  // Learning rate + profile MLP width + head width + encoder depth.
  EXPECT_EQ(space.NumParams(), 4u);
  SearchSpace profile_only_space =
      DefaultModelSearchSpace(models::ModelConfig::ProfileOnly(6));
  EXPECT_EQ(profile_only_space.NumParams(), 3u);  // No encoder depth knob.
}

TEST(ModelSearchTest, ApplyTrialConfigOverridesFields) {
  TrialConfig trial = {{"learning_rate", 0.005},
                       {"profile_hidden", int64_t{48}},
                       {"head_hidden", int64_t{24}},
                       {"encoder_layers", int64_t{1}}};
  models::ModelConfig applied = ApplyTrialConfig(SearchBase(), trial);
  EXPECT_FLOAT_EQ(applied.learning_rate, 0.005f);
  EXPECT_EQ(applied.profile_hidden, (std::vector<int64_t>{48}));
  EXPECT_EQ(applied.head_hidden, (std::vector<int64_t>{24}));
  EXPECT_EQ(applied.encoder_layers, 1);
  // Untouched fields survive.
  EXPECT_EQ(applied.hidden_dim, SearchBase().hidden_dim);
}

TEST(ModelSearchTest, ApplyTrialConfigPartialIsFine) {
  TrialConfig trial = {{"learning_rate", 0.002}};
  models::ModelConfig applied = ApplyTrialConfig(SearchBase(), trial);
  EXPECT_FLOAT_EQ(applied.learning_rate, 0.002f);
  EXPECT_EQ(applied.encoder_layers, 2);
}

TEST(ModelSearchTest, TuneModelConfigRunsAndReturnsValidConfig) {
  ModelSearchOptions options;
  options.tune.max_trials = 4;
  options.tune.parallelism = 2;
  options.tune.algorithm = "racos";
  options.train.epochs = 2;
  auto report = TuneModelConfig(SearchBase(), SearchData(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().tune_report.best_objective, 0.5);
  EXPECT_EQ(report.value().tune_report.trials.size(), 4u);
  // The winning config must be buildable.
  Rng rng(1);
  EXPECT_TRUE(models::BuildBaseModel(report.value().best_config, &rng).ok());
}

TEST(ModelSearchTest, EarlyStoppingPathWorks) {
  ModelSearchOptions options;
  options.tune.max_trials = 5;
  options.tune.parallelism = 1;
  options.tune.enable_early_stopping = true;
  options.tune.early_stopping_min_trials = 2;
  options.train.epochs = 3;
  auto report = TuneModelConfig(SearchBase(), SearchData(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().tune_report.best_objective, 0.5);
}

TEST(ModelSearchTest, TinyDatasetRejected) {
  // A split that leaves a part empty is rejected before any trial: two rows
  // hold out floor(0.25 * 2) = 0 of them, and no rows leave both parts
  // empty.
  const data::ScenarioData data = SearchData();
  for (const data::ScenarioData& tiny : {data.Subset({0, 1}), data.Subset({})}) {
    auto report = TuneModelConfig(SearchBase(), tiny, ModelSearchOptions());
    ASSERT_FALSE(report.ok()) << tiny.num_samples() << " rows";
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace hpo
}  // namespace alt
