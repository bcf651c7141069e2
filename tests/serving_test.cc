#include <atomic>
#include <cstdio>
#include <sstream>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/nas/nas_search.h"
#include "src/serving/model_server.h"
#include "src/serving/model_store.h"
#include "src/serving/online_simulator.h"
#include "src/train/trainer.h"
#include "src/util/thread_pool.h"

namespace alt {
namespace serving {
namespace {

data::SyntheticConfig ServingDataConfig() {
  data::SyntheticConfig config;
  config.num_scenarios = 2;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {200, 200};
  config.seed = 71;
  return config;
}

models::ModelConfig ServingModelConfig() {
  models::ModelConfig c = models::ModelConfig::Light(
      models::EncoderKind::kLstm, 6, 8, 12);
  c.encoder_layers = 1;
  c.profile_hidden = {8};
  c.head_hidden = {8};
  return c;
}

std::unique_ptr<models::BaseModel> MakeModel(uint64_t seed = 1) {
  Rng rng(seed);
  auto model = models::BuildBaseModel(ServingModelConfig(), &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

// ---------------------------------------------------------------------------
// Model bundles
// ---------------------------------------------------------------------------

TEST(ModelStoreTest, BundleRoundTripPreservesPredictions) {
  auto model = MakeModel(2);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModelBundle(model.get(), &buffer).ok());
  auto loaded = LoadModelBundle(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  data::SyntheticGenerator gen(ServingDataConfig());
  data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  auto p1 = model->PredictProbs(batch);
  auto p2 = loaded.value()->PredictProbs(batch);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
}

TEST(ModelStoreTest, NasModelBundleRoundTrip) {
  // The critical serving path: a searched architecture must rebuild from
  // its JSON description inside the bundle.
  Rng rng(3);
  models::ModelConfig config = ServingModelConfig();
  config.encoder = models::EncoderKind::kNas;
  nas::Architecture arch;
  arch.dim = config.hidden_dim;
  arch.layers.push_back({0, {nas::OpType::kConv, 3}, {true}});
  arch.layers.push_back({1, {nas::OpType::kAttention, 0}, {false, true}});
  config.nas_arch = arch.ToJson();
  auto model = nas::BuildModel(config, &rng);
  ASSERT_TRUE(model.ok());
  std::stringstream buffer;
  ASSERT_TRUE(SaveModelBundle(model.value().get(), &buffer).ok());
  auto loaded = LoadModelBundle(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  data::SyntheticGenerator gen(ServingDataConfig());
  data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  auto p1 = model.value()->PredictProbs(batch);
  auto p2 = loaded.value()->PredictProbs(batch);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
}

TEST(ModelStoreTest, FileRoundTrip) {
  auto model = MakeModel(4);
  const std::string path = ::testing::TempDir() + "/alt_bundle_test.bin";
  ASSERT_TRUE(SaveModelBundleToFile(model.get(), path).ok());
  auto loaded = LoadModelBundleFromFile(path);
  EXPECT_TRUE(loaded.ok());
  std::remove(path.c_str());
}

TEST(ModelStoreTest, GarbageRejected) {
  std::stringstream buffer("this is not a bundle");
  EXPECT_FALSE(LoadModelBundle(&buffer).ok());
  EXPECT_FALSE(LoadModelBundleFromFile("/nonexistent/path.bin").ok());
}

// ---------------------------------------------------------------------------
// ModelServer
// ---------------------------------------------------------------------------

TEST(ModelServerTest, DeployPredictUndeploy) {
  ModelServer server;
  ASSERT_TRUE(server.Deploy("bank_a", MakeModel(5)).ok());
  EXPECT_TRUE(server.IsDeployed("bank_a"));
  EXPECT_EQ(server.Scenarios().size(), 1u);

  data::SyntheticGenerator gen(ServingDataConfig());
  data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  auto probs = server.Predict("bank_a", batch);
  ASSERT_TRUE(probs.ok());
  EXPECT_EQ(probs.value().size(), static_cast<size_t>(batch.batch_size));

  ASSERT_TRUE(server.Undeploy("bank_a").ok());
  EXPECT_FALSE(server.IsDeployed("bank_a"));
  EXPECT_FALSE(server.Predict("bank_a", batch).ok());
}

TEST(ModelServerTest, UnknownScenarioErrors) {
  ModelServer server;
  data::Batch batch;
  EXPECT_FALSE(server.Predict("ghost", batch).ok());
  EXPECT_FALSE(server.Undeploy("ghost").ok());
  EXPECT_FALSE(server.Deploy("x", nullptr).ok());
}

TEST(ModelServerTest, RedeployReplacesModel) {
  ModelServer server;
  ASSERT_TRUE(server.Deploy("s", MakeModel(6)).ok());
  data::SyntheticGenerator gen(ServingDataConfig());
  data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  auto before = server.Predict("s", batch).value();
  ASSERT_TRUE(server.Deploy("s", MakeModel(777)).ok());
  auto after = server.Predict("s", batch).value();
  bool changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(ModelServerTest, ConcurrentPredictsAreSafe) {
  ModelServer server;
  ASSERT_TRUE(server.Deploy("s", MakeModel(7)).ok());
  data::SyntheticGenerator gen(ServingDataConfig());
  data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  ThreadPool pool(4);
  std::atomic<int> ok_count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([&server, &batch, &ok_count]() {
      if (server.Predict("s", batch).ok()) ++ok_count;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ok_count.load(), 32);
}

// ---------------------------------------------------------------------------
// Online simulator
// ---------------------------------------------------------------------------

TEST(OnlineSimulatorTest, OracleBeatsRandomPolicy) {
  data::SyntheticGenerator gen(ServingDataConfig());
  OnlineSimOptions options;
  options.days = 3;
  options.users_per_day = 100;
  options.top_k = 20;

  // Oracle policy scores by ground truth; random policy is noise.
  ScoringFn oracle = [&gen](const data::ScenarioData& candidates) {
    std::vector<float> scores;
    for (int64_t i = 0; i < candidates.num_samples(); ++i) {
      scores.push_back(static_cast<float>(gen.TrueProbability(
          candidates.scenario_id,
          candidates.profiles.data() + i * candidates.profile_dim,
          candidates.behaviors.data() + i * candidates.seq_len)));
    }
    return scores;
  };
  Rng noise_rng(1);
  ScoringFn random_policy =
      [&noise_rng](const data::ScenarioData& candidates) {
        std::vector<float> scores;
        for (int64_t i = 0; i < candidates.num_samples(); ++i) {
          scores.push_back(static_cast<float>(noise_rng.Uniform()));
        }
        return scores;
      };

  auto oracle_ctr = RunOnlineSimulation(gen, 0, oracle, options);
  auto random_ctr = RunOnlineSimulation(gen, 0, random_policy, options);
  ASSERT_TRUE(oracle_ctr.ok());
  ASSERT_TRUE(random_ctr.ok());
  EXPECT_GT(oracle_ctr.value().mean_ctr, random_ctr.value().mean_ctr + 0.05);
  EXPECT_EQ(oracle_ctr.value().daily_ctr.size(), 3u);
}

TEST(OnlineSimulatorTest, CandidatesIdenticalAcrossPolicies) {
  // Both policies must see identical candidates: a policy that records what
  // it saw verifies the fairness property.
  data::SyntheticGenerator gen(ServingDataConfig());
  OnlineSimOptions options;
  options.days = 2;
  options.users_per_day = 30;
  options.top_k = 5;
  std::vector<std::vector<int64_t>> seen_a;
  std::vector<std::vector<int64_t>> seen_b;
  auto recorder = [](std::vector<std::vector<int64_t>>* seen) {
    return [seen](const data::ScenarioData& candidates) {
      seen->push_back(candidates.behaviors);
      return std::vector<float>(
          static_cast<size_t>(candidates.num_samples()), 0.5f);
    };
  };
  ASSERT_TRUE(RunOnlineSimulation(gen, 1, recorder(&seen_a), options).ok());
  ASSERT_TRUE(RunOnlineSimulation(gen, 1, recorder(&seen_b), options).ok());
  EXPECT_EQ(seen_a, seen_b);
}

TEST(OnlineSimulatorTest, BadOptionsRejected) {
  data::SyntheticGenerator gen(ServingDataConfig());
  auto policy = [](const data::ScenarioData& c) {
    return std::vector<float>(static_cast<size_t>(c.num_samples()), 0.0f);
  };
  OnlineSimOptions options;
  options.top_k = options.users_per_day + 1;
  EXPECT_FALSE(RunOnlineSimulation(gen, 0, policy, options).ok());
  options = OnlineSimOptions();
  options.days = 0;
  EXPECT_FALSE(RunOnlineSimulation(gen, 0, policy, options).ok());
}

TEST(OnlineSimulatorTest, TrainedModelPolicyBeatsRandom) {
  // The real serving path: train a small model, use it as the policy.
  data::SyntheticGenerator gen(ServingDataConfig());
  data::ScenarioData train_data = gen.GenerateScenario(0);
  auto model = MakeModel(11);
  train::TrainOptions train_options;
  train_options.epochs = 3;
  ASSERT_TRUE(train::TrainModel(model.get(), train_data, train_options).ok());

  ScoringFn model_policy = [&model](const data::ScenarioData& candidates) {
    return train::Predict(model.get(), candidates);
  };
  Rng noise_rng(2);
  ScoringFn random_policy =
      [&noise_rng](const data::ScenarioData& candidates) {
        std::vector<float> scores;
        for (int64_t i = 0; i < candidates.num_samples(); ++i) {
          scores.push_back(static_cast<float>(noise_rng.Uniform()));
        }
        return scores;
      };
  OnlineSimOptions options;
  options.days = 3;
  options.users_per_day = 120;
  options.top_k = 24;
  auto model_ctr = RunOnlineSimulation(gen, 0, model_policy, options);
  auto random_ctr = RunOnlineSimulation(gen, 0, random_policy, options);
  ASSERT_TRUE(model_ctr.ok());
  ASSERT_TRUE(random_ctr.ok());
  EXPECT_GT(model_ctr.value().mean_ctr, random_ctr.value().mean_ctr);
}

}  // namespace
}  // namespace serving
}  // namespace alt
