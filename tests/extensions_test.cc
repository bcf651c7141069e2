// Tests of the production extensions: CMA-ES tuner internals, AdamW,
// learning-rate schedules, and AltSystem state persistence.

#include <cstdio>
#include <filesystem>

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/core/alt_system.h"
#include "src/data/synthetic.h"
#include "src/hpo/cmaes.h"
#include "src/obs/metrics.h"
#include "src/opt/lr_schedule.h"
#include "src/opt/optimizer.h"

namespace alt {
namespace {

// ---------------------------------------------------------------------------
// CMA-ES
// ---------------------------------------------------------------------------

TEST(CmaEsTest, ConvergesOnShiftedSphere) {
  hpo::SearchSpace space;
  space.AddDouble("x", -1.0, 1.0).AddDouble("y", -1.0, 1.0).AddDouble(
      "z", -1.0, 1.0);
  hpo::CmaEsTuner tuner(space, 7);
  for (int i = 0; i < 150; ++i) {
    hpo::TrialConfig config = tuner.Ask();
    const double dx = hpo::GetDouble(config, "x") - 0.4;
    const double dy = hpo::GetDouble(config, "y") + 0.2;
    const double dz = hpo::GetDouble(config, "z") - 0.1;
    tuner.Tell(config, -(dx * dx + dy * dy + dz * dz));
  }
  EXPECT_GT(tuner.best().objective, -0.02);
}

TEST(CmaEsTest, SigmaShrinksNearOptimum) {
  hpo::SearchSpace space;
  space.AddDouble("x", -1.0, 1.0).AddDouble("y", -1.0, 1.0);
  hpo::CmaEsTuner tuner(space, 11);
  const double sigma0 = tuner.sigma();
  for (int i = 0; i < 200; ++i) {
    hpo::TrialConfig config = tuner.Ask();
    const double dx = hpo::GetDouble(config, "x");
    const double dy = hpo::GetDouble(config, "y");
    tuner.Tell(config, -(dx * dx + dy * dy));
  }
  EXPECT_LT(tuner.sigma(), sigma0);
}

TEST(CmaEsTest, HandlesMixedParameterTypes) {
  hpo::SearchSpace space;
  space.AddDouble("lr", 1e-4, 1e-1, /*log_scale=*/true)
      .AddInt("layers", 1, 8)
      .AddCategorical("act", {"relu", "tanh", "gelu"});
  hpo::CmaEsTuner tuner(space, 13);
  for (int i = 0; i < 60; ++i) {
    hpo::TrialConfig config = tuner.Ask();
    ASSERT_TRUE(space.Validate(config).ok());
    // Favor layers near 6.
    const double d = static_cast<double>(hpo::GetInt(config, "layers")) - 6.0;
    tuner.Tell(config, -d * d);
  }
  EXPECT_GE(tuner.best().objective, -1.0);  // layers in {5, 6, 7}.
}

TEST(CmaEsTest, ToleratesForeignTells) {
  hpo::SearchSpace space;
  space.AddDouble("x", 0.0, 1.0);
  hpo::CmaEsTuner tuner(space, 17);
  // Tell configs that were never asked; must not crash and must record.
  for (int i = 0; i < 12; ++i) {
    hpo::TrialConfig config = {{"x", 0.1 * (i % 10)}};
    tuner.Tell(config, -static_cast<double>(i));
  }
  EXPECT_EQ(tuner.history().size(), 12u);
}

// ---------------------------------------------------------------------------
// AdamW + schedules
// ---------------------------------------------------------------------------

TEST(AdamWTest, DecaysWeightsTowardZero) {
  // With zero gradient signal on half the steps... simpler: pure decay
  // comparison — AdamW with decay ends with smaller weights than Adam on
  // the same noisy objective.
  auto run = [](bool decay) {
    ag::Variable w =
        ag::Variable::Parameter(Tensor::Full({4}, 2.0f));
    std::unique_ptr<opt::Optimizer> optimizer;
    if (decay) {
      optimizer = std::make_unique<opt::AdamW>(
          std::vector<ag::Variable*>{&w}, 0.05f, 0.1f);
    } else {
      optimizer = std::make_unique<opt::Adam>(
          std::vector<ag::Variable*>{&w}, 0.05f);
    }
    Rng rng(5);
    for (int step = 0; step < 100; ++step) {
      optimizer->ZeroGrad();
      // Pure-noise gradient: no signal, so decay dominates.
      ag::Variable noise =
          ag::Variable::Constant(Tensor::Randn({4}, &rng, 0.1f));
      ag::SumAll(ag::Mul(w, noise)).Backward();
      optimizer->Step();
    }
    return std::sqrt(w.value().SquaredNorm());
  };
  EXPECT_LT(run(true), run(false));
}

TEST(AdamWTest, StillConvergesOnQuadratic) {
  ag::Variable w = ag::Variable::Parameter(Tensor::Zeros({2}));
  Tensor target = Tensor::FromVector({2}, {0.8f, -0.6f});
  opt::AdamW optimizer({&w}, 0.05f, /*weight_decay=*/1e-3f);
  for (int step = 0; step < 400; ++step) {
    optimizer.ZeroGrad();
    ag::Variable diff = ag::Sub(w, ag::Variable::Constant(target));
    ag::SumAll(ag::Mul(diff, diff)).Backward();
    optimizer.Step();
  }
  EXPECT_NEAR(w.value()[0], 0.8f, 0.05f);
  EXPECT_NEAR(w.value()[1], -0.6f, 0.05f);
}

TEST(LrScheduleTest, ConstantAndWarmup) {
  opt::ConstantSchedule constant(0.1f);
  EXPECT_FLOAT_EQ(constant.LearningRate(0), 0.1f);
  EXPECT_FLOAT_EQ(constant.LearningRate(1000), 0.1f);

  opt::WarmupSchedule warmup(1.0f, 10);
  EXPECT_FLOAT_EQ(warmup.LearningRate(0), 0.1f);
  EXPECT_FLOAT_EQ(warmup.LearningRate(4), 0.5f);
  EXPECT_FLOAT_EQ(warmup.LearningRate(9), 1.0f);
  EXPECT_FLOAT_EQ(warmup.LearningRate(100), 1.0f);
}

TEST(LrScheduleTest, StepDecay) {
  opt::StepDecaySchedule schedule(1.0f, 10, 0.5f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(0), 1.0f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(9), 1.0f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(10), 0.5f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(25), 0.25f);
}

TEST(LrScheduleTest, CosineMonotoneDecreaseToFloor) {
  opt::CosineSchedule schedule(1.0f, 100, 0.1f);
  EXPECT_NEAR(schedule.LearningRate(0), 1.0f, 1e-5f);
  float prev = 2.0f;
  for (int64_t step = 0; step <= 100; step += 10) {
    const float lr = schedule.LearningRate(step);
    EXPECT_LE(lr, prev);
    prev = lr;
  }
  EXPECT_NEAR(schedule.LearningRate(100), 0.1f, 1e-5f);
  EXPECT_NEAR(schedule.LearningRate(500), 0.1f, 1e-5f);
}

// ---------------------------------------------------------------------------
// AltSystem persistence
// ---------------------------------------------------------------------------

TEST(PersistenceTest, SaveLoadRoundTrip) {
  data::SyntheticConfig dc;
  dc.num_scenarios = 3;
  dc.profile_dim = 6;
  dc.seq_len = 8;
  dc.vocab_size = 12;
  dc.scenario_sizes = {300, 250, 200};
  dc.seed = 91;
  data::SyntheticGenerator gen(dc);

  core::AltSystemOptions options;
  options.heavy_config = models::ModelConfig::Heavy(
      models::EncoderKind::kLstm, 6, 8, 12);
  options.heavy_config.encoder_layers = 2;
  options.heavy_config.hidden_dim = 6;
  options.heavy_config.learning_rate = 0.01f;
  options.light_config = options.heavy_config;
  options.light_config.encoder_layers = 1;
  options.meta.init_train.epochs = 2;
  options.meta.finetune.epochs = 1;
  options.nas.supernet.num_layers = 2;
  options.nas.search_epochs = 1;
  options.nas.final_train.epochs = 1;
  options.seed = 3;

  const std::string dir = ::testing::TempDir() + "/alt_state_test";
  std::filesystem::remove_all(dir);

  std::vector<float> saved_probs;
  std::string deployment;
  {
    core::AltSystem system(options);
    ASSERT_TRUE(system.Initialize({gen.GenerateScenario(0)}).ok());
    auto artifacts = system.OnScenarioArrival(gen.GenerateScenario(1));
    ASSERT_TRUE(artifacts.ok());
    deployment = artifacts.value().deployment_name;
    data::Batch probe = MakeFullBatch(gen.GenerateScenario(2));
    saved_probs = system.serving()->Predict(deployment, probe).value();
    ASSERT_TRUE(system.SaveState(dir).ok());
  }
  {
    core::AltSystem restored(options);
    EXPECT_FALSE(restored.initialized());
    ASSERT_TRUE(restored.LoadState(dir).ok());
    EXPECT_TRUE(restored.initialized());
    ASSERT_TRUE(restored.serving()->IsDeployed(deployment));
    data::Batch probe = MakeFullBatch(gen.GenerateScenario(2));
    auto probs = restored.serving()->Predict(deployment, probe);
    ASSERT_TRUE(probs.ok());
    ASSERT_EQ(probs.value().size(), saved_probs.size());
    for (size_t i = 0; i < saved_probs.size(); ++i) {
      EXPECT_FLOAT_EQ(probs.value()[i], saved_probs[i]);
    }
    // The restored system can continue processing new scenarios.
    EXPECT_TRUE(restored.OnScenarioArrival(gen.GenerateScenario(2)).ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, LoadFromMissingDirectoryFails) {
  core::AltSystemOptions options;
  options.heavy_config = models::ModelConfig::Heavy(
      models::EncoderKind::kLstm, 6, 8, 12);
  options.light_config = options.heavy_config;
  core::AltSystem system(options);
  EXPECT_FALSE(system.LoadState("/nonexistent/alt_state").ok());
  EXPECT_FALSE(system.SaveState("/tmp/alt_never").ok());  // Not initialized.
}

}  // namespace
}  // namespace alt
