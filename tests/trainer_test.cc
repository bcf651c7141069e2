#include "src/train/trainer.h"

#include <cmath>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"

namespace alt {
namespace train {
namespace {

data::SyntheticConfig TestDataConfig() {
  data::SyntheticConfig config;
  config.num_scenarios = 2;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {300, 300};
  config.seed = 77;
  return config;
}

models::ModelConfig TestModelConfig(models::EncoderKind kind) {
  models::ModelConfig c =
      models::ModelConfig::Heavy(kind, 6, 8, 12);
  c.encoder_layers = 2;
  c.profile_hidden = {12};
  c.head_hidden = {8};
  return c;
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  data::SyntheticGenerator gen(TestDataConfig());
  data::ScenarioData train_data = gen.GenerateScenario(0);
  Rng rng(1);
  auto model =
      models::BuildBaseModel(TestModelConfig(models::EncoderKind::kLstm),
                             &rng);
  ASSERT_TRUE(model.ok());
  TrainOptions options;
  options.epochs = 4;
  auto report = TrainModel(model.value().get(), train_data, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().epochs_run, 4);
  EXPECT_LT(report.value().final_epoch_loss, report.value().first_epoch_loss);
}

TEST(TrainerTest, BeatsRandomAuc) {
  data::SyntheticGenerator gen(TestDataConfig());
  Rng split_rng(3);
  auto [train_data, test_data] =
      data::SplitTrainTest(gen.GenerateScenario(0), 0.25, &split_rng);
  Rng rng(2);
  auto model =
      models::BuildBaseModel(TestModelConfig(models::EncoderKind::kLstm),
                             &rng);
  TrainOptions options;
  options.epochs = 5;
  ASSERT_TRUE(TrainModel(model.value().get(), train_data, options).ok());
  EXPECT_GT(EvaluateAuc(model.value().get(), test_data), 0.58);
}

TEST(TrainerTest, EmptyDataRejected) {
  Rng rng(4);
  auto model = models::BuildBaseModel(models::ModelConfig::ProfileOnly(6),
                                      &rng);
  data::ScenarioData empty;
  empty.profile_dim = 6;
  empty.seq_len = 8;
  TrainOptions options;
  EXPECT_FALSE(TrainModel(model.value().get(), empty, options).ok());
}

TEST(TrainerTest, BadOptionsRejected) {
  data::SyntheticGenerator gen(TestDataConfig());
  data::ScenarioData train_data = gen.GenerateScenario(1);
  Rng rng(5);
  auto model = models::BuildBaseModel(models::ModelConfig::ProfileOnly(6),
                                      &rng);
  TrainOptions options;
  options.epochs = 0;
  EXPECT_FALSE(TrainModel(model.value().get(), train_data, options).ok());
}

TEST(TrainerTest, EarlyStoppingByPatience) {
  data::SyntheticGenerator gen(TestDataConfig());
  data::ScenarioData train_data = gen.GenerateScenario(0);
  Rng rng(6);
  auto model = models::BuildBaseModel(models::ModelConfig::ProfileOnly(6),
                                      &rng);
  TrainOptions options;
  options.epochs = 50;
  options.patience = 1;
  options.min_improvement = 0.5f;  // Huge bar: stops almost immediately.
  auto report = TrainModel(model.value().get(), train_data, options);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report.value().epochs_run, 10);
}

TEST(TrainerTest, PredictBatchesMatchFullEvaluation) {
  data::SyntheticGenerator gen(TestDataConfig());
  data::ScenarioData dataset = gen.GenerateScenario(0);
  Rng rng(7);
  auto model = models::BuildBaseModel(models::ModelConfig::ProfileOnly(6),
                                      &rng);
  std::vector<float> small = Predict(model.value().get(), dataset, 32);
  std::vector<float> large = Predict(model.value().get(), dataset, 1024);
  ASSERT_EQ(small.size(), large.size());
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_NEAR(small[i], large[i], 1e-6f);
  }
}

TEST(TrainerTest, DistilledStudentTracksTeacher) {
  // A student distilled with a large delta should end up closer to the
  // teacher's predictions than a student trained on hard labels only.
  data::SyntheticGenerator gen(TestDataConfig());
  Rng split_rng(9);
  auto [train_data, test_data] =
      data::SplitTrainTest(gen.GenerateScenario(0), 0.25, &split_rng);

  Rng teacher_rng(10);
  auto teacher =
      models::BuildBaseModel(TestModelConfig(models::EncoderKind::kLstm),
                             &teacher_rng);
  TrainOptions teacher_options;
  teacher_options.epochs = 4;
  ASSERT_TRUE(
      TrainModel(teacher.value().get(), train_data, teacher_options).ok());
  // The teacher scores each training row once, into the soft-label column.
  data::ScenarioData labelled = train_data;
  labelled.soft_labels = Predict(teacher.value().get(), train_data, 64);

  auto train_student = [&](const data::ScenarioData& data, float delta) {
    Rng rng(11);
    auto student = models::BuildBaseModel(
        models::ModelConfig::ProfileOnly(6), &rng);
    TrainOptions options;
    options.epochs = 4;
    options.seed = 11;
    EXPECT_TRUE(TrainModel(student.value().get(), data, options, delta).ok());
    return Predict(student.value().get(), test_data);
  };
  const std::vector<float> distilled_probs = train_student(labelled, 4.0f);
  const std::vector<float> plain_probs = train_student(labelled, 0.0f);
  // Without the column a positive delta leaves the hard labels alone.
  EXPECT_EQ(train_student(train_data, 4.0f), plain_probs);

  auto teacher_probs = Predict(teacher.value().get(), test_data);
  double dist_d = 0.0;
  double dist_p = 0.0;
  for (size_t i = 0; i < teacher_probs.size(); ++i) {
    dist_d += std::abs(distilled_probs[i] - teacher_probs[i]);
    dist_p += std::abs(plain_probs[i] - teacher_probs[i]);
  }
  EXPECT_LT(dist_d, dist_p);
}

TEST(TrainerTest, TrainingIsDeterministicPerSeed) {
  data::SyntheticGenerator gen(TestDataConfig());
  data::ScenarioData train_data = gen.GenerateScenario(1);
  auto run = [&]() {
    Rng rng(21);
    auto model = models::BuildBaseModel(models::ModelConfig::ProfileOnly(6),
                                        &rng);
    TrainOptions options;
    options.epochs = 2;
    options.seed = 42;
    EXPECT_TRUE(TrainModel(model.value().get(), train_data, options).ok());
    return Predict(model.value().get(), train_data);
  };
  auto p1 = run();
  auto p2 = run();
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
}

}  // namespace
}  // namespace train
}  // namespace alt
