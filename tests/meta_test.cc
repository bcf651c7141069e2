#include "src/meta/meta_learner.h"

#include <cstring>
#include <future>
#include <optional>
#include <string>

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/core/onboard.h"
#include "src/data/synthetic.h"
#include "src/obs/memory_tracker.h"
#include "src/util/thread_pool.h"

namespace alt {
namespace meta {
namespace {

data::SyntheticConfig MetaDataConfig() {
  data::SyntheticConfig config;
  config.num_scenarios = 6;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {400, 300, 300, 200, 200, 150};
  config.seed = 55;
  return config;
}

models::ModelConfig MetaModelConfig() {
  models::ModelConfig c = models::ModelConfig::Heavy(
      models::EncoderKind::kLstm, 6, 8, 12);
  c.encoder_layers = 2;
  c.profile_hidden = {10};
  c.head_hidden = {8};
  // The synthetic workloads are scaled down ~500x from the paper's data,
  // so an equivalently scaled-up learning rate trains in a few epochs.
  c.learning_rate = 0.01f;
  return c;
}

MetaOptions FastMetaOptions() {
  MetaOptions options;
  options.init_train.epochs = 2;
  options.finetune.epochs = 1;
  options.meta_lr = 0.05f;
  return options;
}

TEST(MetaLearnerTest, RequiresInitialization) {
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  EXPECT_FALSE(learner.initialized());
  EXPECT_FALSE(learner.CloneAgnostic().ok());
  data::SyntheticGenerator gen(MetaDataConfig());
  EXPECT_FALSE(learner.AdaptToScenario(gen.GenerateScenario(0)).ok());
}

TEST(MetaLearnerTest, InitializeTrainsAgnosticModel) {
  data::SyntheticGenerator gen(MetaDataConfig());
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  ASSERT_TRUE(core::InitializeAgnostic(&learner, {gen.GenerateScenario(0),
                                                 gen.GenerateScenario(1)})
                  .ok());
  EXPECT_TRUE(learner.initialized());
  // The initialized model beats chance on a held-out scenario from the same
  // family (knowledge sharing).
  const double auc =
      train::EvaluateAuc(learner.agnostic_model(), gen.GenerateScenario(2));
  EXPECT_GT(auc, 0.55);
}

TEST(MetaLearnerTest, CloneAgnosticMatchesAndIsIndependent) {
  data::SyntheticGenerator gen(MetaDataConfig());
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  ASSERT_TRUE(
      core::InitializeAgnostic(&learner, {gen.GenerateScenario(0)}).ok());
  auto clone = learner.CloneAgnostic();
  ASSERT_TRUE(clone.ok());
  data::ScenarioData probe = gen.GenerateScenario(1);
  auto p1 = train::Predict(learner.agnostic_model(), probe);
  auto p2 = train::Predict(clone.value().get(), probe);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
}

TEST(MetaLearnerTest, AdaptImprovesScenarioFit) {
  data::SyntheticGenerator gen(MetaDataConfig());
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  ASSERT_TRUE(core::InitializeAgnostic(&learner, {gen.GenerateScenario(0),
                                                 gen.GenerateScenario(1),
                                                 gen.GenerateScenario(2)})
                  .ok());
  Rng split_rng(1);
  auto [train_part, test_part] =
      data::SplitTrainTest(gen.GenerateScenario(4), 0.3, &split_rng);
  const double before =
      train::EvaluateAuc(learner.agnostic_model(), test_part);
  auto adapted = learner.AdaptToScenario(train_part);
  ASSERT_TRUE(adapted.ok());
  const double after = train::EvaluateAuc(adapted.value().get(), test_part);
  // Fine-tuning on the scenario should not hurt much and usually helps.
  EXPECT_GT(after, before - 0.03);
}

TEST(MetaLearnerTest, FeedbackUpdatesAgnosticModel) {
  data::SyntheticGenerator gen(MetaDataConfig());
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  ASSERT_TRUE(
      core::InitializeAgnostic(&learner, {gen.GenerateScenario(0)}).ok());
  data::ScenarioData probe = gen.GenerateScenario(1);
  auto before = train::Predict(learner.agnostic_model(), probe);
  ASSERT_TRUE(learner.AdaptToScenario(gen.GenerateScenario(3),
                                      /*send_feedback=*/true)
                  .ok());
  auto after = train::Predict(learner.agnostic_model(), probe);
  bool changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) changed = true;
  }
  EXPECT_TRUE(changed);  // Eq. 2 moved theta_0.
}

TEST(MetaLearnerTest, NoFeedbackLeavesAgnosticUntouched) {
  data::SyntheticGenerator gen(MetaDataConfig());
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  ASSERT_TRUE(
      core::InitializeAgnostic(&learner, {gen.GenerateScenario(0)}).ok());
  data::ScenarioData probe = gen.GenerateScenario(1);
  auto before = train::Predict(learner.agnostic_model(), probe);
  ASSERT_TRUE(learner.AdaptToScenario(gen.GenerateScenario(3),
                                      /*send_feedback=*/false)
                  .ok());
  auto after = train::Predict(learner.agnostic_model(), probe);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

TEST(MetaLearnerTest, ParallelAdaptationIsSafe) {
  // Multiple scenarios adapt concurrently (the paper's Eq. 3 setting); the
  // learner must stay consistent and all adaptations must succeed.
  data::SyntheticGenerator gen(MetaDataConfig());
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  ASSERT_TRUE(
      core::InitializeAgnostic(&learner, {gen.GenerateScenario(0)}).ok());
  ThreadPool pool(3);
  std::vector<std::future<bool>> futures;
  for (int64_t s = 1; s < 6; ++s) {
    futures.push_back(pool.Submit([&learner, &gen, s]() {
      return learner.AdaptToScenario(gen.GenerateScenario(s)).ok();
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get());
  // Agnostic model still usable afterwards.
  EXPECT_TRUE(learner.CloneAgnostic().ok());
}

TEST(MetaLearnerTest, RecomputedFeedbackKeepsGradientsAndHalvesThePeak) {
  // The Eq. 2 feedback's graph at onboarding's shape: the heavy LSTM preset
  // (six layers, hidden 15) over one 240-row query chunk of length 16.
  data::SyntheticConfig config = MetaDataConfig();
  config.num_scenarios = 1;
  config.seq_len = 16;
  config.scenario_sizes = {240};
  data::Batch batch = data::MakeFullBatch(
      data::SyntheticGenerator(config).GenerateScenario(0));
  Rng rng(21);
  auto built = models::BuildBaseModel(
      models::ModelConfig::Heavy(models::EncoderKind::kLstm,
                                 config.profile_dim, config.seq_len,
                                 config.vocab_size),
      &rng);
  ASSERT_TRUE(built.ok());
  models::BaseModel* model = built.value().get();
  model->SetTraining(false);
  obs::MemoryTracker& memory = obs::MemoryTracker::Global();
  // Each run returns every parameter gradient and the rise of the tracked
  // peak over the live bytes it started from.
  auto run = [&](bool recompute, std::vector<Tensor>* grads) {
    model->ZeroGrad();
    const int64_t before = memory.live_bytes();
    memory.ResetPeak();
    {
      std::optional<ag::RecomputeGuard> guard;
      if (recompute) guard.emplace();
      ag::BCEWithLogits(model->Forward(batch),
                        ag::Variable::Constant(batch.labels))
          .Backward();
    }
    const int64_t rise = memory.peak_bytes() - before;
    grads->clear();
    for (ag::Variable* p : model->Parameters()) grads->push_back(p->grad());
    return rise;
  };
  std::vector<Tensor> want;
  std::vector<Tensor> got;
  run(/*recompute=*/false, &want);  // Warms every thread's scratch arena.
  const int64_t kept_rise = run(/*recompute=*/false, &want);
  const int64_t recomputed_rise = run(/*recompute=*/true, &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].SameShape(want[i])) << "parameter " << i;
    EXPECT_EQ(0, std::memcmp(got[i].data(), want[i].data(),
                             sizeof(float) *
                                 static_cast<size_t>(got[i].numel())))
        << "parameter " << i;
  }
  RecordProperty("kept_peak_rise_bytes", std::to_string(kept_rise));
  RecordProperty("recomputed_peak_rise_bytes",
                 std::to_string(recomputed_rise));
  if (!memory.enabled()) return;  // ALT_OBS=off: no peaks to compare.
  EXPECT_GT(kept_rise, 0);
  EXPECT_LE(2 * recomputed_rise, kept_rise)
      << "peak rise " << recomputed_rise << " B recomputed vs " << kept_rise
      << " B kept";
}

TEST(MetaLearnerTest, AdoptInitialModelValidatesSchema) {
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  EXPECT_FALSE(learner.AdoptInitialModel(nullptr).ok());
  Rng rng(3);
  models::ModelConfig wrong = MetaModelConfig();
  wrong.profile_dim = 99;
  auto wrong_model = models::BuildBaseModel(wrong, &rng);
  EXPECT_FALSE(
      learner.AdoptInitialModel(std::move(wrong_model).value()).ok());
  auto right_model = models::BuildBaseModel(MetaModelConfig(), &rng);
  EXPECT_TRUE(
      learner.AdoptInitialModel(std::move(right_model).value()).ok());
  EXPECT_TRUE(learner.initialized());
}

TEST(MetaLearnerTest, PeriodicRefreshSwapsModel) {
  data::SyntheticGenerator gen(MetaDataConfig());
  MetaLearner learner(MetaModelConfig(), FastMetaOptions());
  ASSERT_TRUE(
      core::InitializeAgnostic(&learner, {gen.GenerateScenario(0)}).ok());
  train::TrainOptions refresh;
  refresh.epochs = 1;
  ASSERT_TRUE(learner
                  .PeriodicRefresh({gen.GenerateScenario(0),
                                    gen.GenerateScenario(1)},
                                   refresh)
                  .ok());
  EXPECT_TRUE(learner.initialized());
}

}  // namespace
}  // namespace meta
}  // namespace alt
