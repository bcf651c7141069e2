#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/models/base_model.h"
#include "src/models/model_config.h"
#include "src/tensor/cpu_features.h"
#include "src/util/parallel_for.h"

namespace alt {
namespace models {
namespace {

data::Batch SmallBatch(int64_t batch = 4, int64_t p_dim = 8,
                       int64_t seq_len = 6, int64_t vocab = 10) {
  Rng rng(5);
  data::Batch b;
  b.batch_size = batch;
  b.seq_len = seq_len;
  b.profiles = Tensor::Randn({batch, p_dim}, &rng);
  b.behaviors.resize(static_cast<size_t>(batch * seq_len));
  for (auto& id : b.behaviors) id = rng.UniformInt(0, vocab - 1);
  b.labels = Tensor({batch, 1});
  for (int64_t i = 0; i < batch; ++i) {
    b.labels.at(i, 0) = (i % 2 == 0) ? 1.0f : 0.0f;
  }
  return b;
}

ModelConfig SmallConfig(EncoderKind kind) {
  ModelConfig c = ModelConfig::Heavy(kind, /*profile_dim=*/8,
                                     /*seq_len=*/6, /*vocab_size=*/10);
  c.encoder_layers = 2;
  c.profile_hidden = {12};
  c.head_hidden = {8};
  return c;
}

TEST(ModelConfigTest, JsonRoundTrip) {
  ModelConfig c = SmallConfig(EncoderKind::kBert);
  c.learning_rate = 0.005f;
  c.dropout = 0.1f;
  auto parsed = ModelConfig::FromJson(c.ToJson());
  ASSERT_TRUE(parsed.ok());
  const ModelConfig& p = parsed.value();
  EXPECT_EQ(p.encoder, EncoderKind::kBert);
  EXPECT_EQ(p.profile_dim, 8);
  EXPECT_EQ(p.encoder_layers, 2);
  EXPECT_EQ(p.profile_hidden, c.profile_hidden);
  EXPECT_EQ(p.head_hidden, c.head_hidden);
  EXPECT_FLOAT_EQ(p.learning_rate, 0.005f);
  EXPECT_FLOAT_EQ(p.dropout, 0.1f);
}

TEST(ModelConfigTest, EncoderKindNames) {
  EXPECT_STREQ(EncoderKindName(EncoderKind::kLstm), "lstm");
  EXPECT_TRUE(EncoderKindFromName("bert").ok());
  EXPECT_FALSE(EncoderKindFromName("rnn").ok());
}

TEST(ModelConfigTest, BertHeadsMustDivide) {
  ModelConfig c = SmallConfig(EncoderKind::kBert);
  c.hidden_dim = 16;  // not divisible by 3 heads
  EXPECT_FALSE(ModelConfig::FromJson(c.ToJson()).ok());
}

TEST(ModelConfigTest, PresetsMatchPaper) {
  ModelConfig heavy = ModelConfig::Heavy(EncoderKind::kLstm, 69, 128, 40);
  EXPECT_EQ(heavy.encoder_layers, 6);
  EXPECT_EQ(heavy.hidden_dim, 15);
  ModelConfig light = ModelConfig::Light(EncoderKind::kBert, 69, 128, 40);
  EXPECT_EQ(light.encoder_layers, 3);
  EXPECT_EQ(light.ff_dim, 32);
}

class BuildModelTest : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(BuildModelTest, ForwardShapeAndProbs) {
  Rng rng(3);
  auto model = BuildBaseModel(SmallConfig(GetParam()), &rng);
  ASSERT_TRUE(model.ok());
  data::Batch batch = SmallBatch();
  Tensor logits = model.value()->Forward(batch).value();
  EXPECT_EQ(logits.shape(), (std::vector<int64_t>{4, 1}));
  std::vector<float> probs = model.value()->PredictProbs(batch);
  ASSERT_EQ(probs.size(), 4u);
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  EXPECT_GT(model.value()->FlopsPerSample(), 0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BuildModelTest,
                         ::testing::Values(EncoderKind::kNone,
                                           EncoderKind::kLstm,
                                           EncoderKind::kBert),
                         [](const auto& info) {
                           return EncoderKindName(info.param);
                         });

TEST(BuildModelTest, NasKindRejectedByBaseFactory) {
  Rng rng(3);
  EXPECT_FALSE(BuildBaseModel(SmallConfig(EncoderKind::kNas), &rng).ok());
}

TEST(BaseModelTest, CloneProducesIdenticalPredictions) {
  Rng rng(4);
  auto model = BuildBaseModel(SmallConfig(EncoderKind::kLstm), &rng);
  ASSERT_TRUE(model.ok());
  Rng rng2(99);
  auto clone = CloneBaseModel(model.value().get(), &rng2);
  ASSERT_TRUE(clone.ok());
  data::Batch batch = SmallBatch();
  auto p1 = model.value()->PredictProbs(batch);
  auto p2 = clone.value()->PredictProbs(batch);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
}

TEST(BaseModelTest, CloneIsIndependentAfterMutation) {
  Rng rng(4);
  auto model = BuildBaseModel(SmallConfig(EncoderKind::kLstm), &rng);
  auto clone = CloneBaseModel(model.value().get(), &rng);
  // Mutate the source; the clone must not change.
  (*model.value()->Parameters()[0]).mutable_value().Fill(0.0f);
  data::Batch batch = SmallBatch();
  auto p_model = model.value()->PredictProbs(batch);
  auto p_clone = clone.value()->PredictProbs(batch);
  bool any_diff = false;
  for (size_t i = 0; i < p_model.size(); ++i) {
    if (std::abs(p_model[i] - p_clone[i]) > 1e-6f) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BaseModelTest, HeavyHasMoreFlopsThanLight) {
  Rng rng(5);
  ModelConfig heavy = ModelConfig::Heavy(EncoderKind::kLstm, 8, 6, 10);
  ModelConfig light = ModelConfig::Light(EncoderKind::kLstm, 8, 6, 10);
  auto heavy_model = BuildBaseModel(heavy, &rng);
  auto light_model = BuildBaseModel(light, &rng);
  EXPECT_GT(heavy_model.value()->FlopsPerSample(),
            light_model.value()->FlopsPerSample());
}

TEST(BaseModelTest, ProfileOnlyIgnoresBehavior) {
  Rng rng(6);
  auto model = BuildBaseModel(ModelConfig::ProfileOnly(8), &rng);
  ASSERT_TRUE(model.ok());
  data::Batch batch = SmallBatch();
  auto p1 = model.value()->PredictProbs(batch);
  // Change the behavior ids; predictions must not change.
  for (auto& id : batch.behaviors) id = 0;
  auto p2 = model.value()->PredictProbs(batch);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
  EXPECT_EQ(model.value()->behavior_encoder(), nullptr);
}

TEST(BaseModelTest, SequenceModelUsesBehavior) {
  Rng rng(7);
  auto model = BuildBaseModel(SmallConfig(EncoderKind::kLstm), &rng);
  data::Batch batch = SmallBatch();
  auto p1 = model.value()->PredictProbs(batch);
  for (auto& id : batch.behaviors) id = (id + 3) % 10;
  auto p2 = model.value()->PredictProbs(batch);
  bool any_diff = false;
  for (size_t i = 0; i < p1.size(); ++i) {
    if (std::abs(p1[i] - p2[i]) > 1e-6f) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BaseModelTest, DropoutOnlyAffectsTrainingMode) {
  Rng rng(8);
  ModelConfig config = SmallConfig(EncoderKind::kNone);
  config.dropout = 0.5f;
  auto model = BuildBaseModel(config, &rng);
  data::Batch batch = SmallBatch();
  // Eval-mode predictions must be deterministic despite dropout config.
  auto p1 = model.value()->PredictProbs(batch);
  auto p2 = model.value()->PredictProbs(batch);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
}

TEST(BaseModelTest, BatchCompositionDoesNotChangeARowsScore) {
  // A row's PredictProbs value must not depend on the other rows of its
  // batch: serving merges requests into one engine call, altbench checks
  // scores exactly, and teacher labels scored once must equal per-batch
  // scoring. Checked byte for byte for the LSTM and BERT presets, fp32 and
  // int8, at every SIMD level this host runs and at 1 and 4 threads.
  data::SyntheticConfig data_config;
  data_config.num_scenarios = 1;
  data_config.scenario_sizes = {64};
  const data::ScenarioData rows =
      data::SyntheticGenerator(data_config).GenerateScenario(0);
  std::vector<size_t> all(64);
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const data::Batch full = data::MakeBatch(rows, all);
  const data::Batch head = data::MakeBatch(
      rows, std::vector<size_t>(all.begin(), all.begin() + 37));
  const data::Batch tail = data::MakeBatch(
      rows, std::vector<size_t>(all.begin() + 37, all.end()));

  const SimdLevel saved_level = ActiveSimdLevel();
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SetSimdLevel(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (SetSimdLevel(SimdLevel::kAvx512)) levels.push_back(SimdLevel::kAvx512);
  for (EncoderKind kind : {EncoderKind::kLstm, EncoderKind::kBert}) {
    for (bool heavy : {true, false}) {
      const ModelConfig config =
          heavy ? ModelConfig::Heavy(kind, data_config.profile_dim,
                                     data_config.seq_len,
                                     data_config.vocab_size)
                : ModelConfig::Light(kind, data_config.profile_dim,
                                     data_config.seq_len,
                                     data_config.vocab_size);
      for (bool int8 : {false, true}) {
        Rng rng(21);
        auto built = BuildBaseModel(config, &rng);
        ASSERT_TRUE(built.ok());
        BaseModel* model = built.value().get();
        if (int8) {
          ASSERT_GT(model->QuantizeForServing(), 0);
        }
        for (SimdLevel level : levels) {
          ASSERT_TRUE(SetSimdLevel(level));
          for (int threads : {1, 4}) {
            SetComputeThreads(threads);
            const std::string where =
                std::string(EncoderKindName(kind)) +
                (heavy ? " heavy" : " light") + (int8 ? " int8 " : " fp32 ") +
                SimdLevelName(level) + " threads=" + std::to_string(threads);
            const std::vector<float> want = model->PredictProbs(full);
            ASSERT_EQ(want.size(), 64u);
            std::vector<float> split = model->PredictProbs(head);
            const std::vector<float> rest = model->PredictProbs(tail);
            split.insert(split.end(), rest.begin(), rest.end());
            ASSERT_EQ(split.size(), want.size());
            EXPECT_EQ(0, std::memcmp(split.data(), want.data(),
                                     sizeof(float) * want.size()))
                << where << ": 37 + 27 rows";
            for (size_t r = 0; r < all.size(); ++r) {
              const std::vector<float> one =
                  model->PredictProbs(data::MakeBatch(rows, {all[r]}));
              ASSERT_EQ(one.size(), 1u);
              EXPECT_EQ(0, std::memcmp(&one[0], &want[r], sizeof(float)))
                  << where << ": row " << r << " alone";
            }
          }
        }
      }
    }
  }
  SetComputeThreads(0);
  SetSimdLevel(saved_level);
}

}  // namespace
}  // namespace models
}  // namespace alt
