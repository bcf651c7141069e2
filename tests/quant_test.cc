// End-to-end tests for the int8 quantized serving path: quantized Linear
// accuracy against the analytic quantization error bound, model-level AUC
// parity with fp32, the deploy option with its calibration telemetry (the
// shard coordinator quantizes once per deploy, for every replica), and
// merged single-row requests over a quantized deployment.

#include "src/tensor/quant.h"

#include <cmath>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/nn/linear.h"
#include "src/obs/metrics.h"
#include "src/serving/serving_client.h"
#include "src/serving/shard/coordinator.h"
#include "src/tensor/cpu_features.h"
#include "src/train/trainer.h"

namespace alt {
namespace {

Tensor RandTensor(std::vector<int64_t> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(-2.0, 2.0));
  }
  return t;
}

data::SyntheticConfig QuantDataConfig() {
  data::SyntheticConfig config;
  config.num_scenarios = 1;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {300};
  config.score_scale = 2.5;  // Clean labels: the AUC parity check needs a
                             // model that is actually above chance.
  config.seed = 91;
  return config;
}

models::ModelConfig QuantModelConfig() {
  models::ModelConfig c =
      models::ModelConfig::Light(models::EncoderKind::kLstm, 6, 8, 12);
  c.encoder_layers = 1;
  c.profile_hidden = {8};
  c.head_hidden = {8};
  return c;
}

std::unique_ptr<models::BaseModel> MakeModel(uint64_t seed) {
  Rng rng(seed);
  auto model = models::BuildBaseModel(QuantModelConfig(), &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

/// Trains one model on the synthetic scenario; same seed => same weights.
std::unique_ptr<models::BaseModel> MakeTrainedModel(
    const data::ScenarioData& scenario, uint64_t seed) {
  auto model = MakeModel(seed);
  train::TrainOptions options;
  options.epochs = 6;
  options.seed = 5;
  EXPECT_TRUE(train::TrainModel(model.get(), scenario, options).ok());
  return model;
}

// ---------------------------------------------------------------------------
// Layer level

TEST(QuantTest, LinearInt8WithinAnalyticErrorBound) {
  // |x.w - dequant(int8)| per output is bounded by the sum over the
  // reduction of |x| * sw/2 + |w| * sx/2 + sx * sw / 4 (half-step
  // quantization errors on both operands plus their product); a 5% slop
  // absorbs fp32 accumulation rounding on both paths.
  Rng rng(7);
  const int64_t m = 5, k = 33, n = 17;
  nn::Linear layer(k, n, &rng, /*use_bias=*/false);
  layer.SetTraining(false);
  Tensor x = RandTensor({m, k}, &rng);

  const Tensor w = layer.Parameters()[0]->value();  // [k, n]
  const Tensor fp = layer.Forward(ag::Variable::Constant(x)).value();
  ASSERT_FALSE(layer.quantized());
  EXPECT_EQ(layer.QuantizeForServing(), 1);
  ASSERT_TRUE(layer.quantized());
  const Tensor q8 = layer.Forward(ag::Variable::Constant(x)).value();

  const quant::QuantizedMatrix qw = quant::QuantizeWeight(w);
  std::vector<float> sx(static_cast<size_t>(m));
  std::vector<int8_t> xq(static_cast<size_t>(m * k));
  quant::QuantizeRows(x.data(), m, k, xq.data(), sx.data());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double bound = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        bound += std::fabs(x[i * k + p]) * 0.5 * qw.scales[j] +
                 std::fabs(w[p * n + j]) * 0.5 * sx[i] +
                 0.25 * sx[i] * qw.scales[j];
      }
      ASSERT_LE(std::fabs(static_cast<double>(fp[i * n + j]) - q8[i * n + j]),
                bound * 1.05 + 1e-5)
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(QuantTest, TrainingModeKeepsFp32PathAfterQuantize) {
  Rng rng(8);
  nn::Linear layer(9, 4, &rng);
  Tensor x = RandTensor({3, 9}, &rng);
  layer.SetTraining(true);
  const Tensor before = layer.Forward(ag::Variable::Constant(x)).value();
  EXPECT_EQ(layer.QuantizeForServing(), 1);
  // Training mode must keep using the intact fp32 weights bit-for-bit.
  const Tensor after = layer.Forward(ag::Variable::Constant(x)).value();
  ASSERT_EQ(before.numel(), after.numel());
  for (int64_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(before[i], after[i]) << "training-mode drift at " << i;
  }
  // Eval mode flips to the quantized kernel (values close, not identical).
  layer.SetTraining(false);
  const Tensor q8 = layer.Forward(ag::Variable::Constant(x)).value();
  for (int64_t i = 0; i < before.numel(); ++i) {
    ASSERT_NEAR(q8[i], before[i], 0.2);
  }
}

TEST(QuantTest, LinearInt8Rank3AndBias) {
  Rng rng(9);
  nn::Linear layer(7, 5, &rng, /*use_bias=*/true);
  layer.SetTraining(false);
  Tensor x = RandTensor({2, 3, 7}, &rng);
  const Tensor fp = layer.Forward(ag::Variable::Constant(x)).value();
  EXPECT_EQ(layer.QuantizeForServing(), 1);
  const Tensor q8 = layer.Forward(ag::Variable::Constant(x)).value();
  ASSERT_EQ(q8.ndim(), 3);
  ASSERT_EQ(q8.size(0), 2);
  ASSERT_EQ(q8.size(1), 3);
  ASSERT_EQ(q8.size(2), 5);
  for (int64_t i = 0; i < fp.numel(); ++i) {
    ASSERT_NEAR(q8[i], fp[i], 0.05) << "rank-3 int8 at " << i;
  }
}

// ---------------------------------------------------------------------------
// Model level

TEST(QuantTest, QuantizedModelAucWithinHalfPercentOfFp32) {
  data::SyntheticGenerator gen(QuantDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(0);
  auto model = MakeTrainedModel(scenario, 21);

  const double auc_fp32 = train::EvaluateAuc(model.get(), scenario);
  EXPECT_GT(auc_fp32, 0.6) << "training failed; AUC parity check is vacuous";

  const int64_t quantized = model->QuantizeForServing();
  // The light model carries several Linear layers (profile tower + head).
  EXPECT_GE(quantized, 2);
  const double auc_int8 = train::EvaluateAuc(model.get(), scenario);
  EXPECT_NEAR(auc_int8, auc_fp32, 0.005)
      << "int8 AUC " << auc_int8 << " vs fp32 " << auc_fp32;
}

TEST(QuantTest, QuantizeForServingIdempotent) {
  data::SyntheticGenerator gen(QuantDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(0);
  data::Batch batch = MakeFullBatch(scenario);
  auto model = MakeModel(22);
  model->SetTraining(false);
  model->QuantizeForServing();
  const std::vector<float> once = model->PredictProbs(batch);
  model->QuantizeForServing();
  const std::vector<float> twice = model->PredictProbs(batch);
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    ASSERT_EQ(once[i], twice[i]) << "re-quantize drift at " << i;
  }
}

// ---------------------------------------------------------------------------
// Serving level

/// Two shards that both serve every scenario: a deploy reaches two replicas.
serving::shard::CoordinatorOptions TwoReplicas() {
  serving::shard::CoordinatorOptions options;
  options.num_shards = 2;
  options.replication = 2;
  return options;
}

TEST(QuantTest, DeployQuantizedRecordsCalibrationTelemetry) {
  data::SyntheticGenerator gen(QuantDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(0);
  data::Batch batch = MakeFullBatch(scenario);

  // Two identically-seeded models: one stays fp32 for reference.
  auto fp32_model = MakeTrainedModel(scenario, 23);
  auto int8_model = MakeTrainedModel(scenario, 23);
  const std::vector<float> fp32_probs = fp32_model->PredictProbs(batch);

  obs::MetricsRegistry registry;
  serving::shard::ShardCoordinator coordinator(TwoReplicas(), &registry);
  serving::DeployOptions options;
  options.quantize_int8 = true;
  options.calibration = &batch;
  ASSERT_TRUE(
      coordinator.Deploy("tail_a", std::move(int8_model), options).ok());

  // One quantization for the deploy, though two replicas serve it.
  EXPECT_EQ(coordinator.ReplicasOf("tail_a").size(), 2u);
  EXPECT_EQ(registry.counter("serving/quantized_deploys")->value(), 1);
  const double max_delta =
      registry.gauge("serving/quantization/max_prob_delta/tail_a")->value();
  EXPECT_GT(max_delta, 0.0) << "int8 path apparently not engaged";
  EXPECT_LT(max_delta, 0.05);

  auto probs = coordinator.Predict("tail_a", batch);
  ASSERT_TRUE(probs.ok());
  ASSERT_EQ(probs.value().size(), fp32_probs.size());
  double served_delta = 0.0;
  for (size_t i = 0; i < fp32_probs.size(); ++i) {
    served_delta = std::max(
        served_delta, std::fabs(static_cast<double>(probs.value()[i]) -
                                fp32_probs[i]));
  }
  // The served predictions match the calibration measurement's promise.
  EXPECT_LE(served_delta, max_delta + 1e-6);
}

TEST(QuantTest, DeployWithoutCalibrationStillQuantizes) {
  obs::MetricsRegistry registry;
  serving::shard::ShardCoordinator coordinator(TwoReplicas(), &registry);
  serving::DeployOptions options;
  options.quantize_int8 = true;  // No calibration batch.
  ASSERT_TRUE(coordinator.Deploy("tail_b", MakeModel(24), options).ok());
  EXPECT_EQ(registry.counter("serving/quantized_deploys")->value(), 1);
  EXPECT_EQ(registry.gauge("serving/quantization/max_prob_delta/tail_b")
                ->value(),
            0.0);
  data::SyntheticGenerator gen(QuantDataConfig());
  data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  auto probs = coordinator.Predict("tail_b", batch);
  ASSERT_TRUE(probs.ok());
  for (float p : probs.value()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(QuantTest, EnqueuePredictServesQuantizedDeployment) {
  data::SyntheticGenerator gen(QuantDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(0);
  data::Batch batch = MakeFullBatch(scenario);

  obs::MetricsRegistry registry;
  serving::ServingClient client(serving::ServingClient::Options{}, &registry);
  serving::DeployOptions options;
  options.quantize_int8 = true;
  options.calibration = &batch;
  ASSERT_TRUE(
      client.Deploy("tail_c", MakeTrainedModel(scenario, 25), options).ok());
  const auto full = client.Predict("tail_c", batch);
  ASSERT_TRUE(full.ok());

  // Queued on a paused shard, the rows merge into one engine call.
  client.coordinator()->shard("shard-0")->PauseDispatchForTesting(true);
  const int64_t probe = std::min<int64_t>(batch.batch_size, 12);
  std::vector<std::future<Result<float>>> futures;
  for (int64_t i = 0; i < probe; ++i) {
    Tensor profile({batch.profiles.size(1)});
    for (int64_t d = 0; d < profile.numel(); ++d) {
      profile[d] = batch.profiles[i * profile.numel() + d];
    }
    std::vector<int64_t> behavior(
        batch.behaviors.begin() + i * batch.seq_len,
        batch.behaviors.begin() + (i + 1) * batch.seq_len);
    futures.push_back(client.EnqueuePredict("tail_c", std::move(profile),
                                            std::move(behavior)));
  }
  client.coordinator()->shard("shard-0")->PauseDispatchForTesting(false);
  for (int64_t i = 0; i < probe; ++i) {
    auto result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << "request " << i;
    // Per-row dynamic activation scales make each row's int8 result
    // independent of the other rows of its engine call.
    EXPECT_NEAR(result.value(), full.value()[static_cast<size_t>(i)], 1e-4)
        << "request " << i;
  }
  EXPECT_EQ(
      registry.histogram_summary("serving/batch_predictor/batch_size").max,
      static_cast<double>(probe));
}

}  // namespace
}  // namespace alt
