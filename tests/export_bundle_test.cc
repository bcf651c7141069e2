// Coverage for the deployment export path (ServingClient::ExportBundle,
// the one AltSystem::SaveState uses). The export serializes the model the
// replicas serve, so an int8 deploy exports its fp32 weights.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/serving/model_store.h"
#include "src/serving/serving_client.h"

namespace alt {
namespace serving {
namespace {

std::unique_ptr<models::BaseModel> TinyModel(uint64_t seed) {
  Rng rng(seed);
  models::ModelConfig config = models::ModelConfig::Light(
      models::EncoderKind::kLstm, 4, 5, 8);
  config.encoder_layers = 1;
  auto model = models::BuildBaseModel(config, &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

data::Batch OneSample(uint64_t seed) {
  Rng rng(seed);
  data::Batch batch;
  batch.batch_size = 1;
  batch.seq_len = 5;
  batch.profiles = Tensor::Randn({1, 4}, &rng);
  batch.behaviors = {0, 1, 2, 3, 4};
  batch.labels = Tensor({1, 1});
  return batch;
}

/// `rows` well-formed rows for TinyModel.
data::Batch Rows(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  data::Batch batch;
  batch.batch_size = rows;
  batch.seq_len = 5;
  batch.profiles = Tensor::Randn({rows, 4}, &rng);
  for (int64_t i = 0; i < rows * 5; ++i) {
    batch.behaviors.push_back(rng.UniformInt(0, 7));
  }
  batch.labels = Tensor({rows, 1});
  return batch;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ExportBundleTest, ExportedBundleServesIdentically) {
  obs::MetricsRegistry registry;
  ServingClient client(ServingClient::Options{}, &registry);
  ASSERT_TRUE(client.Deploy("bank", TinyModel(1)).ok());
  const std::string path = ::testing::TempDir() + "/alt_export_test.altm";
  {
    // A stale file at the path is replaced whole.
    std::ofstream stale(path, std::ios::binary | std::ios::trunc);
    stale << "stale bytes from an earlier save";
  }
  ASSERT_TRUE(client.ExportBundle("bank", path).ok());

  auto reloaded = LoadModelBundleFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  data::Batch probe = OneSample(2);
  auto direct = client.Predict("bank", probe);
  ASSERT_TRUE(direct.ok());
  auto from_bundle = reloaded.value()->PredictProbs(probe);
  EXPECT_FLOAT_EQ(direct.value()[0], from_bundle[0]);
  std::remove(path.c_str());
}

TEST(ExportBundleTest, Int8DeployExportsTheFp32BundleAndReloadsToTheSameBits) {
  obs::MetricsRegistry registry;
  ServingClient::Options options;
  options.num_shards = 2;
  options.replication = 2;
  ServingClient client(options, &registry);
  std::unique_ptr<models::BaseModel> original = TinyModel(4);
  std::ostringstream fp32_bundle;
  ASSERT_TRUE(SaveModelBundle(original.get(), &fp32_bundle).ok());
  const data::Batch batch = Rows(5, 32);
  const std::vector<float> fp32 = original->PredictProbs(batch);
  DeployOptions int8;
  int8.quantize_int8 = true;
  int8.calibration = &batch;
  ASSERT_TRUE(client.Deploy("bank", std::move(original), int8).ok());
  const Result<std::vector<float>> served = client.Predict("bank", batch);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_NE(served.value(), fp32) << "int8 path apparently not engaged";
  EXPECT_GT(
      registry.gauge("serving/quantization/max_prob_delta/bank")->value(),
      0.0);

  // The export is the fp32 original's bundle, byte for byte.
  const std::string path = ::testing::TempDir() + "/alt_export_int8.altm";
  ASSERT_TRUE(client.ExportBundle("bank", path).ok());
  EXPECT_EQ(ReadFile(path), fp32_bundle.str());

  // Deployed as int8 again, the reloaded bundle serves the same bits.
  auto reloaded = LoadModelBundleFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(client.Deploy("bank", std::move(reloaded).value(), int8).ok());
  const Result<std::vector<float>> again = client.Predict("bank", batch);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value(), served.value());
  EXPECT_EQ(registry.counter("serving/quantized_deploys")->value(), 2);
  std::remove(path.c_str());
}

TEST(ExportBundleTest, ExportErrors) {
  obs::MetricsRegistry registry;
  ServingClient client(ServingClient::Options{}, &registry);
  const std::string path = ::testing::TempDir() + "/alt_export_errors.altm";
  {
    std::ofstream previous(path, std::ios::binary | std::ios::trunc);
    previous << "previous export";
  }
  // Unknown scenario: NotFound, and the file at the path is untouched.
  EXPECT_EQ(client.ExportBundle("ghost", path).code(), StatusCode::kNotFound);
  EXPECT_EQ(ReadFile(path), "previous export");
  std::remove(path.c_str());

  // Unwritable directory: an error status, and no file appears.
  ASSERT_TRUE(client.Deploy("bank", TinyModel(3)).ok());
  const std::string unwritable = "/nonexistent/dir/x.altm";
  EXPECT_FALSE(client.ExportBundle("bank", unwritable).ok());
  EXPECT_FALSE(std::filesystem::exists(unwritable));
}

}  // namespace
}  // namespace serving
}  // namespace alt
