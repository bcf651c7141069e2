// Coverage for the deployment export path (ServingClient::ExportBundle,
// the one AltSystem::SaveState uses) and mixed-scenario batching behavior
// of the async predictor.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/serving/batch_predictor.h"
#include "src/serving/model_server.h"
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

TEST(BatchPredictorTest, MixedScenariosAreRoutedCorrectly) {
  // Two deployed scenarios with different weights; interleaved requests
  // must each be scored by their own model.
  ModelServer server;
  ASSERT_TRUE(server.Deploy("a", TinyModel(10)).ok());
  ASSERT_TRUE(server.Deploy("b", TinyModel(777)).ok());
  BatchPredictor::Options options;
  options.max_batch_size = 4;
  options.max_delay_ms = 5.0;
  BatchPredictor predictor(
      [&server](const std::string& s, const data::Batch& b,
                const obs::RequestContext&) {
        return server.Predict(s, b);
      },
      options);

  Rng rng(4);
  Tensor profile = Tensor::Randn({1, 4}, &rng);
  std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  auto fa = predictor.Enqueue("a", profile, behavior);
  auto fb = predictor.Enqueue("b", profile, behavior);
  auto fa2 = predictor.Enqueue("a", profile, behavior);

  Result<float> ra = fa.get();
  Result<float> rb = fb.get();
  Result<float> ra2 = fa2.get();
  ASSERT_TRUE(ra.ok() && rb.ok() && ra2.ok());
  EXPECT_FLOAT_EQ(ra.value(), ra2.value());
  EXPECT_NE(ra.value(), rb.value());  // Different models, different scores.

  data::Batch probe = OneSample(4);
  probe.profiles = profile;
  probe.behaviors = behavior;
  EXPECT_NEAR(ra.value(), server.Predict("a", probe).value()[0], 1e-5f);
  EXPECT_NEAR(rb.value(), server.Predict("b", probe).value()[0], 1e-5f);
}

TEST(BatchPredictorTest, HighVolumeDrainsCompletely) {
  // Private registry: QueueDepth/BatchesDispatched are registry views, so
  // counts must not leak in from other tests in this binary.
  obs::MetricsRegistry registry;
  ModelServer server(&registry);
  ASSERT_TRUE(server.Deploy("s", TinyModel(5)).ok());
  BatchPredictor::Options options;
  options.max_batch_size = 16;
  options.max_delay_ms = 1.0;
  BatchPredictor predictor(
      [&server](const std::string& s, const data::Batch& b,
                const obs::RequestContext&) {
        return server.Predict(s, b);
      },
      options, &registry);
  Rng rng(6);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 200; ++i) {
    std::vector<int64_t> behavior(5);
    for (auto& id : behavior) id = rng.UniformInt(0, 7);
    futures.push_back(
        predictor.Enqueue("s", Tensor::Randn({1, 4}, &rng), behavior));
  }
  int ok_count = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, 200);
  EXPECT_EQ(predictor.QueueDepth(), 0u);
  // Batching actually happened.
  EXPECT_LT(predictor.BatchesDispatched(), 200);
}

}  // namespace
}  // namespace serving
}  // namespace alt
