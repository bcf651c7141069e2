// Tests of the ServingClient facade — the public serving API over the
// sharded plane — including the shard worker's request merging, malformed
// requests, shutdown with queued work, and the elastic lifecycle surface
// (warm re-join, runtime AddShard, the shard-state HealthReport).

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/resilience/clock.h"
#include "src/resilience/fault_injection.h"
#include "src/serving/model_store.h"
#include "src/serving/serving_client.h"
#include "src/tensor/scratch.h"

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

ServingClient::Options SmallTopology(int shards, int replication) {
  ServingClient::Options options;
  options.num_shards = shards;
  options.replication = replication;
  options.vnodes_per_shard = 64;
  return options;
}

/// A well-formed single row for TinyModel: 4 profile features, 5 ids < 8.
data::Batch RandomRow(Rng* rng) {
  data::Batch batch;
  batch.batch_size = 1;
  batch.seq_len = 5;
  batch.profiles = Tensor::Randn({1, 4}, rng);
  for (int t = 0; t < 5; ++t) batch.behaviors.push_back(rng->UniformInt(0, 7));
  batch.labels = Tensor({1, 1});
  return batch;
}

TEST(ServingClientTest, DeployPredictUndeployRoundTrip) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(4, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(1)).ok());
  EXPECT_TRUE(client.IsDeployed("s"));
  EXPECT_EQ(client.Scenarios(), std::vector<std::string>{"s"});

  const data::Batch batch = OneSample(2);
  auto scores = client.Predict("s", batch);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores.value().size(), static_cast<size_t>(batch.batch_size));

  auto latency = client.GetLatencyStats("s");
  ASSERT_TRUE(latency.ok());
  EXPECT_GE(latency.value().num_requests, 1);
  EXPECT_TRUE(client.FlopsPerSample("s").ok());

  ASSERT_TRUE(client.Undeploy("s").ok());
  EXPECT_FALSE(client.IsDeployed("s"));
  EXPECT_EQ(client.Predict("s", batch).status().code(),
            StatusCode::kNotFound);
}

TEST(ServingClientTest, SingleShardDefaultMatchesClassicServing) {
  obs::MetricsRegistry registry;
  ServingClient client(ServingClient::Options{}, &registry);
  EXPECT_EQ(client.ShardIds(), std::vector<std::string>{"shard-0"});
  ASSERT_TRUE(client.Deploy("s", TinyModel(3)).ok());
  const data::Batch batch = OneSample(4);
  EXPECT_TRUE(client.Predict("s", batch).ok());
  ServingClient::Stats stats = client.GetStats();
  EXPECT_EQ(stats.num_shards, 1);
  EXPECT_EQ(stats.live_shards, 1);
  EXPECT_GE(stats.requests_served, 1);
  EXPECT_EQ(stats.pending_requests, 0);
}

TEST(ServingClientTest, EnqueuePredictCoalescesAndMatchesSyncPath) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(5)).ok());

  Rng rng(6);
  std::vector<Tensor> profiles;
  std::vector<std::future<Result<float>>> futures;
  const std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) {
    profiles.push_back(Tensor::Randn({1, 4}, &rng));
    futures.push_back(client.EnqueuePredict("s", profiles.back(), behavior));
  }
  for (int i = 0; i < 8; ++i) {
    Result<float> result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    data::Batch one = OneSample(7);
    one.profiles = profiles[static_cast<size_t>(i)];
    one.behaviors = behavior;
    auto direct = client.Predict("s", one);
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(result.value(), direct.value()[0], 1e-5f);
  }
  client.DrainRequests();
  EXPECT_EQ(client.GetStats().pending_requests, 0);
}

TEST(ServingClientTest, ShardWorkerMergesEveryQueuedRequestOfAScenario) {
  // The shard worker is the batcher: once free, it takes the front request
  // and every queued request of the same scenario, wherever it sits in the
  // queue, so interleaved traffic still coalesces.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(1, 1), &registry);
  ASSERT_TRUE(client.Deploy("a", TinyModel(31)).ok());
  ASSERT_TRUE(client.Deploy("b", TinyModel(32)).ok());
  shard::WorkerShard* worker = client.coordinator()->shard("shard-0");
  worker->PauseDispatchForTesting(true);

  Rng rng(33);
  std::vector<data::Batch> rows;
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 16; ++i) {
    rows.push_back(RandomRow(&rng));
    futures.push_back(client.EnqueuePredict(i % 2 == 0 ? "a" : "b",
                                            rows.back().profiles,
                                            rows.back().behaviors));
  }
  EXPECT_EQ(worker->QueueDepth(), 16);
  worker->PauseDispatchForTesting(false);

  auto model_a = TinyModel(31);
  auto model_b = TinyModel(32);
  for (int i = 0; i < 16; ++i) {
    Result<float> result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    models::BaseModel* model = i % 2 == 0 ? model_a.get() : model_b.get();
    // Bit for bit the request's own 1-row score: merging never moves a row.
    EXPECT_EQ(result.value(),
              model->PredictProbs(rows[static_cast<size_t>(i)])[0])
        << "request " << i;
  }
  const obs::HistogramSummary calls =
      registry.histogram_summary("serving/batch_predictor/batch_size");
  EXPECT_EQ(calls.count, 2);
  EXPECT_EQ(calls.sum, 16.0);
  EXPECT_EQ(worker->RequestsServed(), 16);
  EXPECT_EQ(registry.counter_value("serving/shard/requests/shard-0"), 16);
}

TEST(ServingClientTest, EnqueueMixedScenariosAreRoutedCorrectly) {
  // Two deployed scenarios with different weights; interleaved requests
  // must each be scored by their own model.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(1, 1), &registry);
  ASSERT_TRUE(client.Deploy("a", TinyModel(10)).ok());
  ASSERT_TRUE(client.Deploy("b", TinyModel(777)).ok());

  Rng rng(4);
  const data::Batch row = RandomRow(&rng);
  auto fa = client.EnqueuePredict("a", row.profiles, row.behaviors);
  auto fb = client.EnqueuePredict("b", row.profiles, row.behaviors);
  auto fa2 = client.EnqueuePredict("a", row.profiles, row.behaviors);
  Result<float> ra = fa.get();
  Result<float> rb = fb.get();
  Result<float> ra2 = fa2.get();
  ASSERT_TRUE(ra.ok() && rb.ok() && ra2.ok());
  EXPECT_EQ(ra.value(), ra2.value());
  EXPECT_NE(ra.value(), rb.value());  // Different models, different scores.
  EXPECT_EQ(ra.value(), client.Predict("a", row).value()[0]);
  EXPECT_EQ(rb.value(), client.Predict("b", row).value()[0]);
}

TEST(ServingClientTest, EnqueueHighVolumeDrainsCompletely) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(1, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(5)).ok());
  shard::WorkerShard* worker = client.coordinator()->shard("shard-0");
  worker->PauseDispatchForTesting(true);
  Rng rng(6);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 200; ++i) {
    const data::Batch row = RandomRow(&rng);
    futures.push_back(client.EnqueuePredict("s", row.profiles, row.behaviors));
  }
  EXPECT_EQ(client.GetStats().pending_requests, 200);
  worker->PauseDispatchForTesting(false);
  int ok_count = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, 200);
  client.DrainRequests();
  EXPECT_EQ(client.GetStats().pending_requests, 0);
  EXPECT_EQ(worker->QueueDepth(), 0);
  // Full 16-request calls, then the remainder: 200 = 12 x 16 + 8.
  const obs::HistogramSummary calls =
      registry.histogram_summary("serving/batch_predictor/batch_size");
  EXPECT_EQ(calls.count, 13);
  EXPECT_EQ(calls.sum, 200.0);
  EXPECT_EQ(calls.max, 16.0);
}

TEST(ServingClientTest, EnqueueUnknownScenarioErrorsThroughFuture) {
  obs::MetricsRegistry registry;
  ServingClient client(ServingClient::Options{}, &registry);
  auto future =
      client.EnqueuePredict("ghost", Tensor::Zeros({1, 4}), {0, 0, 0, 0, 0});
  Result<float> result = future.get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ServingClientTest, MalformedRequestsFailAloneWithInvalidArgument) {
  // A request is input from outside the program: a wrong shape or an id
  // outside the vocabulary fails that request with kInvalidArgument — it
  // never aborts the server, never fails the requests merged beside it, and
  // never counts against the scenario's breaker or earns a fallback.
  for (const bool resilient : {false, true}) {
    SCOPED_TRACE(resilient ? "resilience on" : "resilience off");
    obs::MetricsRegistry registry;
    ServingClient client(SmallTopology(1, 1), &registry);
    ASSERT_TRUE(client.Deploy("s", TinyModel(40)).ok());
    resilience::FakeClock clock;
    if (resilient) {
      ASSERT_TRUE(client.DeployEverywhere("f0", TinyModel(41)).ok());
      ServingResilienceOptions resilience;
      resilience.breaker.failure_threshold = 2;
      resilience.fallback_scenario = "f0";
      client.EnableResilience(resilience, &clock);
    }
    Rng rng(42);
    const data::Batch good = RandomRow(&rng);

    // Predict: one defect per request.
    std::vector<data::Batch> bad(6, good);
    bad[0].profiles = Tensor::Randn({1, 7}, &rng);  // Profile width 7, not 4.
    bad[1].seq_len = 6;                             // seq_len 6, not 5.
    bad[1].behaviors.push_back(0);
    bad[2].behaviors.back() = 99;                   // Vocabulary is 8.
    bad[3].behaviors.front() = -1;
    bad[4].behaviors.pop_back();                    // 4 ids for 1 x 5.
    bad[5].batch_size = 2;                          // 1 profile row for 2.
    for (size_t i = 0; i < bad.size(); ++i) {
      EXPECT_EQ(client.Predict("s", bad[i]).status().code(),
                StatusCode::kInvalidArgument)
          << "defect " << i;
    }

    // EnqueuePredict: bad requests queued beside good ones on a paused shard
    // share their engine call, and only the bad ones fail.
    shard::WorkerShard* worker = client.coordinator()->shard("shard-0");
    worker->PauseDispatchForTesting(true);
    auto first = client.EnqueuePredict("s", good.profiles, good.behaviors);
    auto wide =
        client.EnqueuePredict("s", Tensor::Randn({1, 7}, &rng), good.behaviors);
    auto longer =
        client.EnqueuePredict("s", good.profiles, {0, 1, 2, 3, 4, 5});
    auto out_of_vocab =
        client.EnqueuePredict("s", good.profiles, {0, 1, 2, 3, 99});
    auto last = client.EnqueuePredict("s", good.profiles, good.behaviors);
    worker->PauseDispatchForTesting(false);
    EXPECT_EQ(wide.get().status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(longer.get().status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(out_of_vocab.get().status().code(),
              StatusCode::kInvalidArgument);
    const float expected = TinyModel(40)->PredictProbs(good)[0];
    Result<float> first_score = first.get();
    Result<float> last_score = last.get();
    ASSERT_TRUE(first_score.ok() && last_score.ok());
    EXPECT_EQ(first_score.value(), expected);
    EXPECT_EQ(last_score.value(), expected);
    EXPECT_EQ(registry.histogram_summary("serving/batch_predictor/batch_size")
                  .max,
              5.0);

    EXPECT_EQ(registry.counter_value("serving/fallbacks"), 0);
    EXPECT_EQ(registry.counter_value("serving/coordinator/failovers"), 0);
    if (resilient) {
      EXPECT_EQ(client.BreakerStates().at("s"),
                resilience::BreakerState::kClosed);
    }
    EXPECT_TRUE(client.Predict("s", good).ok());
  }
}

TEST(ServingClientTest, DestroyingTheClientAnswersQueuedRequests) {
  // Requests still queued on paused shards when the client goes away are
  // answered before it is gone: no future ends as a broken promise.
  obs::MetricsRegistry registry;
  std::vector<std::future<Result<float>>> futures;
  {
    ServingClient::Options options = SmallTopology(2, 2);
    options.enable_resilience = true;
    options.resilience.fallback_scenario = "f0";
    ServingClient client(options, &registry);
    ASSERT_TRUE(client.Deploy("s", TinyModel(50)).ok());
    ASSERT_TRUE(client.DeployEverywhere("f0", TinyModel(51)).ok());
    for (const std::string& id : client.ShardIds()) {
      client.coordinator()->shard(id)->PauseDispatchForTesting(true);
    }
    Rng rng(52);
    for (int i = 0; i < 8; ++i) {
      const data::Batch row = RandomRow(&rng);
      futures.push_back(client.EnqueuePredict("s", row.profiles,
                                              row.behaviors));
    }
    EXPECT_EQ(client.GetStats().pending_requests, 8);
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    Result<float> result = future.get();  // A broken promise would throw.
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(ServingClientTest, ShardDeathFailsBatchRequestsDistinctly) {
  // A shard disappearing mid-flight fails the pending requests with
  // kUnavailable (not a generic error) and bumps the
  // serving/coordinator/no_replica_available counter — with no replica left
  // to absorb them.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(1, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(8)).ok());
  ASSERT_TRUE(client.KillShard("shard-0").ok());

  Rng rng(9);
  auto future =
      client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), {0, 1, 2, 3, 4});
  Result<float> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(
      registry.counter_value("serving/coordinator/no_replica_available"), 1);
  EXPECT_EQ(client.NumLiveShards(), 0);
}

TEST(ServingClientTest, ShardDeathWithReplicasLosesNoBatchRequests) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(10)).ok());
  const std::string owner = client.coordinator()->ReplicasOf("s").front();
  ASSERT_TRUE(client.KillShard(owner).ok());

  Rng rng(11);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng),
                                            {0, 1, 2, 3, 4}));
  }
  for (auto& future : futures) {
    Result<float> result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_GE(registry.counter_value("serving/rebalance_events"), 1);
  EXPECT_EQ(client.NumLiveShards(), 2);
  EXPECT_EQ(registry.counter_value("serving/coordinator/no_replica_available"),
            0);
}

TEST(ServingClientTest, ResilienceDegradesUnknownScenarios) {
  obs::MetricsRegistry registry;
  ServingClient::Options options = SmallTopology(2, 1);
  options.enable_resilience = true;
  options.resilience.fallback_scenario = "f0";
  options.resilience.default_scenario = "f0";
  ServingClient client(options, &registry);
  ASSERT_TRUE(client.DeployEverywhere("f0", TinyModel(12)).ok());

  const data::Batch batch = OneSample(13);
  // Unknown scenario: routed by the client to its f0 default.
  auto scores = client.Predict("brand_new_scenario", batch);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  // Only the scenario that served gets a breaker; unknown names never do.
  auto states = client.BreakerStates();
  EXPECT_EQ(states.count("f0"), 1u);
  EXPECT_EQ(states.count("brand_new_scenario"), 0u);
}

#if !defined(ALT_FAULTS_DISABLED)
TEST(ServingClientTest, ModelFaultsNeverEvictHealthyShards) {
  // A model fault is the same on every replica and says nothing about the
  // shard that ran it: with resilience off it reaches the caller, no
  // replica is tried in its place, and every shard stays on the ring.
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(21)).ok());
  resilience::FaultRule always;
  always.every_nth = 1;
  faults.Arm("serving/predict", always);

  const data::Batch batch = OneSample(22);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client.Predict("s", batch).status().code(),
              StatusCode::kInternal);
  }
  faults.Reset();
  EXPECT_EQ(registry.counter_value("serving/coordinator/failovers"), 0);
  EXPECT_EQ(registry.counter_value("serving/rebalance_events"), 0);
  EXPECT_EQ(registry.counter_value("serving/coordinator/no_replica_available"),
            0);
  EXPECT_EQ(client.NumLiveShards(), 3);
  EXPECT_EQ(client.coordinator()->ReplicasOf("s").size(), 2u);
  // The faults stop and the same plane answers.
  EXPECT_TRUE(client.Predict("s", batch).ok());
}

TEST(ServingClientTest, OneBreakerPerScenarioAcrossReplicas) {
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(23)).ok());
  ASSERT_TRUE(client.DeployEverywhere("f0", TinyModel(24)).ok());
  ServingResilienceOptions resilience;
  resilience.breaker.failure_threshold = 3;
  resilience.fallback_scenario = "f0";
  resilience::FakeClock clock;
  client.EnableResilience(resilience, &clock);
  resilience::FaultRule always;
  always.every_nth = 1;
  faults.Arm("serving/predict", always);

  // Whichever replica of "s" each request lands on, the faults count
  // against the scenario's one breaker, which opens at the threshold.
  const data::Batch batch = OneSample(25);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(client.Predict("s", batch).ok());
  EXPECT_EQ(client.BreakerStates().at("s"), resilience::BreakerState::kClosed);
  ASSERT_TRUE(client.Predict("s", batch).ok());
  faults.Reset();
  const auto states = client.BreakerStates();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states.at("s"), resilience::BreakerState::kOpen);
  EXPECT_EQ(
      registry.counter_value("resilience/circuit_breaker/opens/serving/s"), 1);
  EXPECT_EQ(
      registry.gauge_value("resilience/circuit_breaker/state/serving/s"),
      static_cast<double>(resilience::BreakerState::kOpen));
  EXPECT_EQ(registry.counter_value("serving/fallbacks"), 3);
  EXPECT_EQ(client.NumLiveShards(), 3);
}
#endif  // !ALT_FAULTS_DISABLED

TEST(ServingClientTest, ExportBundleWritesServableArtifact) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(14)).ok());
  const std::string path = ::testing::TempDir() + "/serving_client_s.altm";
  ASSERT_TRUE(client.ExportBundle("s", path).ok());
  auto reloaded = LoadModelBundleFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const data::Batch batch = OneSample(15);
  auto direct = client.Predict("s", batch);
  ASSERT_TRUE(direct.ok());
  EXPECT_FLOAT_EQ(reloaded.value()->PredictProbs(batch)[0],
                  direct.value()[0]);
  std::remove(path.c_str());
}

/// Tracked tensor bytes outside the threads' scratch arenas: while no
/// forward runs, the bytes of the models alive.
int64_t ModelTensorBytes() {
  return obs::MemoryTracker::Global().live_bytes() - ScratchReservedBytes();
}

TEST(ServingClientTest, ReplicasShareOneModelPerScenarioVersion) {
  if (!obs::MemoryTracker::Global().enabled()) {
    GTEST_SKIP() << "tensor memory accounting is off (ALT_OBS=off)";
  }
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 2), &registry);
  const data::Batch batch = OneSample(40);
  const int64_t before = ModelTensorBytes();

  // K light scenarios, then f0 (the last model).
  constexpr int kScenarios = 6;
  std::vector<std::unique_ptr<models::BaseModel>> models;
  int64_t built = 0;
  for (int s = 0; s <= kScenarios; ++s) {
    models.push_back(TinyModel(50 + static_cast<uint64_t>(s)));
    built += models.back()->NumParameters() *
             static_cast<int64_t>(sizeof(float));
  }
  ASSERT_EQ(ModelTensorBytes() - before, built);
  for (int s = 0; s < kScenarios; ++s) {
    ASSERT_TRUE(client
                    .Deploy("s" + std::to_string(s),
                            std::move(models[static_cast<size_t>(s)]))
                    .ok());
  }
  ASSERT_TRUE(client.DeployEverywhere("f0", std::move(models.back())).ok());
  EXPECT_EQ(client.coordinator()->ReplicasOf("s0").size(), 2u);
  EXPECT_EQ(client.coordinator()->ReplicasOf("f0").size(), 3u);
  // 2K + 3 replicas serve K + 1 models, and hold them once.
  EXPECT_EQ(ModelTensorBytes() - before, built);

  // Redeploys under traffic: a request scores the version it took, and
  // once no request holds an old version, only the newest is left.
  const Result<std::vector<float>> first = client.Predict("s0", batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    while (!stop.load()) {
      const Result<std::vector<float>> scores = client.Predict("s0", batch);
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      EXPECT_EQ(scores.value(), first.value());
    }
  });
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(client.Deploy("s0", TinyModel(50)).ok());
  }
  stop.store(true);
  traffic.join();
  EXPECT_EQ(client.coordinator()->VersionOf("s0"), 9u);
  EXPECT_EQ(ModelTensorBytes() - before, built);

  for (const std::string& scenario : client.Scenarios()) {
    ASSERT_TRUE(client.Undeploy(scenario).ok());
  }
  EXPECT_EQ(ModelTensorBytes() - before, 0);
}

// ---------------------------------------------------------------------------
// Elastic shard lifecycle through the facade.
// ---------------------------------------------------------------------------

TEST(ServingClientTest, KillRejoinLosesNoBatchRequests) {
  // The full chaos cycle under enqueued load: a shard dies with requests
  // queued, they fail over to replicas, and a warm re-join brings it back —
  // zero lost requests end to end.
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(3, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(16)).ok());
  const std::string owner = client.coordinator()->ReplicasOf("s").front();

  Rng rng(17);
  std::vector<std::future<Result<float>>> futures;
  const std::vector<int64_t> behavior = {0, 1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), behavior));
  }
  ASSERT_TRUE(client.KillShard(owner).ok());
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), behavior));
  }

  ASSERT_TRUE(client.RejoinShard(owner).ok());
  EXPECT_EQ(client.NumLiveShards(), 3);
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng), behavior));
  }

  for (auto& future : futures) {
    Result<float> result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(registry.counter_value("serving/coordinator/no_replica_available"),
            0);
  EXPECT_GE(registry.counter_value("serving/coordinator/rejoins"), 1);
  // The rejoined shard serves again: its model came back from the
  // coordinator's table at the current version.
  EXPECT_GE(client.coordinator()->shard(owner)->DeployedVersion("s"), 1u);
}

TEST(ServingClientTest, AddShardGrowsTopologyAndServes) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 2), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(18)).ok());
  ASSERT_TRUE(client.AddShard("shard-2").ok());
  EXPECT_EQ(client.NumLiveShards(), 3);
  EXPECT_EQ(client.ShardIds().size(), 3u);
  EXPECT_EQ(client.GetStats().num_shards, 3);
  EXPECT_EQ(client.AddShard("shard-2").code(), StatusCode::kAlreadyExists);

  // The newcomer serves enqueued traffic without request loss.
  Rng rng(19);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng),
                                            {0, 1, 2, 3, 4}));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
}

TEST(ServingClientTest, GetHealthReflectsShardLifecycle) {
  obs::MetricsRegistry registry;
  ServingClient client(SmallTopology(2, 1), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(20)).ok());

  ServingClient::HealthReport health = client.GetHealth();
  EXPECT_TRUE(health.healthy);
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.shard_states.size(), 2u);
  for (const auto& [id, state] : health.shard_states) {
    EXPECT_EQ(state, "live") << id;
  }

  // With replication 1, killing the owner leaves "s" unservable -> 503.
  const std::string owner = client.coordinator()->ReplicasOf("s").front();
  ASSERT_TRUE(client.KillShard(owner).ok());
  health = client.GetHealth();
  EXPECT_FALSE(health.healthy);
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.shard_states.at(owner), "dead");
  ASSERT_EQ(health.unservable_scenarios.size(), 1u);
  EXPECT_EQ(health.unservable_scenarios[0], "s");

  // Warm re-join restores full health.
  ASSERT_TRUE(client.RejoinShard(owner).ok());
  health = client.GetHealth();
  EXPECT_TRUE(health.healthy);
  EXPECT_FALSE(health.degraded);
  EXPECT_TRUE(health.unservable_scenarios.empty());
}

}  // namespace
}  // namespace serving
}  // namespace alt
