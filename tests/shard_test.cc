// Tests of the sharded serving plane's building blocks: the consistent-hash
// ring (uniformity, minimal disruption, determinism), the version-gated
// worker shard, and the ShardCoordinator (broadcast deploys that install
// nothing unless every copy succeeds, replica groups that name only shards
// holding their version, replica failover, rebalance on shard death with
// zero lost requests, the queue cap, warm re-join and scale-up, and a
// failed admission that leaves its shard dead and off the ring).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/resilience/fault_injection.h"
#include "src/serving/model_store.h"
#include "src/serving/shard/coordinator.h"
#include "src/serving/shard/hash_ring.h"
#include "src/serving/shard/shard.h"

namespace alt {
namespace serving {
namespace shard {
namespace {

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

constexpr int kKeys = 10000;

std::string Key(int i) { return "scenario_" + std::to_string(i); }

std::map<std::string, int> OwnerCounts(const HashRing& ring) {
  std::map<std::string, int> counts;
  for (int i = 0; i < kKeys; ++i) {
    auto owner = ring.Route(Key(i));
    EXPECT_TRUE(owner.ok());
    counts[owner.value()]++;
  }
  return counts;
}

TEST(HashRingTest, UniformWithin15PercentAt128Vnodes) {
  HashRing ring(128);
  const int n = 4;
  for (int s = 0; s < n; ++s) ring.AddShard("shard-" + std::to_string(s));
  std::map<std::string, int> counts = OwnerCounts(ring);
  ASSERT_EQ(counts.size(), static_cast<size_t>(n));
  const double mean = static_cast<double>(kKeys) / n;
  for (const auto& [shard_id, count] : counts) {
    EXPECT_GE(count, 0.85 * mean) << shard_id;
    EXPECT_LE(count, 1.15 * mean) << shard_id;
  }
}

TEST(HashRingTest, JoinMovesAtMostTwoOverNKeys) {
  const int n = 4;
  HashRing ring(128);
  for (int s = 0; s < n; ++s) ring.AddShard("shard-" + std::to_string(s));
  std::map<int, std::string> before;
  for (int i = 0; i < kKeys; ++i) before[i] = ring.Route(Key(i)).value();

  ring.AddShard("shard-" + std::to_string(n));
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string owner = ring.Route(Key(i)).value();
    if (owner != before[i]) {
      moved++;
      // A moved key must have moved onto the newcomer, nowhere else.
      EXPECT_EQ(owner, "shard-" + std::to_string(n));
    }
  }
  EXPECT_GT(moved, 0);  // The newcomer takes ownership of some keys...
  EXPECT_LE(moved, 2 * kKeys / n);  // ...but no wholesale reshuffle.
}

TEST(HashRingTest, LeaveMovesOnlyTheDepartedShardsKeys) {
  const int n = 5;
  HashRing ring(128);
  for (int s = 0; s < n; ++s) ring.AddShard("shard-" + std::to_string(s));
  std::map<int, std::string> before;
  for (int i = 0; i < kKeys; ++i) before[i] = ring.Route(Key(i)).value();

  ring.RemoveShard("shard-2");
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string owner = ring.Route(Key(i)).value();
    if (owner != before[i]) {
      moved++;
      // Only keys the departed shard owned may move.
      EXPECT_EQ(before[i], "shard-2");
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, 2 * kKeys / n);
}

TEST(HashRingTest, DeterministicAcrossInstancesAndInsertionOrder) {
  HashRing forward(128);
  HashRing reverse(128);
  const std::vector<std::string> ids = {"shard-0", "shard-1", "shard-2",
                                        "shard-3"};
  for (const std::string& id : ids) forward.AddShard(id);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    reverse.AddShard(*it);
  }
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(forward.Route(Key(i)).value(), reverse.Route(Key(i)).value());
  }
  // The hash function itself is pinned (finalized FNV-1a of the empty
  // string), so routing can never drift between builds.
  EXPECT_EQ(HashRing::KeyHash(""), 17665956581633026203ull);
}

TEST(HashRingTest, RouteReplicasDistinctOwnerFirst) {
  HashRing ring(64);
  for (int s = 0; s < 4; ++s) ring.AddShard("shard-" + std::to_string(s));
  for (int i = 0; i < 100; ++i) {
    const std::vector<std::string> replicas =
        ring.RouteReplicas(Key(i), 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas.front(), ring.Route(Key(i)).value());
    std::set<std::string> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size());
  }
  // Asking for more replicas than shards returns every shard.
  EXPECT_EQ(ring.RouteReplicas(Key(0), 9).size(), 4u);
  HashRing empty;
  EXPECT_FALSE(empty.Route("x").ok());
  EXPECT_TRUE(empty.RouteReplicas("x", 2).empty());
}

// ---------------------------------------------------------------------------
// WorkerShard / ShardCoordinator
// ---------------------------------------------------------------------------

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

/// SubmitPredict with its answer as a future; a rejection resolves at once.
std::future<Result<std::vector<float>>> Submit(WorkerShard* shard,
                                               const std::string& scenario,
                                               const data::Batch& batch) {
  auto answer = std::make_shared<std::promise<Result<std::vector<float>>>>();
  std::future<Result<std::vector<float>>> future = answer->get_future();
  const Status status = shard->SubmitPredict(
      scenario, batch, obs::RequestContext(),
      [answer](Result<std::vector<float>> result) {
        answer->set_value(std::move(result));
      });
  if (!status.ok()) answer->set_value(status);
  return future;
}

TEST(WorkerShardTest, VersionGateRejectsStaleAcceptsEqual) {
  obs::MetricsRegistry registry;
  WorkerShard shard("shard-0", &registry);
  ASSERT_TRUE(shard.Deploy("s", TinyModel(1), 5).ok());
  EXPECT_EQ(shard.DeployedVersion("s"), 5u);
  // A stale broadcast (rebalance racing a newer deploy) must not clobber.
  Status stale = shard.Deploy("s", TinyModel(2), 4);
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(shard.DeployedVersion("s"), 5u);
  // Equal versions are idempotent rebalance copies.
  EXPECT_TRUE(shard.Deploy("s", TinyModel(3), 5).ok());
  EXPECT_TRUE(shard.Deploy("s", TinyModel(4), 7).ok());
  EXPECT_EQ(shard.DeployedVersion("s"), 7u);
}

TEST(WorkerShardTest, KillDrainsQueueWithUnavailable) {
  obs::MetricsRegistry registry;
  WorkerShard shard("shard-0", &registry);
  ASSERT_TRUE(shard.Deploy("s", TinyModel(1), 1).ok());
  const data::Batch batch = OneSample(2);
  EXPECT_TRUE(Submit(&shard, "s", batch).get().ok());
  // Requests queued at the kill fail with Unavailable on the shard's own
  // worker, even while dispatch is paused: Kill() runs no completion on its
  // caller's thread, which may hold the coordinator's locks.
  shard.PauseDispatchForTesting(true);
  auto answered_on = std::make_shared<std::promise<std::thread::id>>();
  std::future<std::thread::id> answered = answered_on->get_future();
  Status queued_status;
  ASSERT_TRUE(shard
                  .SubmitPredict("s", batch, obs::RequestContext(),
                                 [answered_on, &queued_status](
                                     Result<std::vector<float>> result) {
                                   queued_status = result.status();
                                   answered_on->set_value(
                                       std::this_thread::get_id());
                                 })
                  .ok());
  shard.Kill();
  EXPECT_TRUE(shard.dead());
  EXPECT_NE(answered.get(), std::this_thread::get_id());
  EXPECT_EQ(queued_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shard.QueueDepth(), 0);
  auto result = Submit(&shard, "s", batch).get();
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // Deploys against a dead shard fail fast too.
  EXPECT_EQ(shard.Deploy("t", TinyModel(2), 1).code(),
            StatusCode::kUnavailable);
  shard.Kill();  // Idempotent.
}

CoordinatorOptions SmallCoordinator(int shards, int replication) {
  CoordinatorOptions options;
  options.num_shards = shards;
  options.replication = replication;
  options.vnodes_per_shard = 64;
  return options;
}

TEST(ShardCoordinatorTest, BroadcastDeploysIdenticalReplicas) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(4, 2), &registry);
  ASSERT_TRUE(coordinator.Deploy("s", TinyModel(7)).ok());
  EXPECT_EQ(coordinator.VersionOf("s"), 1u);
  std::vector<std::string> replicas = coordinator.ReplicasOf("s");
  ASSERT_EQ(replicas.size(), 2u);

  // Every replica serves the same scores: they share one model.
  const data::Batch batch = OneSample(3);
  std::vector<float> expected;
  for (const std::string& id : replicas) {
    auto scores = Submit(coordinator.shard(id), "s", batch).get();
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    if (expected.empty()) {
      expected = scores.value();
    } else {
      ASSERT_EQ(scores.value().size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_FLOAT_EQ(scores.value()[i], expected[i]);
      }
    }
  }
  // Redeploying bumps the version on both the table and the shards.
  ASSERT_TRUE(coordinator.Deploy("s", TinyModel(8)).ok());
  EXPECT_EQ(coordinator.VersionOf("s"), 2u);
  for (const std::string& id : coordinator.ReplicasOf("s")) {
    EXPECT_EQ(coordinator.shard(id)->DeployedVersion("s"), 2u);
  }
}

TEST(ShardCoordinatorTest, HotScenarioGetsWiderReplicaGroup) {
  obs::MetricsRegistry registry;
  CoordinatorOptions options = SmallCoordinator(4, 1);
  options.hot_replication = 3;
  ShardCoordinator coordinator(options, &registry);
  ASSERT_TRUE(coordinator.Deploy("cold", TinyModel(1)).ok());
  DeployOptions hot;
  hot.hot = true;
  ASSERT_TRUE(coordinator.Deploy("hot", TinyModel(2), hot).ok());
  EXPECT_EQ(coordinator.ReplicasOf("cold").size(), 1u);
  EXPECT_EQ(coordinator.ReplicasOf("hot").size(), 3u);
}

TEST(ShardCoordinatorTest, KillTriggersRebalanceWithZeroLostRequests) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(4, 2), &registry);
  const int kScenarios = 12;
  for (int s = 0; s < kScenarios; ++s) {
    ASSERT_TRUE(
        coordinator.Deploy("scenario_" + std::to_string(s), TinyModel(10 + s))
            .ok());
  }
  const data::Batch batch = OneSample(4);
  for (int s = 0; s < kScenarios; ++s) {
    ASSERT_TRUE(
        coordinator.Predict("scenario_" + std::to_string(s), batch).ok());
  }

  ASSERT_TRUE(coordinator.KillShard("shard-1").ok());
  EXPECT_FALSE(coordinator.KillShard("no-such-shard").ok());

  // Every request after the kill still succeeds: replicas answer while the
  // coordinator rebalances the dead shard's scenarios onto new owners.
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < kScenarios; ++s) {
      auto scores =
          coordinator.Predict("scenario_" + std::to_string(s), batch);
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    }
  }
  EXPECT_EQ(coordinator.NumLiveShards(), 3);
  EXPECT_GE(registry.counter_value("serving/rebalance_events"), 1);
  // After the rebalance no scenario lists the dead shard as a replica, and
  // every scenario is back at full replication.
  for (int s = 0; s < kScenarios; ++s) {
    std::vector<std::string> replicas =
        coordinator.ReplicasOf("scenario_" + std::to_string(s));
    ASSERT_EQ(replicas.size(), 2u);
    for (const std::string& id : replicas) EXPECT_NE(id, "shard-1");
  }
  EXPECT_GE(coordinator.RoutingImbalance(), 1.0);
}

TEST(ShardCoordinatorTest, NotFoundIsTerminalNotAFailover) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  ASSERT_TRUE(coordinator.Deploy("s", TinyModel(1)).ok());
  const data::Batch batch = OneSample(5);
  auto result = coordinator.Predict("ghost", batch);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // An unknown scenario is a deploy-state error, not a shard health signal:
  // no failover, no rebalance.
  EXPECT_EQ(registry.counter_value("serving/coordinator/failovers"), 0);
  EXPECT_EQ(registry.counter_value("serving/rebalance_events"), 0);
  EXPECT_EQ(coordinator.NumLiveShards(), 3);
}

TEST(ShardCoordinatorTest, DeployEverywhereServesFromEveryShard) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 1), &registry);
  ASSERT_TRUE(coordinator.DeployEverywhere("f0", TinyModel(2)).ok());
  const data::Batch batch = OneSample(6);
  for (const std::string& id : coordinator.ShardIds()) {
    auto scores = Submit(coordinator.shard(id), "f0", batch).get();
    EXPECT_TRUE(scores.ok()) << id << ": " << scores.status().ToString();
  }
  EXPECT_EQ(coordinator.ReplicasOf("f0").size(), 3u);
  ASSERT_TRUE(coordinator.Undeploy("f0").ok());
  EXPECT_FALSE(coordinator.IsDeployed("f0"));
  EXPECT_EQ(coordinator.Undeploy("f0").code(), StatusCode::kNotFound);
}

TEST(ShardCoordinatorTest, AllReplicasDeadReportsUnavailable) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(2, 2), &registry);
  ASSERT_TRUE(coordinator.Deploy("s", TinyModel(3)).ok());
  ASSERT_TRUE(coordinator.KillShard("shard-0").ok());
  ASSERT_TRUE(coordinator.KillShard("shard-1").ok());
  const data::Batch batch = OneSample(7);
  auto result = coordinator.Predict("s", batch);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(coordinator.NumLiveShards(), 0);
  EXPECT_GE(registry.counter_value("serving/coordinator/no_replica_available"),
            1);
}

TEST(ShardCoordinatorTest, FailedBroadcastLeavesPreviousVersionEverywhere) {
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  ASSERT_TRUE(coordinator.Deploy("s", TinyModel(70)).ok());
  const data::Batch batch = OneSample(71);
  const std::vector<float> v1 = TinyModel(70)->PredictProbs(batch);

  // The redeploy's first replica copy succeeds and its second faults.
  resilience::FaultRule every_other;
  every_other.every_nth = 2;
  faults.Arm("serving/deploy", every_other);
  const Status redeploy = coordinator.Deploy("s", TinyModel(72));
  faults.Reset();
  EXPECT_EQ(redeploy.code(), StatusCode::kInternal);

  // Nothing was installed: every replica still serves v1, so one scenario
  // never answers with two models.
  EXPECT_EQ(coordinator.VersionOf("s"), 1u);
  const std::vector<std::string> replicas = coordinator.ReplicasOf("s");
  ASSERT_EQ(replicas.size(), 2u);
  for (const std::string& id : replicas) {
    EXPECT_EQ(coordinator.shard(id)->DeployedVersion("s"), 1u) << id;
    auto scores = Submit(coordinator.shard(id), "s", batch).get();
    ASSERT_TRUE(scores.ok()) << id << ": " << scores.status().ToString();
    EXPECT_EQ(scores.value(), v1) << id;
  }
}

TEST(ShardCoordinatorTest, FailedRebalanceCopyNeverJoinsTheGroup) {
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  ASSERT_TRUE(coordinator.Deploy("s", TinyModel(73)).ok());
  ASSERT_TRUE(coordinator.KillShard(coordinator.ReplicasOf("s").front()).ok());

  // An idle plane's tie goes to the owner, so the first request reaches the
  // dead owner, whose worker rebalances while every copy faults; the request
  // then fails over to the surviving replica.
  resilience::FaultRule always;
  always.every_nth = 1;
  faults.Arm("serving/deploy", always);
  const data::Batch batch = OneSample(74);
  auto first = coordinator.Predict("s", batch);
  faults.Disarm("serving/deploy");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(registry.counter_value("serving/rebalance_events"), 1);

  // The shard whose copy failed stayed out of the group.
  const std::vector<std::string> group = coordinator.ReplicasOf("s");
  ASSERT_FALSE(group.empty());
  for (const std::string& id : group) {
    EXPECT_EQ(coordinator.shard(id)->DeployedVersion("s"),
              coordinator.VersionOf("s"))
        << id;
  }
  constexpr int kRequests = 400;
  std::vector<std::future<Result<std::vector<float>>>> answers;
  for (int i = 0; i < kRequests; ++i) {
    auto answer = std::make_shared<std::promise<Result<std::vector<float>>>>();
    answers.push_back(answer->get_future());
    auto request = std::make_shared<ShardCoordinator::Request>();
    request->scenario = "s";
    request->batch = &batch;
    request->done = [answer](Result<std::vector<float>> result) {
      answer->set_value(std::move(result));
    };
    coordinator.Submit(std::move(request));
  }
  int failed = 0;
  for (auto& answer : answers) failed += answer.get().ok() ? 0 : 1;
  EXPECT_EQ(failed, 0);

  // A redeploy restores the full group.
  ASSERT_TRUE(coordinator.Deploy("s", TinyModel(75)).ok());
  const std::vector<std::string> restored = coordinator.ReplicasOf("s");
  EXPECT_EQ(restored.size(), 2u);
  for (const std::string& id : restored) {
    EXPECT_EQ(coordinator.shard(id)->DeployedVersion("s"), 2u) << id;
  }
  faults.Reset();
}

TEST(ShardCoordinatorTest, UndeployClearsDisplacedReplicas) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  std::map<std::string, std::vector<std::string>> before;
  for (int s = 0; s < 24; ++s) {
    const std::string name = "scenario_" + std::to_string(s);
    ASSERT_TRUE(coordinator.Deploy(name, TinyModel(100 + s)).ok());
    ASSERT_TRUE(coordinator.Deploy(name, TinyModel(130 + s)).ok());
    before[name] = coordinator.ReplicasOf(name);
  }
  // The newcomer enters some groups and displaces their last member, which
  // keeps its v2 copy outside the group.
  ASSERT_TRUE(coordinator.AddShard("shard-3").ok());
  std::string scenario;
  for (const auto& [name, group] : before) {
    if (coordinator.ReplicasOf(name) != group) {
      scenario = name;
      break;
    }
  }
  ASSERT_FALSE(scenario.empty());
  const std::string displaced = before[scenario].back();
  ASSERT_EQ(coordinator.shard(displaced)->DeployedVersion(scenario), 2u);

  // A fresh deploy after the undeploy restarts at v1. When the newcomer
  // dies the displaced shard rejoins the group, and it must take v1.
  ASSERT_TRUE(coordinator.Undeploy(scenario).ok());
  EXPECT_EQ(coordinator.shard(displaced)->DeployedVersion(scenario), 0u);
  ASSERT_TRUE(coordinator.Deploy(scenario, TinyModel(160)).ok());
  ASSERT_EQ(coordinator.VersionOf(scenario), 1u);
  ASSERT_TRUE(coordinator.KillShard("shard-3").ok());
  ASSERT_TRUE(coordinator.Deploy("other", TinyModel(161)).ok());
  const std::vector<std::string> group = coordinator.ReplicasOf(scenario);
  EXPECT_NE(std::find(group.begin(), group.end(), displaced), group.end());
  for (const std::string& id : group) {
    EXPECT_EQ(coordinator.shard(id)->DeployedVersion(scenario), 1u) << id;
  }
}

// ---------------------------------------------------------------------------
// Overload: the per-shard queue cap
// ---------------------------------------------------------------------------

TEST(WorkerShardTest, HardQueueCapStillRejectsTraffic) {
  obs::MetricsRegistry registry;
  WorkerShard shard("shard-0", &registry);
  ASSERT_TRUE(shard.Deploy("s", TinyModel(32), 1).ok());
  shard.set_max_queue_depth(2);
  shard.PauseDispatchForTesting(true);

  const data::Batch batch = OneSample(33);
  auto a = Submit(&shard, "s", batch);
  auto b = Submit(&shard, "s", batch);
  // The hard cap is the memory-safety backstop: a full queue rejects the
  // next request at admission instead of growing.
  auto rejected = Submit(&shard, "s", batch).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  shard.PauseDispatchForTesting(false);
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
  shard.Kill();
}

TEST(ShardCoordinatorTest, ShedsWithResourceExhaustedAndRecovers) {
  obs::MetricsRegistry registry;
  CoordinatorOptions options = SmallCoordinator(2, 2);
  options.max_queue_depth_per_shard = 2;
  ShardCoordinator coordinator(options, &registry);
  ASSERT_TRUE(coordinator.Deploy("cold", TinyModel(34)).ok());

  const data::Batch batch = OneSample(36);
  std::vector<std::future<Result<std::vector<float>>>> queued;
  for (const std::string& id : coordinator.ShardIds()) {
    WorkerShard* worker = coordinator.shard(id);
    worker->PauseDispatchForTesting(true);
    for (int i = 0; i < 2; ++i) queued.push_back(Submit(worker, "cold", batch));
  }

  // Every live replica's queue is full: the coordinator rejects the request
  // with the distinct admission status instead of failing over as if shards
  // had died.
  auto shed = coordinator.Predict("cold", batch);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(registry.counter_value("serving/admission/shed"), 1);
  // Shedding is not failure: nobody fails over and nobody rebalances.
  EXPECT_EQ(registry.counter_value("serving/coordinator/failovers"), 0);
  EXPECT_EQ(registry.counter_value("serving/rebalance_events"), 0);

  for (const std::string& id : coordinator.ShardIds()) {
    coordinator.shard(id)->PauseDispatchForTesting(false);
  }
  for (auto& future : queued) {
    EXPECT_TRUE(future.get().ok());
  }

  // The queues drained: traffic is admitted again.
  auto recovered = coordinator.Predict("cold", batch);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE(registry.counter_value("serving/admission/accepted"), 1);
}

// ---------------------------------------------------------------------------
// Warm re-join and elastic scale-up
// ---------------------------------------------------------------------------

TEST(ShardCoordinatorTest, RejoinShardRedeploysAtCurrentVersions) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(4, 2), &registry);
  const int kScenarios = 8;
  for (int s = 0; s < kScenarios; ++s) {
    ASSERT_TRUE(
        coordinator.Deploy("scenario_" + std::to_string(s), TinyModel(40 + s))
            .ok());
  }

  EXPECT_EQ(coordinator.RejoinShard("no-such-shard").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(coordinator.RejoinShard("shard-1").code(),
            StatusCode::kFailedPrecondition);  // Not dead.

  ASSERT_TRUE(coordinator.KillShard("shard-1").ok());
  const data::Batch batch = OneSample(41);
  // Traffic keeps flowing on replicas (and triggers the rebalance).
  for (int s = 0; s < kScenarios; ++s) {
    ASSERT_TRUE(
        coordinator.Predict("scenario_" + std::to_string(s), batch).ok());
  }
  // The world moves on while the shard is out: scenario_0 is re-deployed,
  // bumping its version.
  ASSERT_TRUE(coordinator.Deploy("scenario_0", TinyModel(50)).ok());
  EXPECT_EQ(coordinator.VersionOf("scenario_0"), 2u);

  ASSERT_TRUE(coordinator.RejoinShard("shard-1").ok());
  EXPECT_EQ(coordinator.NumLiveShards(), 4);
  EXPECT_GE(registry.counter_value("serving/coordinator/rejoins"), 1);

  // Post-rejoin invariants: every scenario's replica set is consistent with
  // the ring, and every replica serves the CURRENT version — the rejoined
  // shard warm-started from the scenario table, not from stale pre-kill
  // state.
  for (int s = 0; s < kScenarios; ++s) {
    const std::string scenario = "scenario_" + std::to_string(s);
    for (const std::string& id : coordinator.ReplicasOf(scenario)) {
      EXPECT_EQ(coordinator.shard(id)->DeployedVersion(scenario),
                coordinator.VersionOf(scenario))
          << scenario << " on " << id;
    }
    auto scores = coordinator.Predict(scenario, batch);
    EXPECT_TRUE(scores.ok()) << scores.status().ToString();
  }
  EXPECT_TRUE(coordinator.UnservableScenarios().empty());
}

TEST(ShardCoordinatorTest, AddShardJoinsRingAndServesAssignedScenarios) {
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  for (int s = 0; s < 6; ++s) {
    ASSERT_TRUE(
        coordinator.Deploy("scenario_" + std::to_string(s), TinyModel(60 + s))
            .ok());
  }
  ASSERT_TRUE(coordinator.DeployEverywhere("f0", TinyModel(66)).ok());

  EXPECT_EQ(coordinator.AddShard("shard-0").code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(coordinator.AddShard("shard-3").ok());
  EXPECT_EQ(coordinator.NumLiveShards(), 4);

  // Everywhere-deployments cover the newcomer too.
  EXPECT_GE(coordinator.shard("shard-3")->DeployedVersion("f0"), 1u);
  // Replica tables were recomputed against the grown ring; whatever routed
  // to the newcomer is deployed there.
  const data::Batch batch = OneSample(67);
  for (int s = 0; s < 6; ++s) {
    const std::string scenario = "scenario_" + std::to_string(s);
    for (const std::string& id : coordinator.ReplicasOf(scenario)) {
      EXPECT_EQ(coordinator.shard(id)->DeployedVersion(scenario),
                coordinator.VersionOf(scenario))
          << scenario << " on " << id;
    }
    EXPECT_TRUE(coordinator.Predict(scenario, batch).ok());
  }
}

/// No replica group of the plane names `id`.
void ExpectInNoGroup(const ShardCoordinator& coordinator,
                     const std::string& id) {
  for (const std::string& scenario : coordinator.Scenarios()) {
    for (const std::string& replica : coordinator.ReplicasOf(scenario)) {
      EXPECT_NE(replica, id) << scenario;
    }
  }
}

TEST(ShardCoordinatorTest, FailedRejoinLeavesTheShardDeadForARetry) {
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  const int kScenarios = 12;
  for (int s = 0; s < kScenarios; ++s) {
    ASSERT_TRUE(
        coordinator.Deploy("scenario_" + std::to_string(s), TinyModel(80 + s))
            .ok());
  }
  // Kill shard-0 and let a deploy evict it from the ring.
  ASSERT_TRUE(coordinator.KillShard("shard-0").ok());
  ASSERT_TRUE(coordinator.Deploy("scenario_0", TinyModel(79)).ok());
  ASSERT_EQ(registry.counter_value("serving/rebalance_events"), 1);
  ExpectInNoGroup(coordinator, "shard-0");

  // Every copy faults: the admission fails, and the shard stays dead and
  // off the ring instead of live with no replica group naming it.
  resilience::FaultRule always;
  always.every_nth = 1;
  faults.Arm("serving/deploy", always);
  EXPECT_EQ(coordinator.RejoinShard("shard-0").code(), StatusCode::kInternal);
  faults.Disarm("serving/deploy");
  EXPECT_TRUE(coordinator.shard("shard-0")->dead());
  EXPECT_EQ(coordinator.NumLiveShards(), 2);
  ExpectInNoGroup(coordinator, "shard-0");

  // Once the fault clears, the same call admits it.
  const Status retry = coordinator.RejoinShard("shard-0");
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(coordinator.NumLiveShards(), 3);
  const data::Batch batch = OneSample(81);
  int groups_with_shard0 = 0;
  for (int s = 0; s < kScenarios; ++s) {
    const std::string scenario = "scenario_" + std::to_string(s);
    for (const std::string& id : coordinator.ReplicasOf(scenario)) {
      groups_with_shard0 += id == "shard-0" ? 1 : 0;
      EXPECT_EQ(coordinator.shard(id)->DeployedVersion(scenario),
                coordinator.VersionOf(scenario))
          << scenario << " on " << id;
    }
    EXPECT_TRUE(coordinator.Predict(scenario, batch).ok()) << scenario;
  }
  EXPECT_GT(groups_with_shard0, 0);
  faults.Reset();
}

TEST(ShardCoordinatorTest, FailedAddShardLeavesTheShardDeadForARejoin) {
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  for (int s = 0; s < 6; ++s) {
    ASSERT_TRUE(
        coordinator.Deploy("scenario_" + std::to_string(s), TinyModel(95 + s))
            .ok());
  }
  // f0 everywhere: the newcomer needs at least one copy.
  ASSERT_TRUE(coordinator.DeployEverywhere("f0", TinyModel(94)).ok());

  resilience::FaultRule always;
  always.every_nth = 1;
  faults.Arm("serving/deploy", always);
  EXPECT_EQ(coordinator.AddShard("shard-3").code(), StatusCode::kInternal);
  faults.Disarm("serving/deploy");
  // Registered, dead and off the ring; its id stays taken.
  EXPECT_EQ(coordinator.NumShards(), 4);
  EXPECT_EQ(coordinator.NumLiveShards(), 3);
  ASSERT_NE(coordinator.shard("shard-3"), nullptr);
  EXPECT_TRUE(coordinator.shard("shard-3")->dead());
  ExpectInNoGroup(coordinator, "shard-3");
  EXPECT_EQ(coordinator.AddShard("shard-3").code(),
            StatusCode::kAlreadyExists);

  const Status rejoin = coordinator.RejoinShard("shard-3");
  ASSERT_TRUE(rejoin.ok()) << rejoin.ToString();
  EXPECT_EQ(coordinator.NumLiveShards(), 4);
  EXPECT_EQ(coordinator.shard("shard-3")->DeployedVersion("f0"),
            coordinator.VersionOf("f0"));
  const data::Batch batch = OneSample(96);
  for (const std::string& scenario : coordinator.Scenarios()) {
    EXPECT_TRUE(coordinator.Predict(scenario, batch).ok()) << scenario;
  }
  faults.Reset();
}

TEST(ShardCoordinatorTest, ControlPlaneEvictsAKilledShardWithoutTraffic) {
  // No request reaches the killed shard, so its own worker never rebalances
  // it away. Deploy, DeployEverywhere and AddShard each do that first
  // instead of failing on it or naming it in a replica group. Each takes
  // the first turn once, on a fresh plane.
  const data::Batch batch = OneSample(90);
  for (int first = 0; first < 3; ++first) {
    obs::MetricsRegistry registry;
    ShardCoordinator coordinator(SmallCoordinator(4, 2), &registry);
    ASSERT_TRUE(coordinator.Deploy("s", TinyModel(90)).ok());
    const std::string dead = coordinator.ReplicasOf("s").front();
    ASSERT_TRUE(coordinator.KillShard(dead).ok());
    const std::function<Status()> operations[] = {
        [&] { return coordinator.Deploy("s", TinyModel(91)); },
        [&] { return coordinator.DeployEverywhere("f0", TinyModel(92)); },
        [&] { return coordinator.AddShard("shard-4"); },
    };
    for (int i = 0; i < 3; ++i) {
      const Status status = operations[(first + i) % 3]();
      ASSERT_TRUE(status.ok()) << status.ToString();
      for (const std::string& scenario : coordinator.Scenarios()) {
        for (const std::string& id : coordinator.ReplicasOf(scenario)) {
          EXPECT_NE(id, dead) << scenario;
        }
      }
      EXPECT_EQ(registry.counter_value("serving/rebalance_events"), 1);
    }
    EXPECT_EQ(coordinator.NumLiveShards(), 4);
    EXPECT_TRUE(coordinator.Predict("s", batch).ok());
    EXPECT_TRUE(coordinator.Predict("f0", batch).ok());
  }
}

/// Polls `done` every millisecond for up to five seconds.
template <typename Pred>
bool WaitUntil(Pred done) {
  for (int i = 0; i < 5000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(ShardCoordinatorTest, LiveWorkersNeverWaitForARebalance) {
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator(SmallCoordinator(3, 2), &registry);
  // Deploys retry transient faults on a fixed 2 ms backoff, with attempts to
  // spare: while serving/deploy is armed, a re-join's pre-deploy keeps
  // retrying and so holds the control plane.
  DeployOptions retrying;
  retrying.retry_transient = true;
  retrying.retry.max_attempts = 100000;
  retrying.retry.initial_backoff_ms = 2.0;
  retrying.retry.backoff_multiplier = 1.0;
  retrying.retry.jitter_fraction = 0.0;
  // A scenario shard-1 owns with dead-to-be shard-0 as its only other
  // replica. The re-join of shard-2 does not change that group: a newcomer
  // enters a group only if the ring with it puts it there.
  std::string scenario;
  for (int s = 0; s < 24; ++s) {
    const std::string name = "scenario_" + std::to_string(s);
    ASSERT_TRUE(coordinator.Deploy(name, TinyModel(80 + s), retrying).ok());
    if (scenario.empty() &&
        coordinator.ReplicasOf(name) ==
            std::vector<std::string>{"shard-1", "shard-0"}) {
      scenario = name;
    }
  }
  ASSERT_FALSE(scenario.empty());
  const data::Batch batch = OneSample(81);

  // shard-2 leaves and re-joins; the re-join's pre-deploy fails and retries
  // while it holds the control plane.
  ASSERT_TRUE(coordinator.KillShard("shard-2").ok());
  for (int s = 0; s < 24; ++s) {
    ASSERT_TRUE(
        coordinator.Predict("scenario_" + std::to_string(s), batch).ok());
  }
  ASSERT_EQ(registry.counter_value("serving/rebalance_events"), 1);
  resilience::FaultRule deploy_fault;
  deploy_fault.every_nth = 1;
  faults.Arm("serving/deploy", deploy_fault);
  std::atomic<bool> rejoined{false};
  std::thread rejoin([&] {
    EXPECT_TRUE(coordinator.RejoinShard("shard-2").ok());
    rejoined = true;
  });
  ASSERT_TRUE(WaitUntil([&] { return !coordinator.shard("shard-2")->dead(); }));

  // Mid re-join, shard-0 dies and shard-1 answers the scenario's next
  // request Unavailable. Its failover continuation, on shard-1's worker,
  // finds only dead shard-0 left, whose rebalance must wait for the
  // control plane.
  ASSERT_TRUE(coordinator.KillShard("shard-0").ok());
  const int64_t failovers =
      registry.counter_value("serving/coordinator/failovers");
  resilience::FaultRule rule;
  rule.every_nth = 1;
  rule.code = StatusCode::kUnavailable;
  faults.Arm("serving/predict", rule);
  auto parked = std::async(std::launch::async, [&] {
    return coordinator.Predict(scenario, batch);
  });
  ASSERT_TRUE(WaitUntil([&] {
    return registry.counter_value("serving/coordinator/failovers") >
           failovers;
  }));
  faults.Disarm("serving/predict");

  // shard-1's worker handed the request to dead shard-0 and moved on: it
  // answers new work while the re-join and shard-0's rebalance still wait.
  auto direct = Submit(coordinator.shard("shard-1"), scenario, batch).get();
  EXPECT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_FALSE(rejoined.load());
  faults.Disarm("serving/deploy");
  rejoin.join();

  // Once the control plane is free, shard-0's own worker rebalances, then
  // answers the parked request Unavailable; it re-ranks and is served.
  auto result = parked.get();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(registry.counter_value("serving/rebalance_events"), 2);
  for (int s = 0; s < 24; ++s) {
    for (const std::string& id :
         coordinator.ReplicasOf("scenario_" + std::to_string(s))) {
      EXPECT_NE(id, "shard-0");
    }
  }
  faults.Reset();
}

// ---------------------------------------------------------------------------
// One shared model per scenario version
// ---------------------------------------------------------------------------

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

TEST(ShardCoordinatorTest, ReplicasScoreOneSharedModelConcurrently) {
  obs::MetricsRegistry registry;
  CoordinatorOptions options = SmallCoordinator(3, 1);
  options.hot_replication = 3;
  ShardCoordinator coordinator(options, &registry);
  DeployOptions hot;
  hot.hot = true;
  ASSERT_TRUE(coordinator.Deploy("hot", TinyModel(60), hot).ok());
  const std::vector<std::string> replicas = coordinator.ReplicasOf("hot");
  ASSERT_EQ(replicas.size(), 3u);

  // A reference copy of the same weights, scored on this thread.
  const std::unique_ptr<models::BaseModel> reference = TinyModel(60);
  const data::Batch one = Rows(61, 1);
  const data::Batch wide = Rows(62, 64);
  const std::vector<float> want_one = reference->PredictProbs(one);
  const std::vector<float> want_wide = reference->PredictProbs(wide);
  std::ostringstream want_bundle;
  ASSERT_TRUE(SaveModelBundle(reference.get(), &want_bundle).ok());

  // Beside the traffic, one thread redeploys identical weights and another
  // serializes the model the workers are scoring.
  std::atomic<bool> stop{false};
  std::thread redeployer([&] {
    while (!stop.load()) {
      EXPECT_TRUE(coordinator.Deploy("hot", TinyModel(60), hot).ok());
    }
  });
  std::thread exporter([&] {
    const std::string path = ::testing::TempDir() + "/shard_test_hot.altm";
    while (!stop.load()) {
      ASSERT_TRUE(coordinator.ExportBundle("hot", path).ok());
      EXPECT_EQ(ReadFile(path), want_bundle.str());
    }
    std::remove(path.c_str());
  });
  // Every shard scores the scenario at once, 1-row and 64-row requests.
  for (int round = 0; round < 40; ++round) {
    std::vector<std::future<Result<std::vector<float>>>> ones;
    std::vector<std::future<Result<std::vector<float>>>> wides;
    for (const std::string& id : replicas) {
      ones.push_back(Submit(coordinator.shard(id), "hot", one));
      wides.push_back(Submit(coordinator.shard(id), "hot", wide));
    }
    // EXPECT, not ASSERT: the test must reach the joins below.
    for (auto& answer : ones) {
      const Result<std::vector<float>> scores = answer.get();
      EXPECT_TRUE(scores.ok() && scores.value() == want_one)
          << scores.status().ToString();
    }
    for (auto& answer : wides) {
      const Result<std::vector<float>> scores = answer.get();
      EXPECT_TRUE(scores.ok() && scores.value() == want_wide)
          << scores.status().ToString();
    }
  }
  stop.store(true);
  redeployer.join();
  exporter.join();
  EXPECT_GT(coordinator.VersionOf("hot"), 1u);
}

}  // namespace
}  // namespace shard
}  // namespace serving
}  // namespace alt
