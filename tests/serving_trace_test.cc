// Tests of request-scoped tracing and per-scenario SLOs across the sharded
// serving plane: deterministic sampling, segment attribution for single
// and merged requests and on failover, the slow-trace ring, SLO burn-rate
// windows on a FakeClock, and a concurrent traced chaos section (run under
// TSan by check.sh's tsan stage — the request context crosses the caller,
// coordinator and shard worker threads).

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/obs/slo.h"
#include "src/resilience/clock.h"
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

ServingClient::Options TracedTopology(int shards, int replication,
                                      double sample_rate) {
  ServingClient::Options options;
  options.num_shards = shards;
  options.replication = replication;
  options.vnodes_per_shard = 64;
  options.trace.sample_rate = sample_rate;
  return options;
}

// ---------------------------------------------------------------------------
// RequestTracer: sampling, completion, the slow ring
// ---------------------------------------------------------------------------

TEST(RequestTracerTest, SamplingIsDeterministicPerSeed) {
  obs::MetricsRegistry registry;
  obs::RequestTracer::Options options;
  options.sample_rate = 0.25;
  options.seed = 7;
  options.registry = &registry;
  obs::RequestTracer a(options);
  obs::RequestTracer b(options);
  int sampled = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::RequestContext ca = a.StartRequest("s");
    const obs::RequestContext cb = b.StartRequest("s");
    EXPECT_EQ(ca.sampled(), cb.sampled());  // Same seed, same order.
    if (ca.sampled()) {
      ++sampled;
      EXPECT_EQ(ca.trace_id, cb.trace_id);
      EXPECT_NE(ca.trace_id, 0u);
    }
    // Every context times the request end-to-end, sampled or not.
    EXPECT_GT(ca.start_us, 0.0);
  }
  EXPECT_GT(sampled, 20);   // ~50 expected at rate 0.25.
  EXPECT_LT(sampled, 110);
}

TEST(RequestTracerTest, RateZeroAndOneAreExact) {
  obs::MetricsRegistry registry;
  obs::RequestTracer::Options options;
  options.registry = &registry;
  options.sample_rate = 0.0;
  obs::RequestTracer never(options);
  options.sample_rate = 1.0;
  obs::RequestTracer always(options);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(never.StartRequest("s").sampled());
    EXPECT_TRUE(always.StartRequest("s").sampled());
  }
}

TEST(RequestTracerTest, CompleteRequestReturnsEndToEndLatency) {
  obs::MetricsRegistry registry;
  obs::RequestTracer::Options options;
  options.registry = &registry;
  options.sample_rate = 1.0;
  obs::RequestTracer tracer(options);
  const obs::RequestContext ctx = tracer.StartRequest("s");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double total_ms = tracer.CompleteRequest(ctx, Status::OK());
  EXPECT_GE(total_ms, 4.0);
  EXPECT_EQ(tracer.traced_requests(), 1);
  EXPECT_GE(tracer.slowest_ms(), total_ms - 1e-6);
}

TEST(RequestTracerTest, SlowRingKeepsTheSlowest) {
  obs::MetricsRegistry registry;
  obs::RequestTracer::Options options;
  options.registry = &registry;
  options.sample_rate = 1.0;
  options.slow_ring_size = 2;
  obs::RequestTracer tracer(options);
  // Three requests with well-separated durations; the ring (capacity 2)
  // must retain the two slowest, slowest first.
  for (int sleep_ms : {1, 40, 15}) {
    const obs::RequestContext ctx = tracer.StartRequest("s" +
                                                        std::to_string(sleep_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    tracer.CompleteRequest(ctx, Status::OK());
  }
  const auto slow = tracer.SlowTraces();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].scenario, "s40");
  EXPECT_EQ(slow[1].scenario, "s15");
  EXPECT_GE(slow[0].total_ms, slow[1].total_ms);

  const Json doc = tracer.ToJson();
  EXPECT_EQ(doc.at("slow_traces").as_array().size(), 2u);
  EXPECT_EQ(doc.at("traced_requests").as_int(), 3);
}

TEST(RequestTracerTest, DisabledRegistryIsInert) {
  obs::MetricsRegistry registry;
  registry.set_enabled(false);
  obs::RequestTracer::Options options;
  options.registry = &registry;
  options.sample_rate = 1.0;
  obs::RequestTracer tracer(options);
  EXPECT_FALSE(tracer.enabled());
  const obs::RequestContext ctx = tracer.StartRequest("s");
  EXPECT_FALSE(ctx.sampled());
  EXPECT_EQ(ctx.start_us, 0.0);
  EXPECT_EQ(tracer.CompleteRequest(ctx, Status::OK()), 0.0);
}

// ---------------------------------------------------------------------------
// Segment attribution through the serving plane
// ---------------------------------------------------------------------------

TEST(ServingTraceTest, DirectPathDecomposesIntoQueueWaitAndCompute) {
  obs::MetricsRegistry registry;
  ServingClient client(TracedTopology(2, 2, 1.0), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(1)).ok());
  const data::Batch batch = OneSample(2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Predict("s", batch).ok());
  }
  const auto slow = client.tracer()->SlowTraces();
  ASSERT_FALSE(slow.empty());
  for (const auto& trace : slow) {
    EXPECT_TRUE(trace.ok);
    EXPECT_GT(trace.SegmentMs(obs::segment::kQueueWait), 0.0);
    EXPECT_GT(trace.SegmentMs(obs::segment::kCompute), 0.0);
    // No double counting: the segments never exceed the end-to-end time
    // (small epsilon for clock-read granularity at microsecond scale).
    EXPECT_LE(trace.SegmentSumMs(), trace.total_ms * 1.05 + 0.01);
  }
  EXPECT_EQ(client.GetStats().traced_requests, 4);
}

TEST(ServingTraceTest, FailoverSegmentAppearsWhenReplicaDies) {
  obs::MetricsRegistry registry;
  ServingClient client(TracedTopology(2, 2, 1.0), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(1)).ok());
  const data::Batch batch = OneSample(2);
  ASSERT_TRUE(client.Predict("s", batch).ok());
  // Replication 2: killing one replica leaves the scenario servable, and
  // the first requests routed at the dead shard must fail over (claiming
  // the dead attempt's wall time as a failover segment) before the
  // rebalance hides it.
  ASSERT_TRUE(client.KillShard("shard-1").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Predict("s", batch).ok());
  }
  double failover_ms = 0.0;
  for (const auto& trace : client.tracer()->SlowTraces()) {
    failover_ms = std::max(failover_ms,
                           trace.SegmentMs(obs::segment::kFailover));
  }
  EXPECT_GT(failover_ms, 0.0);
}

TEST(ServingTraceTest, BatchedPathAttributesBatchWait) {
  // Requests merged into one engine call each book their own queue_wait and
  // compute: there is no coalescing wait and no representative request.
  obs::MetricsRegistry registry;
  ServingClient client(TracedTopology(2, 2, 1.0), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(1)).ok());
  for (const std::string& id : client.ShardIds()) {
    client.coordinator()->shard(id)->PauseDispatchForTesting(true);
  }
  Rng rng(9);
  std::vector<std::future<Result<float>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(client.EnqueuePredict("s", Tensor::Randn({1, 4}, &rng),
                                            {0, 1, 2, 3, 4}));
  }
  for (const std::string& id : client.ShardIds()) {
    client.coordinator()->shard(id)->PauseDispatchForTesting(false);
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  // Both replicas were paused, so every engine call merged several requests.
  const obs::HistogramSummary calls =
      registry.histogram_summary("serving/batch_predictor/batch_size");
  EXPECT_EQ(calls.sum, 8.0);
  EXPECT_LT(calls.count, 8);
  const auto slow = client.tracer()->SlowTraces();
  ASSERT_EQ(slow.size(), 8u);
  for (const auto& trace : slow) {
    EXPECT_TRUE(trace.ok);
    EXPECT_GT(trace.SegmentMs(obs::segment::kQueueWait), 0.0);
    EXPECT_GT(trace.SegmentMs(obs::segment::kCompute), 0.0);
    EXPECT_LE(trace.SegmentSumMs(), trace.total_ms * 1.05 + 0.01);
  }
  EXPECT_EQ(client.GetStats().traced_requests, 8);
  // Segment histograms fed: the exporter renders these as
  // alt_serving_trace_segment_ms{id="queue_wait"} etc.
  EXPECT_EQ(
      registry.histogram_summary("serving/trace/segment_ms/queue_wait").count,
      8);
  EXPECT_EQ(
      registry.histogram_summary("serving/trace/segment_ms/batch_wait").count,
      0);
}

TEST(ServingTraceTest, UnsampledRequestsStillFeedScenarioLatency) {
  obs::MetricsRegistry registry;
  ServingClient client(TracedTopology(2, 2, 0.0), &registry);
  ASSERT_TRUE(client.Deploy("s", TinyModel(1)).ok());
  const data::Batch batch = OneSample(2);
  ASSERT_TRUE(client.Predict("s", batch).ok());
  EXPECT_EQ(client.GetStats().traced_requests, 0);
  // The per-scenario latency histogram and the SLO see every request, not
  // just the sampled ones.
  EXPECT_EQ(registry.histogram_summary("serving/request/latency_ms/s").count,
            1);
  const auto slos = client.slo()->Snapshot();
  ASSERT_TRUE(slos.count("s"));
  EXPECT_EQ(slos.at("s").total, 1);
}

// ---------------------------------------------------------------------------
// SLO burn-rate windows on the FakeClock
// ---------------------------------------------------------------------------

TEST(SloTrackerTest, BurnRateExceedsOneDuringBadWindowAndRecovers) {
  obs::MetricsRegistry registry;
  resilience::FakeClock clock;
  obs::SloTracker::Options options;
  options.registry = &registry;
  options.now_ms = [&clock] { return clock.NowMs(); };
  options.bucket_ms = 1000.0;
  options.short_window_ms = 60'000.0;
  options.long_window_ms = 600'000.0;
  obs::SloTracker tracker(options);
  obs::SloObjective objective;
  objective.availability = 0.99;  // 1% error budget.
  tracker.SetObjective("victim", objective);

  // Healthy steady state: 100 ok requests spread over a minute.
  for (int i = 0; i < 100; ++i) {
    tracker.Record("victim", 1.0, /*ok=*/true);
    clock.Advance(500.0);
  }
  EXPECT_LT(tracker.Snapshot().at("victim").burn_short, 1.0);
  EXPECT_TRUE(tracker.Burning().empty());

  // Kill window: every request fails for ten seconds. The short window
  // burn must exceed 1 (error budget spending faster than allowed).
  for (int i = 0; i < 20; ++i) {
    tracker.Record("victim", 1.0, /*ok=*/false);
    clock.Advance(500.0);
  }
  const auto during = tracker.Snapshot().at("victim");
  EXPECT_GT(during.burn_short, 1.0);
  EXPECT_GT(during.burn_long, 1.0);
  EXPECT_LT(during.budget_remaining, 1.0);
  EXPECT_EQ(tracker.Burning(), std::vector<std::string>{"victim"});

  // Recovery: ok traffic until the bad buckets age out of the short
  // window; the short burn falls back under 1 (the long window still
  // remembers the incident).
  for (int i = 0; i < 150; ++i) {
    tracker.Record("victim", 1.0, /*ok=*/true);
    clock.Advance(500.0);
  }
  const auto after = tracker.Snapshot().at("victim");
  EXPECT_LT(after.burn_short, 1.0);
  EXPECT_TRUE(tracker.Burning().empty());
}

TEST(SloTrackerTest, LatencyObjectiveCountsSlowRequestsAsBad) {
  obs::MetricsRegistry registry;
  resilience::FakeClock clock;
  obs::SloTracker::Options options;
  options.registry = &registry;
  options.now_ms = [&clock] { return clock.NowMs(); };
  obs::SloTracker tracker(options);
  obs::SloObjective objective;
  objective.target_latency_ms = 10.0;
  objective.availability = 0.9;
  tracker.SetObjective("s", objective);
  tracker.Record("s", 5.0, true);    // Fast: good.
  tracker.Record("s", 50.0, true);   // Ok but slow: bad.
  tracker.Record("s", 5.0, false);   // Fast but failed: bad.
  const auto slo = tracker.Snapshot().at("s");
  EXPECT_EQ(slo.total, 3);
  EXPECT_EQ(slo.bad, 2);
  EXPECT_GT(slo.burn_short, 1.0);  // 2/3 bad against a 10% budget.
}

TEST(SloTrackerTest, PublishGaugesWritesPerScenarioBurn) {
  obs::MetricsRegistry registry;
  resilience::FakeClock clock;
  obs::SloTracker::Options options;
  options.registry = &registry;
  options.now_ms = [&clock] { return clock.NowMs(); };
  obs::SloTracker tracker(options);
  tracker.Record("a", 1.0, false);
  tracker.PublishGauges();
  // Rendered by the exporter as alt_slo_burn_short{id="a"} etc.
  EXPECT_GT(registry.gauge_value("slo/burn/short/a"), 0.0);
  EXPECT_GE(registry.gauge_value("slo/budget/remaining/a"), 0.0);
}

TEST(ServingSloTest, KillWindowBurnsAndRejoinRecoversOnFakeClock) {
  obs::MetricsRegistry registry;
  resilience::FakeClock clock;
  ServingClient::Options options = TracedTopology(2, 1, 0.0);
  options.clock = &clock;  // SLO windows advance on the FakeClock.
  ServingClient client(options, &registry);
  DeployOptions deploy;
  deploy.slo.availability = 0.99;
  ASSERT_TRUE(client.Deploy("victim", TinyModel(1), deploy).ok());
  const data::Batch batch = OneSample(2);

  // Healthy minute.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client.Predict("victim", batch).ok());
    clock.Advance(1000.0);
  }
  EXPECT_EQ(client.GetStats().scenarios_burning, 0);

  // Kill window: with every shard down the scenario has no live replica,
  // so requests fail and the short-window burn crosses 1.
  for (const std::string& id : client.ShardIds()) {
    ASSERT_TRUE(client.KillShard(id).ok());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(client.Predict("victim", batch).ok());
    clock.Advance(1000.0);
  }
  const auto during = client.slo()->Snapshot().at("victim");
  EXPECT_GT(during.burn_short, 1.0);
  EXPECT_GE(client.GetStats().scenarios_burning, 1);

  // Re-join and recover: models re-deploy from the scenario table, traffic
  // succeeds again, and once the bad buckets age out of the short window
  // the burn drops back under 1.
  for (const std::string& id : client.ShardIds()) {
    ASSERT_TRUE(client.RejoinShard(id).ok());
  }
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(client.Predict("victim", batch).ok());
    clock.Advance(1000.0);
  }
  const auto after = client.slo()->Snapshot().at("victim");
  EXPECT_LT(after.burn_short, 1.0);
  EXPECT_EQ(client.GetStats().scenarios_burning, 0);
}

// ---------------------------------------------------------------------------
// Concurrent traced chaos (the TSan section)
// ---------------------------------------------------------------------------

TEST(ServingTraceChaosTest, ConcurrentTracedTrafficSurvivesKillAndRejoin) {
  obs::MetricsRegistry registry;
  ServingClient client(TracedTopology(4, 2, 1.0), &registry);
  constexpr int kScenarios = 8;
  for (int i = 0; i < kScenarios; ++i) {
    DeployOptions deploy;
    deploy.slo.target_latency_ms = 200.0;
    ASSERT_TRUE(client
                    .Deploy("s" + std::to_string(i),
                            TinyModel(100 + static_cast<uint64_t>(i)), deploy)
                    .ok());
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> resolved{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&client, &completed, &resolved, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      const data::Batch batch = OneSample(static_cast<uint64_t>(t) + 50);
      std::vector<std::future<Result<float>>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        const std::string scenario =
            "s" + std::to_string((t * kPerThread + i) % kScenarios);
        if (i % 2 == 0) {
          // Direct path: every replica group survives a single kill
          // (replication 2), so the predict must succeed via failover.
          if (client.Predict(scenario, batch).ok()) completed.fetch_add(1);
        } else {
          futures.push_back(client.EnqueuePredict(
              scenario, Tensor::Randn({1, 4}, &rng), {0, 1, 2, 3, 4}));
        }
      }
      for (auto& f : futures) {
        if (f.get().ok()) completed.fetch_add(1);
        resolved.fetch_add(1);
      }
      resolved.fetch_add(kPerThread - static_cast<int64_t>(futures.size()));
    });
  }

  // Chaos driver: kill, re-join, and toggle the sampling rate while the
  // worker threads hammer both predict paths and a reader polls the
  // slow-trace ring and the SLO snapshot — every cross-thread handoff of
  // the request context and the tracer state runs under TSan here.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.KillShard("shard-2").ok());
  client.tracer()->set_sample_rate(0.5);
  for (int i = 0; i < 10; ++i) {
    (void)client.tracer()->SlowTraces();
    (void)client.tracer()->ToJson();
    (void)client.slo()->Snapshot();
    (void)client.GetStats();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(client.RejoinShard("shard-2").ok());
  for (auto& worker : workers) worker.join();
  client.DrainRequests();

  EXPECT_EQ(resolved.load(), static_cast<int64_t>(kThreads) * kPerThread);
  // Replication 2 with a single kill + warm re-join: nothing may be lost.
  EXPECT_EQ(completed.load(), static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_GT(client.GetStats().traced_requests, 0);
  const auto slow = client.tracer()->SlowTraces();
  for (const auto& trace : slow) {
    EXPECT_GT(trace.total_ms, 0.0);
    EXPECT_GE(trace.SegmentSumMs(), 0.0);
  }
}

}  // namespace
}  // namespace serving
}  // namespace alt
