// Tests for the observability layer (src/obs): metrics registry exactness
// under concurrency, percentile math on known distributions, trace span
// nesting and Chrome trace_event export, disabled-mode zero recording, and
// the wiring through ServingClient / ParallelFor.

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/obs/trace.h"
#include "src/resilience/clock.h"
#include "src/resilience/fault_injection.h"
#include "src/serving/model_server.h"
#include "src/serving/serving_client.h"
#include "src/util/json.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

namespace alt {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Counters / gauges
// ---------------------------------------------------------------------------

TEST(CounterTest, ConcurrentAddsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("test/counter/adds");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter]() {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->value(), kThreads * kAddsPerThread);
  EXPECT_EQ(registry.counter_value("test/counter/adds"),
            kThreads * kAddsPerThread);
}

TEST(CounterTest, HandleIsIdempotent) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("a"), registry.counter("a"));
  EXPECT_NE(registry.counter("a"), registry.counter("b"));
}

TEST(GaugeTest, ConcurrentAddsAccumulateExactly) {
  MetricsRegistry registry;
  Gauge* gauge = registry.gauge("test/gauge/level");
  gauge->Set(100.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 100.0);
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([gauge]() {
      for (int i = 0; i < kAddsPerThread; ++i) gauge->Add(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(gauge->value(), 100.0 + kThreads * kAddsPerThread);
}

TEST(RegistryTest, UnknownMetricsReadAsZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("nope"), 0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("nope"), 0.0);
  EXPECT_EQ(registry.histogram_summary("nope").count, 0);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(HistogramTest, ConcurrentObservesCountAndSumExactly) {
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("test/hist/conc");
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist, t]() {
      for (int i = 0; i < kObsPerThread; ++i) {
        hist->Observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSummary s = hist->Summarize();
  EXPECT_EQ(s.count, kThreads * kObsPerThread);
  // sum = 1000 * (1 + 2 + ... + 8).
  EXPECT_DOUBLE_EQ(s.sum, 1000.0 * 36.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST(HistogramTest, PercentilesOnKnownUniformDistribution) {
  MetricsRegistry registry;
  // Linear bounds 10, 20, ..., 100; observations 1..100 give one value per
  // unit, so interpolated percentiles are exact.
  Histogram* hist = registry.histogram(
      "test/hist/uniform",
      {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0});
  for (int v = 1; v <= 100; ++v) hist->Observe(static_cast<double>(v));
  const HistogramSummary s = hist->Summarize();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.0, 1e-9);
  EXPECT_NEAR(s.p95, 95.0, 1e-9);
  EXPECT_NEAR(s.p99, 99.0, 1e-9);
}

TEST(HistogramTest, OverflowBucketCapsAtObservedMax) {
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("test/hist/overflow", {1.0});
  hist->Observe(5.0);
  hist->Observe(7.0);
  const HistogramSummary s = hist->Summarize();
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_LE(s.p99, 7.0);
  EXPECT_GT(s.p50, 1.0);  // Both observations are in the overflow bucket.
}

TEST(HistogramTest, BoundsFixedByFirstRegistration) {
  MetricsRegistry registry;
  Histogram* first = registry.histogram("test/hist/bounds", {1.0, 2.0});
  Histogram* second = registry.histogram("test/hist/bounds", {9.0});
  EXPECT_EQ(first, second);
  EXPECT_EQ(first->bounds().size(), 2u);
}

TEST(ScopedTimerTest, RecordsOneObservation) {
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("test/timer/ms");
  {
    ScopedTimerMs timer(hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(timer.ElapsedMillis(), 0.0);
  }
  const HistogramSummary s = hist->Summarize();
  EXPECT_EQ(s.count, 1);
  EXPECT_GT(s.sum, 0.0);
}

TEST(ScopedTimerTest, NullHistogramIsSafe) {
  ScopedTimerMs timer(nullptr);
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 0.0);
}

// ---------------------------------------------------------------------------
// Disabled mode
// ---------------------------------------------------------------------------

TEST(DisabledModeTest, RegistryRecordsNothingWhenDisabled) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("test/off/counter");
  Gauge* gauge = registry.gauge("test/off/gauge");
  Histogram* hist = registry.histogram("test/off/hist");

  registry.set_enabled(false);
  EXPECT_FALSE(counter->enabled());
  counter->Add(5);
  gauge->Set(3.0);
  gauge->Add(2.0);
  hist->Observe(1.0);
  {
    ScopedTimerMs timer(hist);  // Disabled histogram: no clock, no record.
  }
  EXPECT_EQ(counter->value(), 0);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_EQ(hist->Summarize().count, 0);

  registry.set_enabled(true);
  counter->Add(5);
  EXPECT_EQ(counter->value(), 5);
}

TEST(DisabledModeTest, DisabledRecorderMakesSpansInactive) {
  TraceRecorder recorder;
  recorder.set_enabled(false);
  {
    TraceSpan span("test/off/span", &recorder);
    EXPECT_FALSE(span.active());
    EXPECT_DOUBLE_EQ(span.ElapsedMillis(), 0.0);
  }
  EXPECT_EQ(recorder.event_count(), 0u);
  const Json doc = recorder.ToChromeJson();
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

TEST(RegistryTest, ToJsonRoundTripsThroughParse) {
  MetricsRegistry registry;
  registry.counter("train/trainer/steps_total")->Add(7);
  registry.gauge("train/trainer/last_epoch_loss")->Set(0.25);
  registry.histogram("serving/model_server/latency_ms")->Observe(1.5);

  const Json doc = registry.ToJson();
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  const Json& back = parsed.value();
  EXPECT_TRUE(back.at("enabled").as_bool());
  EXPECT_DOUBLE_EQ(
      back.at("counters").at("train/trainer/steps_total").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(
      back.at("gauges").at("train/trainer/last_epoch_loss").as_number(),
      0.25);
  const Json& hist =
      back.at("histograms").at("serving/model_server/latency_ms");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 1.5);
}

TEST(RegistryTest, ToStringRendersTables) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToString(), "(no metrics recorded)\n");
  registry.counter("a/b/c")->Add(1);
  registry.histogram("a/b/ms")->Observe(2.0);
  const std::string table = registry.ToString();
  EXPECT_NE(table.find("a/b/c"), std::string::npos);
  EXPECT_NE(table.find("a/b/ms"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceTest, NestedSpansExportInParentFirstOrder) {
  TraceRecorder recorder;
  {
    TraceSpan outer("outer", &recorder);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner("inner", &recorder);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(recorder.event_count(), 2u);

  const Json doc = recorder.ToChromeJson();
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());  // Valid Chrome trace_event JSON.
  const Json::Array& events = parsed.value().at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "outer");
  EXPECT_EQ(events[1].at("name").as_string(), "inner");
  for (const Json& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_number(), 0.0);
  }
  // The parent both starts before and encloses the child.
  const double outer_ts = events[0].at("ts").as_number();
  const double outer_end = outer_ts + events[0].at("dur").as_number();
  const double inner_ts = events[1].at("ts").as_number();
  const double inner_end = inner_ts + events[1].at("dur").as_number();
  EXPECT_LT(outer_ts, inner_ts);
  EXPECT_GE(outer_end, inner_end);
}

TEST(TraceTest, TextTreeIndentsByDepth) {
  TraceRecorder recorder;
  {
    TraceSpan outer("outer", &recorder);
    TraceSpan inner("inner", &recorder);
  }
  const std::string tree = recorder.ToTextTree();
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("  inner"), std::string::npos);  // depth 1 => 2 spaces.
}

TEST(TraceTest, ConcurrentSpansLandInPerThreadBuffers) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder]() {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("worker", &recorder);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recorder.event_count(),
            static_cast<size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(recorder.dropped_count(), 0);
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(TraceTest, PerThreadCapCountsDropped) {
  TraceRecorder recorder;
  constexpr int64_t kExtra = 5;
  for (size_t i = 0; i < TraceRecorder::kMaxEventsPerThread + kExtra; ++i) {
    TraceEvent event;
    event.name = "e";
    recorder.Record(std::move(event));
  }
  EXPECT_EQ(recorder.event_count(), TraceRecorder::kMaxEventsPerThread);
  EXPECT_EQ(recorder.dropped_count(), kExtra);
  const Json doc = recorder.ToChromeJson();
  EXPECT_DOUBLE_EQ(doc.at("droppedEvents").as_number(),
                   static_cast<double>(kExtra));
}

TEST(TraceTest, RequestLinkedSpansCarryIdsAndFlowEvents) {
  TraceRecorder recorder;
  RequestContext ctx;
  ctx.trace_id = 0xabcdefULL;
  ctx.span_id = NextSpanId(0);
  ctx.trace = std::make_shared<RequestTrace>(ctx.trace_id, "s", 0.0);
  {
    TraceSpan parent("coordinator", ctx, &recorder);
    const RequestContext child_ctx = parent.context();
    EXPECT_EQ(child_ctx.trace_id, ctx.trace_id);
    EXPECT_NE(child_ctx.span_id, ctx.span_id);
    EXPECT_TRUE(child_ctx.sampled());
    TraceSpan child("dispatch", child_ctx, &recorder);
  }
  auto parsed = Json::Parse(recorder.ToChromeJson().Dump());
  ASSERT_TRUE(parsed.ok());
  const Json::Array& events = parsed.value().at("traceEvents").as_array();
  int x_events = 0;
  int flow_starts = 0;
  int flow_finishes = 0;
  for (const Json& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "X") {
      ++x_events;
      // Request-linked slices carry the trace id plus span lineage args.
      EXPECT_FALSE(e.at("id").as_string().empty());
      EXPECT_FALSE(e.at("args").at("trace").as_string().empty());
      EXPECT_FALSE(e.at("args").at("span").as_string().empty());
    } else if (ph == "s") {
      ++flow_starts;
      EXPECT_EQ(e.at("cat").as_string(), "alt_flow");
      EXPECT_EQ(e.at("name").as_string(), "request");
    } else if (ph == "f") {
      ++flow_finishes;
      EXPECT_EQ(e.at("bp").as_string(), "e");
    }
  }
  EXPECT_EQ(x_events, 2);
  // Exactly one parent→child edge: the child's flow pair. The outer span's
  // parent (the minted request root) has no recorded slice, so no edge.
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_finishes, 1);
}

TEST(TraceTest, ChromeJsonLimitKeepsMostRecentTail) {
  TraceRecorder recorder;
  for (int i = 0; i < 5; ++i) {
    TraceEvent event;
    event.name = "e" + std::to_string(i);
    event.ts_us = static_cast<double>(i);
    recorder.Record(std::move(event));
  }
  auto sliced = Json::Parse(recorder.ToChromeJson(2).Dump());
  ASSERT_TRUE(sliced.ok());
  const Json::Array& events = sliced.value().at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "e3");
  EXPECT_EQ(events[1].at("name").as_string(), "e4");
  EXPECT_DOUBLE_EQ(sliced.value().at("totalEvents").as_number(), 5.0);

  auto full = Json::Parse(recorder.ToChromeJson().Dump());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().at("traceEvents").as_array().size(), 5u);
  EXPECT_DOUBLE_EQ(full.value().at("totalEvents").as_number(), 5.0);
}

TEST(TraceTest, NextSpanIdIsNonZeroAndDistinct) {
  std::set<uint64_t> ids;
  uint64_t parent = 0;
  for (int i = 0; i < 100; ++i) {
    parent = NextSpanId(parent);
    EXPECT_NE(parent, 0u);
    ids.insert(parent);
  }
  EXPECT_EQ(ids.size(), 100u);
}

// ---------------------------------------------------------------------------
// Wiring: ServingClient / ParallelFor
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

TEST(WiringTest, ServingClientLatencyStatsViewsRequestHistogram) {
  MetricsRegistry registry;
  serving::ServingClient::Options topology;
  topology.num_shards = 2;
  serving::ServingClient client(topology, &registry);
  ASSERT_TRUE(client.Deploy("shop", TinyModel(11)).ok());
  ASSERT_TRUE(client.DeployEverywhere("f0", TinyModel(13)).ok());
  serving::ServingResilienceOptions resilience_options;
  resilience_options.fallback_scenario = "f0";
  resilience::FakeClock clock;
  client.EnableResilience(resilience_options, &clock);

  // Two direct requests and two enqueued ones, which may share one engine
  // call.
  const data::Batch batch = OneSample(12);
  ASSERT_TRUE(client.Predict("shop", batch).ok());
  ASSERT_TRUE(client.Predict("shop", batch).ok());
  auto first = client.EnqueuePredict("shop", batch.profiles, batch.behaviors);
  auto second = client.EnqueuePredict("shop", batch.profiles, batch.behaviors);
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  int64_t requests = 4;
#if !defined(ALT_FAULTS_DISABLED)
  // Every second model call faults: the direct request's primary call (2)
  // and the enqueued one's (4) fail, and f0 answers each through a second
  // plane call (3, 5). Each is still one request.
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  faults.Reset();
  resilience::FaultRule every_other;
  every_other.every_nth = 2;
  faults.Arm("serving/predict", every_other);
  ASSERT_TRUE(client.Predict("shop", batch).ok());
  ASSERT_TRUE(client.Predict("shop", batch).ok());
  ASSERT_TRUE(
      client.EnqueuePredict("shop", batch.profiles, batch.behaviors).get().ok());
  faults.Reset();
  EXPECT_EQ(registry.counter_value("serving/fallbacks"), 2);
  requests += 3;
#endif

  auto stats = client.GetLatencyStats("shop");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().num_requests, requests);
  EXPECT_GT(stats.value().mean_ms, 0.0);

  // The stats are literally the per-request histogram's summary.
  const HistogramSummary s =
      registry.histogram_summary("serving/request/latency_ms/shop");
  EXPECT_EQ(s.count, requests);
  EXPECT_DOUBLE_EQ(stats.value().mean_ms, s.mean);
  EXPECT_DOUBLE_EQ(stats.value().p99_ms, s.p99);
  EXPECT_DOUBLE_EQ(stats.value().max_ms, s.max);
  EXPECT_FALSE(client.GetLatencyStats("ghost").ok());
}

TEST(WiringTest, EngineCallsReportThroughRegistryAndTraces) {
  MetricsRegistry registry;
  TraceRecorder& global_trace = TraceRecorder::Global();
  if (global_trace.enabled()) global_trace.Clear();

  constexpr int kRequests = 32;
  {
    serving::ServingClient client(serving::ServingClient::Options{},
                                  &registry);
    ASSERT_TRUE(client.Deploy("shop", TinyModel(21)).ok());
    Rng rng(22);
    std::vector<std::future<Result<float>>> futures;
    for (int i = 0; i < kRequests; ++i) {
      std::vector<int64_t> behavior(5);
      for (auto& id : behavior) id = rng.UniformInt(0, 7);
      futures.push_back(
          client.EnqueuePredict("shop", Tensor::Randn({1, 4}, &rng), behavior));
    }
    int ok_count = 0;
    for (auto& f : futures) {
      if (f.get().ok()) ++ok_count;
    }
    EXPECT_EQ(ok_count, kRequests);
    EXPECT_EQ(registry.gauge_value("serving/shard/queue_depth/shard-0"), 0.0);

    // One observation per engine call, each of the requests it merged; every
    // request counted once however it was merged.
    const HistogramSummary calls =
        registry.histogram_summary("serving/batch_predictor/batch_size");
    EXPECT_GE(calls.count, 1);
    EXPECT_EQ(calls.sum, static_cast<double>(kRequests));
    EXPECT_EQ(registry.counter_value("serving/shard/requests/shard-0"),
              kRequests);
    // Every request's end-to-end latency was observed exactly once.
    EXPECT_EQ(
        registry.histogram_summary("serving/request/latency_ms/shop").count,
        kRequests);
  }

  // A real run's trace exports as valid Chrome trace_event JSON containing
  // the engine spans (shard worker thread) recorded via the global recorder.
  if (global_trace.enabled()) {
    auto parsed = Json::Parse(global_trace.ToChromeJson().Dump());
    ASSERT_TRUE(parsed.ok());
    const Json::Array& events = parsed.value().at("traceEvents").as_array();
    bool saw_predict = false;
    for (const Json& e : events) {
      EXPECT_EQ(e.at("ph").as_string(), "X");
      EXPECT_TRUE(e.contains("ts"));
      EXPECT_TRUE(e.contains("dur"));
      EXPECT_TRUE(e.contains("pid"));
      EXPECT_TRUE(e.contains("tid"));
      if (e.at("name").as_string() == "serving/model_server/predict") {
        saw_predict = true;
      }
    }
    EXPECT_TRUE(saw_predict);
  }
}

TEST(WiringTest, ParallelForFeedsShardImbalanceMetrics) {
  MetricsRegistry& global = MetricsRegistry::Global();
  if (!global.enabled()) GTEST_SKIP() << "ALT_OBS=off";
  const int64_t before = global.counter_value("util/parallel_for/regions_total");
  SetComputeThreads(4);
  std::vector<double> sink(1 << 12, 0.0);
  ParallelFor(0, static_cast<int64_t>(sink.size()), /*grain=*/64,
              [&sink](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) sink[static_cast<size_t>(i)] += 1.0;
              });
  SetComputeThreads(0);
  EXPECT_GT(global.counter_value("util/parallel_for/regions_total"), before);
}

}  // namespace
}  // namespace obs
}  // namespace alt
