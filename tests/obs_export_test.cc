// Tests for the telemetry export layer (src/obs/export.h, http_server.h,
// memory_tracker.h): Prometheus text-format grammar (HELP/TYPE blocks,
// monotone cumulative buckets, label escaping, the +Inf bucket invariant),
// the endpoint handlers, an end-to-end socket round trip during a small
// training run (alt_memory_peak_bytes must be live and positive), and a
// /healthz probe flipping unhealthy when injected serving faults open a
// ServingClient circuit breaker.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/obs/export.h"
#include "src/obs/http_server.h"
#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/obs/slo.h"
#include "src/resilience/fault_injection.h"
#include "src/resilience/clock.h"
#include "src/serving/serving_client.h"
#include "src/train/trainer.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace alt {
namespace obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// Naming scheme
// ---------------------------------------------------------------------------

TEST(PrometheusNameTest, FamilySplitAtThreeSegments) {
  EXPECT_EQ(PrometheusFamilyName("serving/model_server/latency_ms/s3"),
            "alt_serving_model_server_latency_ms");
  EXPECT_EQ(PrometheusFamilyName("memory/peak_bytes"),
            "alt_memory_peak_bytes");
  EXPECT_EQ(PrometheusFamilyName("train/trainer/steps_total"),
            "alt_train_trainer_steps_total");
}

TEST(PrometheusNameTest, SanitizesIllegalCharacters) {
  EXPECT_EQ(PrometheusFamilyName("a-b/c.d/e f"), "alt_a_b_c_d_e_f");
}

TEST(EscapeLabelValueTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(EscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
}

// ---------------------------------------------------------------------------
// Exposition grammar
// ---------------------------------------------------------------------------

TEST(RenderPrometheusTest, HelpAndTypePrecedeEveryFamily) {
  MetricsRegistry registry;
  registry.counter("serving/model_server/requests/a")->Add(3);
  registry.counter("serving/model_server/requests/b")->Add(5);
  registry.gauge("memory/peak_bytes")->Set(4096.0);
  registry.histogram("train/trainer/step_time_ms")->Observe(1.5);
  const std::string text = RenderPrometheus(registry.TakeSnapshot());

  const std::vector<std::string> lines = Lines(text);
  // Grammar: every sample line's family must have been introduced by a
  // "# HELP <family>" and "# TYPE <family>" line earlier in the text, and
  // each family is introduced exactly once.
  std::map<std::string, int> help_seen;
  std::map<std::string, int> type_seen;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    std::istringstream in(line);
    std::string first;
    in >> first;
    if (first == "#") {
      std::string kind, family;
      in >> kind >> family;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      (kind == "HELP" ? help_seen : type_seen)[family]++;
    } else {
      std::string family = first.substr(0, first.find('{'));
      // Histogram sample suffixes share the parent family's metadata.
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s(suffix);
        if (family.size() > s.size() &&
            family.compare(family.size() - s.size(), s.size(), s) == 0 &&
            help_seen.count(family) == 0) {
          family = family.substr(0, family.size() - s.size());
        }
      }
      EXPECT_EQ(help_seen[family], 1) << "no HELP before sample: " << line;
      EXPECT_EQ(type_seen[family], 1) << "no TYPE before sample: " << line;
    }
  }
  // Instances of one metric share a single family block with id labels.
  EXPECT_NE(text.find("alt_serving_model_server_requests{id=\"a\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alt_serving_model_server_requests{id=\"b\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("alt_memory_peak_bytes 4096"), std::string::npos);
}

TEST(RenderPrometheusTest, HistogramBucketsAreCumulativeAndMonotone) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("layer/component/metric",
                                    {1.0, 10.0, 100.0});
  const double samples[] = {0.5, 0.5, 5.0, 50.0, 500.0, 500.0, 500.0};
  double sum = 0.0;
  for (double s : samples) {
    h->Observe(s);
    sum += s;
  }
  const std::string text = RenderPrometheus(registry.TakeSnapshot());

  int64_t previous = -1;
  int64_t inf_value = -1;
  int64_t count_value = -1;
  double sum_value = -1.0;
  for (const std::string& line : Lines(text)) {
    if (line.rfind("alt_layer_component_metric_bucket", 0) == 0) {
      const int64_t v = std::atoll(
          line.substr(line.rfind(' ') + 1).c_str());
      EXPECT_GE(v, previous) << "buckets must be cumulative: " << line;
      previous = v;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = v;
    } else if (line.rfind("alt_layer_component_metric_count", 0) == 0) {
      count_value = std::atoll(line.substr(line.rfind(' ') + 1).c_str());
    } else if (line.rfind("alt_layer_component_metric_sum", 0) == 0) {
      sum_value = std::atof(line.substr(line.rfind(' ') + 1).c_str());
    }
  }
  EXPECT_EQ(inf_value, 7) << text;
  EXPECT_EQ(count_value, inf_value) << "+Inf bucket must equal _count";
  EXPECT_NEAR(sum_value, sum, 1e-9);
}

TEST(RenderPrometheusTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.counter("a/b/c/we\"ird\\id")->Add(1);
  const std::string text = RenderPrometheus(registry.TakeSnapshot());
  EXPECT_NE(text.find("alt_a_b_c{id=\"we\\\"ird\\\\id\"} 1"),
            std::string::npos)
      << text;
}

TEST(RenderPrometheusTest, PerScenarioLatencyRidesInEscapedIdLabel) {
  // ServingClient names per-scenario request-latency histograms
  // serving/request/latency_ms/<scenario>: the scenario is the fourth path
  // segment, so it lands in the (escaped) id label instead of minting a new
  // family per scenario.
  MetricsRegistry registry;
  registry.histogram("serving/request/latency_ms/we\"ird\\name")
      ->Observe(1.0);
  const std::string text = RenderPrometheus(registry.TakeSnapshot());
  EXPECT_NE(text.find("alt_serving_request_latency_ms_count"
                      "{id=\"we\\\"ird\\\\name\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("_bucket{id=\"we\\\"ird\\\\name\",le=\""),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Endpoint handlers (no sockets)
// ---------------------------------------------------------------------------

TEST(TelemetryServerTest, HandleDispatchesEndpoints) {
  MetricsRegistry registry;
  registry.counter("test/endpoint/hits")->Add(2);
  TelemetryServer::Options options;
  options.registry = &registry;
  auto server = TelemetryServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto metrics = server.value()->Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("alt_test_endpoint_hits 2"),
            std::string::npos);

  auto trace = server.value()->Handle("/trace");
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.content_type, "application/json");

  auto snapshot = server.value()->Handle("/snapshot");
  EXPECT_EQ(snapshot.status, 200);
  EXPECT_TRUE(Json::Parse(snapshot.body).ok());

  auto missing = server.value()->Handle("/nope");
  EXPECT_EQ(missing.status, 404);

  // Unset probes default to healthy/ready.
  EXPECT_EQ(server.value()->Handle("/healthz").status, 200);
  EXPECT_EQ(server.value()->Handle("/readyz").status, 200);

  // Endpoint hit counters: known endpoints only, arbitrary paths pool
  // under "other" so request paths cannot mint unbounded metrics.
  EXPECT_EQ(registry.counter_value("obs/telemetry_server/requests/metrics"),
            1);
  EXPECT_EQ(registry.counter_value("obs/telemetry_server/requests/other"),
            1);
  server.value()->Stop();
}

TEST(TelemetryServerTest, TraceLimitServesBoundedRecentSlice) {
  MetricsRegistry registry;
  TraceRecorder recorder;
  for (int i = 0; i < 6; ++i) {
    TraceEvent event;
    event.name = "e" + std::to_string(i);
    event.ts_us = static_cast<double>(i);
    recorder.Record(std::move(event));
  }
  TelemetryServer::Options options;
  options.registry = &registry;
  options.recorder = &recorder;
  auto server = TelemetryServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto sliced = server.value()->Handle("/trace?limit=2");
  EXPECT_EQ(sliced.status, 200);
  EXPECT_EQ(sliced.content_type, "application/json");
  auto doc = Json::Parse(sliced.body);
  ASSERT_TRUE(doc.ok());
  const Json::Array& events = doc.value().at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);  // Most recent tail.
  EXPECT_EQ(events[0].at("name").as_string(), "e4");
  EXPECT_EQ(events[1].at("name").as_string(), "e5");
  EXPECT_DOUBLE_EQ(doc.value().at("totalEvents").as_number(), 6.0);

  // limit=0 (and no limit) serve everything.
  auto full = Json::Parse(server.value()->Handle("/trace?limit=0").body);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().at("traceEvents").as_array().size(), 6u);

  auto bad = server.value()->Handle("/trace?limit=abc");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("bad limit"), std::string::npos);
  server.value()->Stop();
}

TEST(TelemetryServerTest, TraceSlowAndSloEndpointsServeWiredSources) {
  MetricsRegistry registry;
  TraceRecorder recorder;
  RequestTracer::Options tracer_options;
  tracer_options.sample_rate = 1.0;
  tracer_options.registry = &registry;
  tracer_options.recorder = &recorder;
  RequestTracer tracer(tracer_options);
  SloTracker::Options slo_options;
  slo_options.registry = &registry;
  SloTracker slo(slo_options);

  RequestContext ctx = tracer.StartRequest("s0");
  ASSERT_TRUE(ctx.sampled());
  ctx.trace->AddSegment(segment::kCompute, 1.0);
  tracer.CompleteRequest(ctx, Status::OK());
  slo.Record("s0", 2.0, true);

  TelemetryServer::Options options;
  options.registry = &registry;
  options.recorder = &recorder;
  options.tracer = &tracer;
  options.slo = &slo;
  auto server = TelemetryServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto slow = server.value()->Handle("/trace/slow");
  EXPECT_EQ(slow.status, 200);
  EXPECT_EQ(slow.content_type, "application/json");
  auto slow_doc = Json::Parse(slow.body);
  ASSERT_TRUE(slow_doc.ok());
  EXPECT_EQ(slow_doc.value().at("slow_traces").as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(slow_doc.value().at("traced_requests").as_number(), 1.0);

  auto slo_response = server.value()->Handle("/slo");
  EXPECT_EQ(slo_response.status, 200);
  auto slo_doc = Json::Parse(slo_response.body);
  ASSERT_TRUE(slo_doc.ok());
  ASSERT_TRUE(slo_doc.value().at("scenarios").contains("s0"));
  EXPECT_DOUBLE_EQ(
      slo_doc.value().at("scenarios").at("s0").at("total").as_number(), 1.0);

  // /metrics refreshes alt_slo_* burn gauges from the wired tracker.
  auto metrics = server.value()->Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("alt_slo_burn_short{id=\"s0\"}"),
            std::string::npos)
      << metrics.body.substr(0, 2000);
  server.value()->Stop();

  // Without wired sources the endpoints 404 instead of crashing.
  TelemetryServer::Options bare;
  bare.registry = &registry;
  bare.recorder = &recorder;
  auto bare_server = TelemetryServer::Start(bare);
  ASSERT_TRUE(bare_server.ok());
  EXPECT_EQ(bare_server.value()->Handle("/trace/slow").status, 404);
  EXPECT_EQ(bare_server.value()->Handle("/slo").status, 404);
  bare_server.value()->Stop();
}

TEST(TelemetryServerTest, MetricsSyncDroppedEventsWithoutDoubleCounting) {
  MetricsRegistry registry;
  TraceRecorder recorder;
  constexpr int64_t kExtra = 3;
  for (size_t i = 0; i < TraceRecorder::kMaxEventsPerThread + kExtra; ++i) {
    TraceEvent event;
    event.name = "e";
    recorder.Record(std::move(event));
  }
  ASSERT_EQ(recorder.dropped_count(), kExtra);

  TelemetryServer::Options options;
  options.registry = &registry;
  options.recorder = &recorder;
  auto server = TelemetryServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // The drop tally syncs into the counter as a delta: scraping twice must
  // not double-count.
  for (int scrape = 0; scrape < 2; ++scrape) {
    const auto response = server.value()->Handle("/metrics");
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("alt_trace_dropped_events 3"),
              std::string::npos)
        << "scrape " << scrape;
  }
  EXPECT_EQ(registry.counter_value("trace/dropped_events"), kExtra);
  server.value()->Stop();
}

// ---------------------------------------------------------------------------
// End-to-end: socket round trip during a real training run
// ---------------------------------------------------------------------------

/// Minimal HTTP/1.1 GET client against 127.0.0.1:`port`.
std::string HttpGet(int port, const std::string& path, int* status_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (status_out != nullptr) {
    *status_out = std::atoi(response.c_str() + response.find(' ') + 1);
  }
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

data::ScenarioData TinyScenario() {
  data::SyntheticConfig config;
  config.num_scenarios = 1;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {96};
  config.seed = 7;
  return data::SyntheticGenerator(config).GenerateScenario(0);
}

std::unique_ptr<models::BaseModel> TinyModel(uint64_t seed = 1) {
  models::ModelConfig c = models::ModelConfig::Light(
      models::EncoderKind::kLstm, 6, 8, 12);
  c.encoder_layers = 1;
  c.profile_hidden = {8};
  c.head_hidden = {8};
  Rng rng(seed);
  auto model = models::BuildBaseModel(c, &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(TelemetryServerTest, LiveMetricsDuringTrainingReportPeakMemory) {
  if (!MemoryTracker::Global().enabled()) {
    GTEST_SKIP() << "memory tracking off (ALT_OBS=off or compiled out)";
  }
  TelemetryServer::Options options;
  options.registry = &MetricsRegistry::Global();
  auto server = TelemetryServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  // A small but real training run: tensor allocations flow through the
  // tracking allocator under the "train" phase tag.
  auto model = TinyModel();
  train::TrainOptions train_options;
  train_options.epochs = 1;
  train_options.batch_size = 16;
  ASSERT_TRUE(train::TrainModel(model.get(), TinyScenario(), train_options)
                  .ok());

  int status = 0;
  const std::string body = HttpGet(port, "/metrics", &status);
  EXPECT_EQ(status, 200);
  double peak = -1.0;
  for (const std::string& line : Lines(body)) {
    if (line.rfind("alt_memory_peak_bytes ", 0) == 0) {
      peak = std::atof(line.substr(line.rfind(' ') + 1).c_str());
    }
  }
  EXPECT_GT(peak, 0.0) << "alt_memory_peak_bytes missing or zero";
  // The training phase tag accounted allocation volume.
  EXPECT_NE(body.find("alt_memory_phase_allocated_bytes{id=\"train\"}"),
            std::string::npos)
      << body.substr(0, 2000);
  server.value()->Stop();
}

// ---------------------------------------------------------------------------
// /healthz under injected serving faults
// ---------------------------------------------------------------------------

TEST(TelemetryServerTest, HealthzFlipsWhenBreakerOpens) {
  // Honor an external ALT_FAULTS (the check.sh telemetry stage sets
  // serving/predict=1); arm the same rule programmatically otherwise so the
  // test is self-contained.
  resilience::FaultInjector& faults = resilience::FaultInjector::Global();
  if (std::getenv("ALT_FAULTS") == nullptr) {
    resilience::FaultRule rule;
    rule.probability = 1.0;
    faults.Arm("serving/predict", rule);
  }

  MetricsRegistry registry;
  serving::ServingClient client(serving::ServingClient::Options{}, &registry);
  ASSERT_TRUE(client.Deploy("s0", TinyModel(3)).ok());
  serving::ServingResilienceOptions resilience_options;
  resilience_options.breaker.failure_threshold = 3;
  resilience::FakeClock clock;
  client.EnableResilience(resilience_options, &clock);

  // This test's own health probe: unhealthy while any serving breaker is
  // open. (core::AltSystem's /healthz is 503 only when a deployed scenario
  // has no live replica; it lists breakers in the body but is not judged
  // by them.)
  TelemetryServer::Options options;
  options.registry = &registry;
  options.health_fn = [&client]() {
    Json body = Json::Object{};
    bool healthy = true;
    for (const auto& [scenario, state] : client.BreakerStates()) {
      if (state == resilience::BreakerState::kOpen) healthy = false;
    }
    body["healthy"] = healthy;
    return body;
  };
  auto server = TelemetryServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  EXPECT_EQ(server.value()->Handle("/healthz").status, 200);

  // Every Predict fails via the injected fault; resilient serving degrades
  // to the constant prior (calls still succeed) while the breaker counts
  // failures and opens at the threshold.
  const data::ScenarioData data = TinyScenario();
  data::Batch probe = data::MakeBatch(data, {0});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Predict("s0", probe).ok());
  }
  const auto states = client.BreakerStates();
  ASSERT_EQ(states.count("s0"), 1u);
  ASSERT_EQ(states.at("s0"), resilience::BreakerState::kOpen);

  int status = 0;
  HttpGet(server.value()->port(), "/healthz", &status);
  EXPECT_EQ(status, 503) << "open breaker must surface on /healthz";

  faults.Reset();
  // Breaker recovery after the cooldown is ServingResilienceTest's; the
  // flip to unhealthy is the contract this probe exists for.
  server.value()->Stop();
}

// ---------------------------------------------------------------------------
// Malformed / partial requests over real sockets
// ---------------------------------------------------------------------------

/// Sends raw bytes (not necessarily valid HTTP) and returns the response
/// body. Half-closes the write side after sending so the server sees EOF
/// immediately instead of waiting out its request timeout on partial input.
std::string RawHttp(int port, const std::string& request, int* status_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (status_out != nullptr) {
    *status_out = response.empty()
                      ? 0
                      : std::atoi(response.c_str() + response.find(' ') + 1);
  }
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

TEST(TelemetryServerTest, MalformedRequestsGet4xxWithoutWedgingTheServer) {
  MetricsRegistry registry;
  TelemetryServer::Options options;
  options.registry = &registry;
  auto server = TelemetryServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  int status = 0;
  // Garbage request line.
  std::string body = RawHttp(port, "BOGUS\r\n\r\n", &status);
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("bad request line"), std::string::npos);

  // Well-formed HTTP, unsupported method.
  RawHttp(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n", &status);
  EXPECT_EQ(status, 400);

  // Partial request: header block never terminates; the half-close makes
  // the server see EOF and answer 400 instead of hanging.
  body = RawHttp(port, "GET /metrics HTTP/1.1\r\nHost: x\r\n", &status);
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("incomplete or oversized"), std::string::npos);

  // Oversized header blows the request size cap before ever completing.
  RawHttp(port,
          "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(9000, 'a') +
              "\r\n\r\n",
          &status);
  EXPECT_EQ(status, 400);

  // Unknown endpoint with a query string: a clean 404, not a parse error.
  body = RawHttp(port, "GET /nope?x=1&y HTTP/1.1\r\nHost: x\r\n\r\n",
                 &status);
  EXPECT_EQ(status, 404);
  EXPECT_NE(body.find("endpoints:"), std::string::npos);

  EXPECT_EQ(
      registry.counter_value("obs/telemetry_server/requests/bad_request"), 4);

  // The serving thread survived all of the above: a good request still
  // round-trips.
  const std::string metrics = HttpGet(port, "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("alt_obs_telemetry_server_requests"),
            std::string::npos);
  server.value()->Stop();
}

}  // namespace
}  // namespace obs
}  // namespace alt
