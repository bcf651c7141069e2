#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/nas/nas_search.h"
#include "src/obs/metrics.h"
#include "src/resilience/checkpoint.h"
#include "src/resilience/circuit_breaker.h"
#include "src/resilience/clock.h"
#include "src/resilience/fault_injection.h"
#include "src/resilience/retry.h"
#include "src/serving/model_server.h"
#include "src/serving/shard/coordinator.h"
#include "src/serving/serving_client.h"
#include "src/train/trainer.h"
#include "src/util/atomic_file.h"

namespace alt {
namespace resilience {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

RetryOptions NoJitterOptions() {
  RetryOptions options;
  options.initial_backoff_ms = 10.0;
  options.backoff_multiplier = 2.0;
  options.jitter_fraction = 0.0;
  return options;
}

TEST(RetryTest, ExactBackoffScheduleWithFakeClock) {
  RetryOptions options = NoJitterOptions();
  options.max_attempts = 4;
  FakeClock clock;
  RetryPolicy policy(options, &clock);
  int64_t calls = 0;
  Status status = policy.Run("op", [&]() {
    ++calls;
    return Status::Internal("boom");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 4);
  const std::vector<double> expected = {10.0, 20.0, 40.0};
  EXPECT_EQ(clock.sleeps_ms(), expected);
}

TEST(RetryTest, StopsRetryingOnSuccess) {
  RetryOptions options = NoJitterOptions();
  options.max_attempts = 5;
  FakeClock clock;
  RetryPolicy policy(options, &clock);
  int64_t calls = 0;
  Status status = policy.Run("op", [&]() {
    return ++calls < 3 ? Status::IOError("flaky") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  const std::vector<double> expected = {10.0, 20.0};
  EXPECT_EQ(clock.sleeps_ms(), expected);
}

TEST(RetryTest, NonRetryableFailsFast) {
  FakeClock clock;
  RetryPolicy policy(NoJitterOptions(), &clock);
  int64_t calls = 0;
  Status status = policy.Run("op", [&]() {
    ++calls;
    return Status::InvalidArgument("bad input");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps_ms().empty());
}

TEST(RetryTest, BackoffIsCapped) {
  RetryOptions options = NoJitterOptions();
  options.max_attempts = 4;
  options.backoff_multiplier = 10.0;
  options.max_backoff_ms = 50.0;
  FakeClock clock;
  RetryPolicy policy(options, &clock);
  Status status = policy.Run("op", [&]() { return Status::Internal("boom"); });
  EXPECT_FALSE(status.ok());
  const std::vector<double> expected = {10.0, 50.0, 50.0};
  EXPECT_EQ(clock.sleeps_ms(), expected);
}

TEST(RetryTest, JitterIsSeededAndBounded) {
  RetryOptions options = NoJitterOptions();
  options.jitter_fraction = 0.2;
  options.seed = 9;
  FakeClock clock;
  RetryPolicy a(options, &clock);
  RetryPolicy b(options, &clock);
  for (int64_t attempt = 1; attempt <= 3; ++attempt) {
    const double backoff_a = a.NextBackoffMs(attempt);
    EXPECT_DOUBLE_EQ(backoff_a, b.NextBackoffMs(attempt));
    const double nominal = 10.0 * std::pow(2.0, static_cast<double>(attempt - 1));
    EXPECT_GE(backoff_a, nominal * 0.8);
    EXPECT_LE(backoff_a, nominal * 1.2);
  }
}

TEST(RetryTest, AttemptDeadlineConvertsSlowSuccess) {
  RetryOptions options = NoJitterOptions();
  options.max_attempts = 2;
  options.attempt_deadline_ms = 5.0;
  FakeClock clock;
  clock.set_auto_advance_ms(10.0);  // Every attempt appears to take 10ms.
  RetryPolicy policy(options, &clock);
  int64_t calls = 0;
  Status status = policy.Run("op", [&]() {
    ++calls;
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, OverallDeadlineStopsBeforeSleeping) {
  RetryOptions options = NoJitterOptions();
  options.max_attempts = 5;
  options.overall_deadline_ms = 15.0;
  FakeClock clock;
  RetryPolicy policy(options, &clock);
  int64_t calls = 0;
  Status status = policy.Run("op", [&]() {
    ++calls;
    return Status::Internal("boom");
  });
  EXPECT_FALSE(status.ok());
  // Attempt 1 fails, sleeps 10ms (within budget); attempt 2 fails and the
  // next 20ms backoff would overrun 15ms total, so the call gives up.
  EXPECT_EQ(calls, 2);
  const std::vector<double> expected = {10.0};
  EXPECT_EQ(clock.sleeps_ms(), expected);
}

TEST(RetryTest, RunResultReturnsValueAndCountsInRegistry) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int64_t attempts_before =
      metrics.counter_value("resilience/retry/attempts_total");
  const int64_t retries_before =
      metrics.counter_value("resilience/retry/retries_total");
  RetryOptions options = NoJitterOptions();
  FakeClock clock;
  RetryPolicy policy(options, &clock);
  int64_t calls = 0;
  Result<int> result = policy.RunResult<int>("op", [&]() -> Result<int> {
    if (++calls < 2) return Status::Internal("flaky");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(metrics.counter_value("resilience/retry/attempts_total"),
            attempts_before + 2);
  EXPECT_EQ(metrics.counter_value("resilience/retry/retries_total"),
            retries_before + 1);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

CircuitBreakerOptions SmallBreakerOptions() {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_cooldown_ms = 100.0;
  options.close_successes = 2;
  return options;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  FakeClock clock;
  obs::MetricsRegistry registry;
  CircuitBreaker breaker("svc", SmallBreakerOptions(), &clock, &registry);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_DOUBLE_EQ(
      registry.gauge_value("resilience/circuit_breaker/state/svc"), 2.0);
  EXPECT_EQ(registry.counter_value("resilience/circuit_breaker/opens/svc"), 1);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  FakeClock clock;
  obs::MetricsRegistry registry;
  CircuitBreaker breaker("svc", SmallBreakerOptions(), &clock, &registry);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbesThenCloses) {
  FakeClock clock;
  obs::MetricsRegistry registry;
  CircuitBreaker breaker("svc", SmallBreakerOptions(), &clock, &registry);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  EXPECT_FALSE(breaker.AllowRequest());
  clock.Advance(100.0);
  EXPECT_TRUE(breaker.AllowRequest());  // Cooldown elapsed: probe admitted.
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  FakeClock clock;
  obs::MetricsRegistry registry;
  CircuitBreaker breaker("svc", SmallBreakerOptions(), &clock, &registry);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.Advance(100.0);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(registry.counter_value("resilience/circuit_breaker/opens/svc"), 2);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, EveryNthFiresDeterministically) {
  FaultInjector injector;
  FaultRule rule;
  rule.every_nth = 3;
  injector.Arm("unit/", rule);
  int64_t injected = 0;
  for (int call = 1; call <= 9; ++call) {
    const Status status = injector.Check("unit/op");
    if (!status.ok()) ++injected;
    EXPECT_EQ(status.ok(), call % 3 != 0) << "call " << call;
  }
  EXPECT_EQ(injected, 3);
  EXPECT_EQ(injector.call_count("unit/op"), 9);
  EXPECT_EQ(injector.injected_count("unit/op"), 3);
  EXPECT_EQ(injector.total_injected(), 3);
}

TEST(FaultInjectionTest, ProbabilityScheduleIsSeedDeterministic) {
  FaultRule rule;
  rule.probability = 0.3;
  auto schedule = [&rule](uint64_t seed) {
    FaultInjector injector;
    injector.SetSeed(seed);
    injector.Arm("unit/", rule);
    std::vector<bool> fires;
    for (int call = 0; call < 64; ++call) {
      fires.push_back(!injector.Check("unit/op").ok());
    }
    return fires;
  };
  const std::vector<bool> a = schedule(99);
  const std::vector<bool> b = schedule(99);
  const std::vector<bool> c = schedule(100);
  EXPECT_EQ(a, b);  // Same seed: identical replay.
  EXPECT_NE(a, c);  // Different seed: different schedule.
  const int64_t fired = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST(FaultInjectionTest, LongestArmedPrefixWins) {
  FaultInjector injector;
  FaultRule always;
  always.every_nth = 1;
  FaultRule every_second;
  every_second.every_nth = 2;
  injector.Arm("unit/", always);
  injector.Arm("unit/op", every_second);
  EXPECT_TRUE(injector.Check("unit/op").ok());    // Call 1 of every-2nd rule.
  EXPECT_FALSE(injector.Check("unit/op").ok());   // Call 2 fires.
  EXPECT_FALSE(injector.Check("unit/other").ok());  // Short prefix: always.
}

TEST(FaultInjectionTest, StatusCodeAndMessagePropagate) {
  FaultInjector injector;
  FaultRule rule;
  rule.every_nth = 1;
  rule.code = StatusCode::kIOError;
  rule.message = "disk gone";
  injector.Arm("unit/", rule);
  const Status status = injector.Check("unit/op");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("disk gone"), std::string::npos);
}

TEST(FaultInjectionTest, ArmFromSpecParsesTriggers) {
  FaultInjector injector;
  ASSERT_TRUE(injector.ArmFromSpec("always/=1,nth/=3,prob/=0.5").ok());
  EXPECT_FALSE(injector.Check("always/x").ok());
  EXPECT_TRUE(injector.Check("nth/x").ok());
  EXPECT_TRUE(injector.Check("nth/x").ok());
  EXPECT_FALSE(injector.Check("nth/x").ok());
  int64_t fired = 0;
  for (int call = 0; call < 64; ++call) {
    if (!injector.Check("prob/x").ok()) ++fired;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST(FaultInjectionTest, ArmFromSpecRejectsMalformedEntries) {
  FaultInjector injector;
  EXPECT_FALSE(injector.ArmFromSpec("nodelimiter").ok());
  EXPECT_FALSE(injector.ArmFromSpec("empty/=").ok());
  EXPECT_FALSE(injector.ArmFromSpec("=1").ok());
  EXPECT_FALSE(injector.ArmFromSpec("p/=2.5").ok());   // Probability > 1.
  EXPECT_FALSE(injector.ArmFromSpec("p/=0").ok());     // Non-positive.
  EXPECT_FALSE(injector.ArmFromSpec("p/=-1").ok());
  EXPECT_FALSE(injector.ArmFromSpec("p/=abc").ok());
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectionTest, ResetDisarmsAndClearsCounters) {
  FaultInjector injector;
  FaultRule rule;
  rule.every_nth = 1;
  injector.Arm("unit/", rule);
  EXPECT_FALSE(injector.Check("unit/op").ok());
  injector.Reset();
  EXPECT_FALSE(injector.armed());
  EXPECT_TRUE(injector.Check("unit/op").ok());
  EXPECT_EQ(injector.total_injected(), 0);
}

#if !defined(ALT_FAULTS_DISABLED)
TEST(FaultInjectionTest, FaultPointMacroConsultsGlobal) {
  FaultInjector& global = FaultInjector::Global();
  global.Reset();
  FaultRule rule;
  rule.every_nth = 1;
  global.Arm("testonly/", rule);
  EXPECT_FALSE(ALT_FAULT_POINT("testonly/op").ok());
  global.Reset();
  EXPECT_TRUE(ALT_FAULT_POINT("testonly/op").ok());
}
#endif  // !ALT_FAULTS_DISABLED

// ---------------------------------------------------------------------------
// AtomicWriteFile
// ---------------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(AtomicFileTest, FailedWriterLeavesPreviousContentIntact) {
  const std::string path = ::testing::TempDir() + "/alt_atomic_test.txt";
  ASSERT_TRUE(AtomicWriteFile(path, std::string("v1")).ok());
  EXPECT_EQ(ReadWholeFile(path), "v1");
  const Status failed = AtomicWriteFile(path, [](std::ostream* out) {
    *out << "partial garbage";
    return Status::Internal("writer died mid-stream");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(ReadWholeFile(path), "v1");  // Old content survives the failure.
  ASSERT_TRUE(AtomicWriteFile(path, std::string("v2")).ok());
  EXPECT_EQ(ReadWholeFile(path), "v2");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RoundTripPreservesMetaAndBlobs) {
  const std::string path = ::testing::TempDir() + "/alt_ckpt_test.altc";
  CheckpointBuilder builder;
  builder.mutable_meta()["kind"] = "test";
  builder.mutable_meta()["epoch"] = static_cast<int64_t>(3);
  const std::string binary = std::string("bin\0ary\xff", 8);
  builder.AddBlob("weights", binary);
  builder.AddBlob("rng", "stream state");
  ASSERT_TRUE(builder.WriteToFile(path).ok());

  auto reader = CheckpointReader::ReadFromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().meta().at("kind").as_string(), "test");
  EXPECT_EQ(reader.value().meta().at("epoch").as_int(), 3);
  EXPECT_TRUE(reader.value().has_blob("weights"));
  auto weights = reader.value().blob("weights");
  ASSERT_TRUE(weights.ok());
  EXPECT_EQ(weights.value(), binary);
  auto rng = reader.value().blob("rng");
  ASSERT_TRUE(rng.ok());
  EXPECT_EQ(rng.value(), "stream state");
  EXPECT_FALSE(reader.value().has_blob("missing"));
  EXPECT_EQ(reader.value().blob("missing").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto reader = CheckpointReader::ReadFromFile("/nonexistent/ckpt.altc");
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, GarbageFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/alt_ckpt_garbage.altc";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  auto reader = CheckpointReader::ReadFromFile(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ServingClient graceful degradation (and ShardCoordinator deploy retries)
// ---------------------------------------------------------------------------

data::SyntheticConfig SmallDataConfig() {
  data::SyntheticConfig config;
  config.num_scenarios = 2;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {200, 200};
  config.seed = 71;
  return config;
}

models::ModelConfig SmallModelConfig() {
  models::ModelConfig c =
      models::ModelConfig::Light(models::EncoderKind::kLstm, 6, 8, 12);
  c.encoder_layers = 1;
  c.profile_hidden = {8};
  c.head_hidden = {8};
  return c;
}

std::unique_ptr<models::BaseModel> SmallModel(uint64_t seed) {
  Rng rng(seed);
  auto model = models::BuildBaseModel(SmallModelConfig(), &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

serving::ServingResilienceOptions SmallResilience() {
  serving::ServingResilienceOptions options;
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown_ms = 50.0;
  options.breaker.close_successes = 1;
  options.fallback_scenario = "f0";
  options.fallback_prior = 0.25f;
  return options;
}

#if !defined(ALT_FAULTS_DISABLED)
TEST(ServingResilienceTest, PredictDegradesAndBreakerRecovers) {
  obs::MetricsRegistry registry;
  serving::ServingClient client(serving::ServingClient::Options{}, &registry);
  ASSERT_TRUE(client.Deploy("s1", SmallModel(1)).ok());
  ASSERT_TRUE(client.DeployEverywhere("f0", SmallModel(2)).ok());
  FakeClock clock;
  client.EnableResilience(SmallResilience(), &clock);
  data::SyntheticGenerator gen(SmallDataConfig());
  const data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));

  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();
  FaultRule always;
  always.every_nth = 1;
  faults.Arm("serving/predict", always);

  // Both the primary and the f0 fallback fault, so the degraded answer is
  // the constant prior — but the caller still gets a full, valid response.
  for (int call = 0; call < 3; ++call) {
    auto scores = client.Predict("s1", batch);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ASSERT_EQ(scores.value().size(), static_cast<size_t>(batch.batch_size));
    for (float score : scores.value()) EXPECT_FLOAT_EQ(score, 0.25f);
  }
  // failure_threshold = 2: the third call already found the breaker open.
  auto states = client.BreakerStates();
  ASSERT_EQ(states.count("s1"), 1u);
  EXPECT_EQ(states.at("s1"), BreakerState::kOpen);
  EXPECT_EQ(registry.counter_value("serving/fallbacks"), 3);

  // Faults cleared + cooldown elapsed: the half-open probe succeeds and the
  // breaker closes again, serving real model predictions.
  faults.Reset();
  clock.Advance(60.0);
  auto recovered = client.Predict("s1", batch);
  ASSERT_TRUE(recovered.ok());
  states = client.BreakerStates();
  ASSERT_EQ(states.count("s1"), 1u);
  EXPECT_EQ(states.at("s1"), BreakerState::kClosed);
  const std::vector<float> expected = SmallModel(1)->PredictProbs(batch);
  ASSERT_EQ(recovered.value().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_FLOAT_EQ(recovered.value()[i], expected[i]);
  }
}

TEST(ServingResilienceTest, DeployRetriesTransientFaults) {
  obs::MetricsRegistry registry;
  // One replica per scenario, so each deploy makes one copy.
  serving::shard::ShardCoordinator coordinator(
      serving::shard::CoordinatorOptions{}, &registry);
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();
  FaultRule every_other;
  every_other.every_nth = 2;  // Attempt 2 (and 4, ...) faults.
  faults.Arm("serving/deploy", every_other);
  serving::DeployOptions options;
  options.retry_transient = true;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 0.1;
  options.retry.max_backoff_ms = 0.5;
  // The first deploy consumes the injector's non-faulting slot; the second
  // starts on a faulting attempt and must retry its way through.
  EXPECT_TRUE(coordinator.Deploy("s0", SmallModel(2), options).ok());
  EXPECT_TRUE(coordinator.Deploy("s1", SmallModel(3), options).ok());
  faults.Reset();
  EXPECT_TRUE(coordinator.IsDeployed("s0"));
  EXPECT_TRUE(coordinator.IsDeployed("s1"));
}
#endif  // !ALT_FAULTS_DISABLED

TEST(ServingResilienceTest, UnknownScenarioFallsBackToDefault) {
  obs::MetricsRegistry registry;
  serving::ServingClient client(serving::ServingClient::Options{}, &registry);
  ASSERT_TRUE(client.DeployEverywhere("f0", SmallModel(2)).ok());
  data::SyntheticGenerator gen(SmallDataConfig());
  const data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  // Resilience off: unknown scenarios are an error.
  EXPECT_EQ(client.Predict("nope", batch).status().code(),
            StatusCode::kNotFound);

  serving::ServingResilienceOptions options = SmallResilience();
  options.default_scenario = "f0";
  FakeClock clock;
  client.EnableResilience(options, &clock);
  auto scores = client.Predict("nope", batch);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores.value().size(), static_cast<size_t>(batch.batch_size));
  EXPECT_EQ(registry.counter_value("serving/unknown_scenario_fallbacks"), 1);
}

TEST(ServingResilienceTest, PredictDeadlineCountsAndDegrades) {
  obs::MetricsRegistry registry;
  serving::ServingClient client(serving::ServingClient::Options{}, &registry);
  ASSERT_TRUE(client.Deploy("s1", SmallModel(1)).ok());
  serving::ServingResilienceOptions options = SmallResilience();
  options.fallback_scenario.clear();  // Straight to the constant prior.
  options.predict_deadline_ms = 5.0;
  FakeClock clock;
  client.EnableResilience(options, &clock);
  clock.set_auto_advance_ms(10.0);  // Every Predict appears to take 10ms.
  data::SyntheticGenerator gen(SmallDataConfig());
  const data::Batch batch = MakeFullBatch(gen.GenerateScenario(0));
  auto scores = client.Predict("s1", batch);
  ASSERT_TRUE(scores.ok());
  for (float score : scores.value()) EXPECT_FLOAT_EQ(score, 0.25f);
  EXPECT_EQ(registry.counter_value("serving/predict_deadline_exceeded"), 1);
  EXPECT_EQ(registry.counter_value("serving/fallbacks"), 1);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: Trainer
// ---------------------------------------------------------------------------

TEST(TrainerResumeTest, ResumedRunMatchesUninterruptedRun) {
  data::SyntheticGenerator gen(SmallDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(0);
  train::TrainOptions base;
  base.epochs = 4;
  base.batch_size = 32;
  base.seed = 11;

  auto uninterrupted = SmallModel(7);
  auto full_report = train::TrainModel(uninterrupted.get(), scenario, base);
  ASSERT_TRUE(full_report.ok()) << full_report.status().ToString();

  const std::string path = ::testing::TempDir() + "/alt_trainer_resume.altc";
  std::remove(path.c_str());
  // "Killed" run: only 2 of 4 epochs before the process dies.
  auto interrupted = SmallModel(7);
  train::TrainOptions first_half = base;
  first_half.epochs = 2;
  first_half.checkpoint_path = path;
  ASSERT_TRUE(train::TrainModel(interrupted.get(), scenario, first_half).ok());

  // Fresh process: a new model object resumes from the checkpoint and runs
  // to completion. Everything (weights, Adam moments, RNG streams) restores,
  // so the result is bit-identical to the uninterrupted run.
  auto resumed = SmallModel(7);
  train::TrainOptions second_half = base;
  second_half.checkpoint_path = path;
  second_half.resume = true;
  auto resumed_report = train::TrainModel(resumed.get(), scenario, second_half);
  ASSERT_TRUE(resumed_report.ok()) << resumed_report.status().ToString();

  EXPECT_EQ(resumed_report.value().epochs_run, 4);
  EXPECT_DOUBLE_EQ(resumed_report.value().final_epoch_loss,
                   full_report.value().final_epoch_loss);
  EXPECT_DOUBLE_EQ(resumed_report.value().first_epoch_loss,
                   full_report.value().first_epoch_loss);
  const data::Batch batch = MakeFullBatch(scenario);
  const std::vector<float> p_full = uninterrupted->PredictProbs(batch);
  const std::vector<float> p_resumed = resumed->PredictProbs(batch);
  ASSERT_EQ(p_full.size(), p_resumed.size());
  for (size_t i = 0; i < p_full.size(); ++i) {
    EXPECT_FLOAT_EQ(p_full[i], p_resumed[i]) << "sample " << i;
  }
  std::remove(path.c_str());
}

TEST(TrainerResumeTest, CompletedCheckpointShortCircuits) {
  data::SyntheticGenerator gen(SmallDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(1);
  const std::string path = ::testing::TempDir() + "/alt_trainer_done.altc";
  std::remove(path.c_str());
  train::TrainOptions options;
  options.epochs = 2;
  options.batch_size = 32;
  options.seed = 12;
  options.checkpoint_path = path;
  auto model = SmallModel(8);
  auto report = train::TrainModel(model.get(), scenario, options);
  ASSERT_TRUE(report.ok());
  // Re-running with resume on an already-complete checkpoint trains nothing
  // further and reports the recorded progress.
  options.resume = true;
  auto rerun = train::TrainModel(model.get(), scenario, options);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun.value().epochs_run, 2);
  EXPECT_DOUBLE_EQ(rerun.value().final_epoch_loss,
                   report.value().final_epoch_loss);
  std::remove(path.c_str());
}

TEST(TrainerResumeTest, MissingCheckpointIsCleanStart) {
  data::SyntheticGenerator gen(SmallDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(1);
  const std::string path = ::testing::TempDir() + "/alt_trainer_missing.altc";
  std::remove(path.c_str());
  train::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 32;
  options.seed = 13;
  options.checkpoint_path = path;
  options.resume = true;  // Nothing to resume: behaves like a fresh run.
  auto model = SmallModel(9);
  auto report = train::TrainModel(model.get(), scenario, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().epochs_run, 1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: NAS search
// ---------------------------------------------------------------------------

TEST(NasResumeTest, ResumedSearchDerivesSameArchitecture) {
  data::SyntheticGenerator gen(SmallDataConfig());
  const data::ScenarioData scenario = gen.GenerateScenario(0);
  models::ModelConfig light = SmallModelConfig();
  nas::NasSearchOptions base;
  base.supernet.num_layers = 2;
  base.search_epochs = 2;
  base.batch_size = 32;
  base.final_train.epochs = 1;
  base.seed = 17;
  // The tau anneal schedule is a function of the configured total epochs. A
  // real kill+resume keeps the options (and thus the schedule) identical;
  // this in-process simulation of the kill runs a 1-epoch search first, so
  // pin tau to keep its epoch-0 steps identical to the full run's.
  base.tau_start = base.tau_end = 1.0;

  nas::NasSearchReport full_report;
  auto full = nas::SearchLightModel(light, scenario, base, &full_report);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  const std::string path = ::testing::TempDir() + "/alt_nas_resume.altc";
  std::remove(path.c_str());
  // "Killed" search: one of two supernet epochs before the process dies.
  nas::NasSearchOptions first_half = base;
  first_half.search_epochs = 1;
  first_half.checkpoint_path = path;
  nas::NasSearchReport ignored;
  ASSERT_TRUE(
      nas::SearchLightModel(light, scenario, first_half, &ignored).ok());

  nas::NasSearchOptions second_half = base;
  second_half.checkpoint_path = path;
  second_half.resume = true;
  nas::NasSearchReport resumed_report;
  auto resumed =
      nas::SearchLightModel(light, scenario, second_half, &resumed_report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  EXPECT_EQ(resumed_report.arch.ToJson().Dump(),
            full_report.arch.ToJson().Dump());
  EXPECT_EQ(resumed_report.encoder_flops, full_report.encoder_flops);
  EXPECT_DOUBLE_EQ(resumed_report.supernet_val_auc,
                   full_report.supernet_val_auc);
  const data::Batch batch = MakeFullBatch(scenario);
  const std::vector<float> p_full = full.value()->PredictProbs(batch);
  const std::vector<float> p_resumed = resumed.value()->PredictProbs(batch);
  ASSERT_EQ(p_full.size(), p_resumed.size());
  for (size_t i = 0; i < p_full.size(); ++i) {
    EXPECT_FLOAT_EQ(p_full[i], p_resumed[i]) << "sample " << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: what the shared loop step rejects
// ---------------------------------------------------------------------------

/// One training loop as the checkpoint step sees it: its kind, its blobs,
/// and a one-epoch run that checkpoints to `path` (resuming from it when
/// asked).
struct CheckpointedLoop {
  std::string kind;
  std::vector<std::string> blobs;
  std::function<Status(const std::string& path, bool resume)> run;
};

std::vector<CheckpointedLoop> CheckpointedLoops() {
  const data::ScenarioData scenario =
      data::SyntheticGenerator(SmallDataConfig()).GenerateScenario(0);
  CheckpointedLoop trainer{
      "trainer",
      {"weights", "adam", "rng", "dropout_rng"},
      [scenario](const std::string& path, bool resume) {
        train::TrainOptions options;
        options.epochs = 1;
        options.batch_size = 32;
        options.checkpoint_path = path;
        options.resume = resume;
        return train::TrainModel(SmallModel(7).get(), scenario, options)
            .status();
      }};
  CheckpointedLoop search{
      "nas_search",
      {"weights", "weight_opt", "arch_opt", "batch_rng", "dropout_rng",
       "sample_rng"},
      [scenario](const std::string& path, bool resume) {
        nas::NasSearchOptions options;
        options.supernet.num_layers = 2;
        options.search_epochs = 1;
        options.batch_size = 32;
        options.final_train.epochs = 1;
        options.checkpoint_path = path;
        options.resume = resume;
        return nas::SearchLightModel(SmallModelConfig(), scenario, options,
                                     nullptr)
            .status();
      }};
  return {trainer, search};
}

/// Rewrites the checkpoint at `path` with blob `name` set to `bytes`, or
/// without it when `bytes` is nullopt; `blobs` names every blob it has.
void RewriteBlob(const std::string& path,
                 const std::vector<std::string>& blobs,
                 const std::string& name,
                 const std::optional<std::string>& bytes) {
  auto reader = CheckpointReader::ReadFromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  CheckpointBuilder builder;
  builder.set_meta(reader.value().meta());
  for (const std::string& blob : blobs) {
    if (blob != name) {
      builder.AddBlob(blob, reader.value().blob(blob).value());
    } else if (bytes.has_value()) {
      builder.AddBlob(blob, *bytes);
    }
  }
  ASSERT_TRUE(builder.WriteToFile(path).ok());
}

TEST(LoopCheckpointTest, SaveFailureLeavesTheRunGoing) {
  for (const CheckpointedLoop& loop : CheckpointedLoops()) {
    EXPECT_TRUE(loop.run("/nonexistent/dir/ckpt.altc", false).ok())
        << loop.kind;
  }
}

TEST(LoopCheckpointTest, RestoreRejectsBadCheckpointsWithAStatus) {
  const std::vector<CheckpointedLoop> loops = CheckpointedLoops();
  for (const CheckpointedLoop& loop : loops) {
    const std::string path =
        ::testing::TempDir() + "/alt_loop_" + loop.kind + ".altc";
    std::remove(path.c_str());
    ASSERT_TRUE(loop.run(path, false).ok()) << loop.kind;
    ASSERT_TRUE(loop.run(path, true).ok()) << loop.kind;
    // Another loop's file.
    for (const CheckpointedLoop& other : loops) {
      if (other.kind == loop.kind) continue;
      EXPECT_EQ(other.run(path, true).code(), StatusCode::kInvalidArgument)
          << loop.kind << " checkpoint resumed by " << other.kind;
    }
    auto reader = CheckpointReader::ReadFromFile(path);
    ASSERT_TRUE(reader.ok());
    for (const std::string& blob : loop.blobs) {
      const std::string whole = reader.value().blob(blob).value();
      // A corrupt blob (an RNG stream that does not parse, weights or Adam
      // moments without their magic), then a missing one.
      RewriteBlob(path, loop.blobs, blob, std::string("not a state"));
      EXPECT_FALSE(loop.run(path, true).ok()) << loop.kind << " " << blob;
      RewriteBlob(path, loop.blobs, blob, std::nullopt);
      EXPECT_FALSE(loop.run(path, true).ok()) << loop.kind << " " << blob;
      RewriteBlob(path, loop.blobs, blob, whole);
      EXPECT_TRUE(loop.run(path, true).ok()) << loop.kind << " " << blob;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace resilience
}  // namespace alt
