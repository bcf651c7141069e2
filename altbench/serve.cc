// serve_tail and serve_bulk: the serving plane seen by its callers.
//
// serve_tail is an open loop: seeded Poisson arrivals of single-row
// EnqueuePredict requests, Zipf(1.07) over 120 light scenario models on 3
// shards with replication 2, f0 deployed everywhere as the fallback the way
// AltSystem::StartResilientServing does it, and a control thread that
// redeploys identical weights at a fixed cadence. It reports latency at a
// fixed reference rate and the highest rate of a fixed ladder that meets
// the latency limit.
//
// serve_bulk is a closed loop: 2 caller threads send synchronous 64-row
// Predict calls over heavy LSTM and BERT models, half deployed int8, each
// model once per cycle in a seeded shuffled order. The micro-batcher is
// bypassed, so the model forward dominates.
//
// Every served score is checked bit for bit against PredictProbs on a
// reference copy of the same model (QuantizeForServing()'d for int8
// deploys). An answer that equals the f0 fallback's score or the constant
// prior is a failed request; any other difference is an incorrect output.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/serving_client.h"
#include "src/util/logging.h"
#include "workloads.h"

namespace altbench {
namespace {

using alt::models::BaseModel;
using alt::models::EncoderKind;
using alt::models::ModelConfig;
using alt::obs::MetricsRegistry;
using alt::serving::ServingClient;

constexpr int64_t kProfileDim = 24;
constexpr int64_t kSeqLen = 16;
constexpr int64_t kVocab = 40;
constexpr int64_t kPoolRows = 64;
constexpr float kFallbackPrior = 0.5f;
/// Set-ups an untraced run makes; setup_s is their median. A serving
/// set-up takes ~0.1-0.2 s, so it repeats often enough to steady the median.
constexpr int kServeSetupRepeats = 11;
const char* const kFallbackScenario = "f0";

// serve_tail plane and load. Rates are absolute constants, the same for
// every commit; the ladder reaches several times the plane's saturation at
// the time the benchmark was written (~2300 req/s), so a faster plane shows.
constexpr int kTailScenarios = 120;
constexpr int kTailShards = 3;
constexpr int kTailReplication = 2;
constexpr double kZipfS = 1.07;
constexpr double kReferenceRate = 1000.0;
constexpr double kLatencyLimitMs = 50.0;
/// Rungs above the reference rate, which is the ladder's first rung.
const double kLadder[] = {1150, 1300, 1500, 1700, 2000, 2300, 2600,
                          3000, 3500, 4000, 4600, 5300, 6100, 7000, 8000};
/// Open-loop traffic before the timed reference phase.
constexpr double kWarmupS = 1.0;
/// Each ladder step lasts long enough for this many requests (its p99 has
/// ~24 samples beyond), and at least kMinStepS.
constexpr double kStepSamples = 2400.0;
constexpr double kMinStepS = 0.5;
constexpr double kRedeployEveryS = 0.1;
/// Longest a completion waits for the collector to notice it.
constexpr std::chrono::microseconds kCollectorWait{100};

// serve_bulk plane and load.
constexpr int kBulkShards = 2;
constexpr int kBulkReplication = 2;
constexpr int kBulkCallers = 2;
constexpr int64_t kBulkRows = 64;
constexpr int kBulkBatches = 4;

std::string TailName(int rank) { return "tail_" + std::to_string(rank); }

uint64_t ModelSeed(uint64_t seed, int index) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index);
  return SplitMix64(&state);
}

/// How a served answer compares with the reference.
enum class Verdict { kOk, kFailed, kFallback, kMismatch };

Verdict Judge(bool ok, float served, float reference, float f0_reference) {
  if (!ok) return Verdict::kFailed;
  if (SameBits(served, reference)) return Verdict::kOk;
  if (SameBits(served, f0_reference) || SameBits(served, kFallbackPrior)) {
    return Verdict::kFallback;
  }
  return Verdict::kMismatch;
}

std::vector<int64_t> ShardServed(ServingClient* client) {
  std::vector<int64_t> out;
  for (const std::string& id : client->ShardIds()) {
    const auto* shard = client->coordinator()->shard(id);
    out.push_back(shard == nullptr ? 0 : shard->RequestsServed());
  }
  return out;
}

double LoadImbalance(const std::vector<int64_t>& before,
                     const std::vector<int64_t>& after) {
  double max = 0.0, sum = 0.0;
  for (size_t i = 0; i < after.size(); ++i) {
    const double d = static_cast<double>(after[i] - before[i]);
    max = std::max(max, d);
    sum += d;
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(after.size())) : 0.0;
}

/// Serving-plane per-layer metrics from a traced client's private registry.
void ReportPlaneLayers(const MetricsRegistry& registry, LayerReport* layers) {
  const auto seg = [&](const char* s) {
    return registry.histogram_summary(std::string("serving/trace/segment_ms/") + s);
  };
  const auto batch = registry.histogram_summary("serving/batch_predictor/batch_size");
  layers->Set("serving.batch_predictor.rows_per_flush", batch.mean);
  layers->Set("serving.batch_predictor.batch_wait_ms", seg("batch_wait").p50);
  layers->Set("serving.shard.queue_wait_ms.p50", seg("queue_wait").p50);
  layers->Set("serving.shard.queue_wait_ms.p99", seg("queue_wait").p99);
  layers->Set("serving.coordinator.route_us", seg("route").p50 * 1e3);
  layers->Set("serving.coordinator.broadcast_ms",
              registry.histogram_summary("serving/coordinator/broadcast_ms").p50);
  layers->Set("serving.model_server.compute_ms", seg("compute").p50);
  layers->Set("serving.failovers",
              static_cast<double>(
                  registry.counter_value("serving/coordinator/failovers")));
  layers->Set("serving.fallbacks",
              static_cast<double>(registry.counter_value("serving/fallbacks")));
  layers->Set("serving.shed", static_cast<double>(registry.counter_value(
                                  "serving/admission/shed")));
  const double total =
      HistogramSumWithPrefix(registry, "serving/request/latency_ms/");
  const double covered =
      HistogramSumWithPrefix(registry, "serving/trace/segment_ms/");
  layers->Set("serving.unattributed_frac",
              total > 0.0 ? 1.0 - covered / total : 0.0);
}

// ---------------------------------------------------------------------------
// serve_tail

struct TailInputs {
  ModelConfig light;
  ModelConfig heavy;
  std::vector<uint64_t> seeds;  // Per scenario rank.
  uint64_t f0_seed = 0;
  RequestPool pool;
  /// ref[rank][row] and f0_ref[row]: PredictProbs on reference copies.
  std::vector<std::vector<float>> ref;
  std::vector<float> f0_ref;
  std::vector<double> zipf_cdf;
  int64_t light_flops = 0;
};

struct TailPlane {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<ServingClient> client;
};

/// Set-up: plane, deploys, fallback, warm-up. Returns what it cost.
Cost SetUpTailPlane(const TailInputs& in, bool traced, TailPlane* plane,
                    RunOutput* out) {
  // The previous plane is torn down off the clock.
  plane->client.reset();
  plane->registry.reset();
  const CostTimer timer;
  plane->registry = std::make_unique<MetricsRegistry>();
  ServingClient::Options options;
  options.num_shards = kTailShards;
  options.replication = kTailReplication;
  options.trace.sample_rate = traced ? 1.0 : 0.0;
  options.trace.seed = 17;
  plane->client =
      std::make_unique<ServingClient>(options, plane->registry.get());
  ServingClient* client = plane->client.get();
  for (int s = 0; s < kTailScenarios; ++s) {
    const alt::Status st =
        client->Deploy(TailName(s), BuildModel(in.light, in.seeds[s]));
    if (!st.ok()) out->Incorrect("deploy " + TailName(s) + ": " + st.ToString());
  }
  // As AltSystem::StartResilientServing: f0 everywhere, then resilience.
  alt::serving::ServingResilienceOptions resilience;
  resilience.fallback_scenario = kFallbackScenario;
  resilience.fallback_prior = kFallbackPrior;
  const alt::Status f0 = client->DeployEverywhere(
      kFallbackScenario, BuildModel(in.heavy, in.f0_seed));
  if (!f0.ok()) out->Incorrect("deploy f0: " + f0.ToString());
  client->EnableResilience(resilience);
  // Warm-up: every scenario answers one synchronous single-row Predict,
  // checked. The batcher's timing decides how EnqueuePredict calls
  // coalesce, so they would make the set-up's work vary from run to run;
  // the open-loop warm-up before the timed phase covers that path.
  for (int s = 0; s < kTailScenarios; ++s) {
    const int row = s % static_cast<int>(kPoolRows);
    auto r = client->Predict(TailName(s), PoolSlice(in.pool, row, 1));
    const bool ok = r.ok() && r.value().size() == 1;
    const Verdict v = Judge(ok, ok ? r.value()[0] : 0.0f, in.ref[s][row],
                            in.f0_ref[row]);
    if (v == Verdict::kMismatch) out->Incorrect("warm-up mismatch " + TailName(s));
  }
  return timer.Elapsed();
}

/// One redeploy the control thread makes: identical weights again.
struct Redeploy {
  std::string scenario;
  std::unique_ptr<BaseModel> model;
  alt::serving::DeployOptions options;
};

/// Control thread: redeploys identical weights round-robin at a fixed
/// cadence, timing each Deploy call. `next(i)` builds the i-th redeploy off
/// the clock; its CPU time is the benchmark's and is kept apart from the
/// program's. Stop() joins the thread and adds its deploys to `out`'s
/// counts.
class Redeployer {
 public:
  struct Outcome {
    std::vector<double> deploy_ms;  // Wall time of every successful Deploy.
    double build_cpu_s = 0.0;       // Thread CPU spent building models.
  };

  Redeployer(ServingClient* client, std::function<Redeploy(int)> next)
      : client_(client), next_(std::move(next)), thread_([this] { Loop(); }) {}
  ~Redeployer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  Redeployer(const Redeployer&) = delete;
  Redeployer& operator=(const Redeployer&) = delete;

  Outcome Stop(RunOutput* out) {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    out->attempted += attempted_;
    out->failed += failed_;
    return outcome_;
  }

 private:
  void Loop() {
    double next = NowSeconds() + kRedeployEveryS;
    for (int i = 0; !stop_.load(); ++i) {
      const double build0 = ThreadCpuSeconds();
      Redeploy r = next_(i);
      outcome_.build_cpu_s += ThreadCpuSeconds() - build0;
      SleepUntil(next);
      next += kRedeployEveryS;
      if (stop_.load()) break;
      const double t0 = NowSeconds();
      const alt::Status st =
          client_->Deploy(r.scenario, std::move(r.model), r.options);
      const double ms = (NowSeconds() - t0) * 1e3;
      ++attempted_;
      if (st.ok()) {
        outcome_.deploy_ms.push_back(ms);
      } else {
        ++failed_;
      }
    }
  }

  ServingClient* client_;
  std::function<Redeploy(int)> next_;
  std::atomic<bool> stop_{false};
  // Written by the thread only, read after it is joined.
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  Outcome outcome_;
  std::thread thread_;  // Last: starts after the members it uses.
};

/// Outcome of one open-loop phase.
struct OpenLoopResult {
  std::vector<double> latency_ms;  // From intended send, in send order.
  std::vector<double> send_latency_ms;  // From actual send.
  std::vector<double> late_ms;
  std::vector<double> enqueue_us;
  std::vector<Verdict> verdicts;
  int64_t in_flight_at_end = 0;
  int64_t failed = 0;
  int64_t fallbacks = 0;
  int64_t mismatches = 0;
  double collector_cpu_s = 0.0;  // The collector thread's own CPU time.
};

/// Sends `schedule` from this thread at its intended times; a collector
/// thread stamps completions by polling for ready futures, so a slow
/// request never delays the stamp of a faster one behind it.
OpenLoopResult RunOpenLoop(ServingClient* client, const TailInputs& in,
                           const std::vector<Arrival>& schedule,
                           SpanLog* spans) {
  const size_t n = schedule.size();
  OpenLoopResult res;
  std::vector<double> due(n), sent(n), done(n);
  std::vector<float> score(n, 0.0f);
  std::vector<char> ok(n, 0);
  res.enqueue_us.resize(n);

  struct Pending {
    size_t index;
    std::future<alt::Result<float>> future;
  };
  std::mutex inbox_mu;
  std::vector<Pending> inbox;
  std::atomic<bool> sending_done{false};
  std::atomic<int64_t> completed{0};

  // Completions are stamped by polling every outstanding future, never by
  // get() in send order, so a slow request cannot delay the stamp of a
  // faster one sent after it. Between sweeps the collector blocks briefly
  // on the oldest outstanding request.
  std::thread collector([&] {
    const double own0 = ThreadCpuSeconds();
    std::vector<Pending> active;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(inbox_mu);
        for (Pending& p : inbox) active.push_back(std::move(p));
        inbox.clear();
      }
      if (active.empty()) {
        if (sending_done.load()) {
          std::lock_guard<std::mutex> lock(inbox_mu);
          if (inbox.empty()) break;
        }
        std::this_thread::sleep_for(kCollectorWait);
        continue;
      }
      active.front().future.wait_for(kCollectorWait);
      for (size_t k = 0; k < active.size();) {
        if (active[k].future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        const double now = NowSeconds();
        alt::Result<float> r = active[k].future.get();
        const size_t i = active[k].index;
        done[i] = now;
        ok[i] = r.ok() ? 1 : 0;
        if (r.ok()) score[i] = r.value();
        completed.fetch_add(1);
        // Keep send order so the front stays the oldest request.
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
    res.collector_cpu_s = ThreadCpuSeconds() - own0;
  });

  std::vector<double> intended(n);
  for (size_t i = 0; i < n; ++i) intended[i] = schedule[i].at_s;
  const double t0 = NowSeconds() + 0.002;
  res.late_ms = PaceSends(intended, t0, [&](size_t i, double due_abs) {
    const Arrival& a = schedule[i];
    due[i] = due_abs;
    sent[i] = NowSeconds();
    auto future = client->EnqueuePredict(TailName(a.scenario),
                                         in.pool.profiles[a.row],
                                         in.pool.behaviors[a.row]);
    res.enqueue_us[i] = (NowSeconds() - sent[i]) * 1e6;
    std::lock_guard<std::mutex> lock(inbox_mu);
    inbox.push_back({i, std::move(future)});
  });
  res.in_flight_at_end = static_cast<int64_t>(n) - completed.load();
  sending_done.store(true);
  collector.join();

  res.latency_ms.resize(n);
  res.send_latency_ms.resize(n);
  res.verdicts.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Arrival& a = schedule[i];
    res.latency_ms[i] = IntendedLatencyMs(due[i], done[i]);
    res.send_latency_ms[i] = (done[i] - sent[i]) * 1e3;
    const Verdict v = Judge(ok[i] != 0, score[i], in.ref[a.scenario][a.row],
                            in.f0_ref[a.row]);
    res.verdicts[i] = v;
    if (v == Verdict::kFailed) ++res.failed;
    if (v == Verdict::kFallback) ++res.fallbacks;
    if (v == Verdict::kMismatch) ++res.mismatches;
    if (spans != nullptr) {
      const uint64_t id = spans->NextId();
      spans->Add({"bench/request", id, 0, due[i] * 1e6, done[i] * 1e6});
      spans->Add({"bench/enqueue_predict", spans->NextId(), id, sent[i] * 1e6,
                  sent[i] * 1e6 + res.enqueue_us[i]});
    }
  }
  return res;
}

/// Latency sample where a failed or fallback-answered request misses any
/// limit.
std::vector<double> LimitSample(const OpenLoopResult& r) {
  std::vector<double> out = r.latency_ms;
  for (size_t i = 0; i < out.size(); ++i) {
    if (r.verdicts[i] != Verdict::kOk) out[i] = INFINITY;
  }
  return out;
}

void Account(const OpenLoopResult& r, RunOutput* out) {
  out->attempted += static_cast<int64_t>(r.verdicts.size());
  out->failed += r.failed + r.fallbacks + r.mismatches;
  if (r.mismatches > 0) {
    out->Incorrect(std::to_string(r.mismatches) +
                   " served scores differ from the reference");
  }
}

/// One open-loop phase with the control thread redeploying beside it.
struct ServePhase {
  OpenLoopResult result;
  std::vector<double> deploy_ms;
  /// Process CPU time over the phase minus the benchmark's own work in it:
  /// the collector thread and the control thread's model builds.
  double program_cpu_s = 0.0;
};

ServePhase RunServePhase(ServingClient* client, const TailInputs& in,
                         const std::vector<Arrival>& schedule, SpanLog* spans,
                         RunOutput* out) {
  ServePhase phase;
  const double cpu0 = ProcessCpuSeconds();
  Redeployer control(client, [&in](int i) {
    const int s = i % kTailScenarios;
    return Redeploy{TailName(s), BuildModel(in.light, in.seeds[s]), {}};
  });
  phase.result = RunOpenLoop(client, in, schedule, spans);
  Redeployer::Outcome redeploys = control.Stop(out);
  phase.program_cpu_s = ProcessCpuSeconds() - cpu0 -
                        phase.result.collector_cpu_s - redeploys.build_cpu_s;
  phase.deploy_ms = std::move(redeploys.deploy_ms);
  Account(phase.result, out);
  return phase;
}

/// Warm-up, then the reference phase: schedule and results.
ServePhase RunReferencePhase(ServingClient* client, const TailInputs& in,
                             uint64_t seed, double seconds, SpanLog* spans,
                             RunOutput* out) {
  RunServePhase(client, in,
                PoissonZipfSchedule(seed + 7919, kReferenceRate, kWarmupS,
                                    in.zipf_cdf, kPoolRows),
                nullptr, out);
  ServePhase ref = RunServePhase(
      client, in,
      PoissonZipfSchedule(seed, kReferenceRate, seconds, in.zipf_cdf, kPoolRows),
      spans, out);
  for (size_t i = 0; i < ref.result.verdicts.size(); ++i) {
    if (ref.result.verdicts[i] == Verdict::kOk) out->digest.AddU64(i);
  }
  return ref;
}

TailInputs MakeTailInputs(uint64_t seed) {
  TailInputs in;
  in.light = ModelConfig::Light(EncoderKind::kLstm, kProfileDim, kSeqLen, kVocab);
  in.heavy = ModelConfig::Heavy(EncoderKind::kLstm, kProfileDim, kSeqLen, kVocab);
  for (int s = 0; s < kTailScenarios; ++s) in.seeds.push_back(ModelSeed(seed, s));
  in.f0_seed = ModelSeed(seed, 100000);
  in.pool = MakeRequestPool(ModelSeed(seed, 200000), kPoolRows, kProfileDim,
                            kSeqLen, kVocab);
  for (int s = 0; s < kTailScenarios; ++s) {
    auto reference = BuildModel(in.light, in.seeds[s]);
    in.ref.push_back(reference->PredictProbs(in.pool.batch));
    if (s == 0) in.light_flops = reference->FlopsPerSample();
  }
  in.f0_ref = BuildModel(in.heavy, in.f0_seed)->PredictProbs(in.pool.batch);
  in.zipf_cdf = ZipfCdf(kTailScenarios, kZipfS);
  return in;
}

}  // namespace

void RunServeTail(const RunConfig& config, RunOutput* out) {
  out->bench_threads = "sender(main),collector,control";
  out->program_threads = "3 shards x (dispatcher + batcher)";
  const TailInputs in = MakeTailInputs(config.seed);
  for (int s = 0; s < kTailScenarios; ++s) {
    for (float v : in.ref[s]) out->digest.AddFloat(v);
  }
  out->digest.AddU64(static_cast<uint64_t>(in.light_flops));

  // Probes of the reference copy before any serving thread exists.
  LayerReport layers;
  {
    auto model = BuildModel(in.light, in.seeds[0]);
    const PredictProbe p1 = ProbePredict(model.get(), PoolSlice(in.pool, 0, 1), 31);
    const PredictProbe p64 = ProbePredict(model.get(), in.pool.batch, 15);
    layers.SetModelProbes(p1, p64);
    layers.SetGemmShares(&p64, nullptr);
    out->Note(DescribeProbe("light lstm reference", p1));
    out->Note(DescribeProbe("light lstm reference", p64));
  }

  TailPlane plane;
  if (config.trace) {
    // Untraced then traced reference phase on fresh planes; the ratio is
    // the cost of observability.
    const double phase_s = config.seconds / 2;
    alt::obs::TraceRecorder::Global().set_enabled(false);
    SetUpTailPlane(in, false, &plane, out);
    const ServePhase plain = RunReferencePhase(plane.client.get(), in, config.seed,
                                               phase_s, nullptr, out);
    alt::obs::TraceRecorder::Global().set_enabled(true);
    SetUpTailPlane(in, true, &plane, out);
    const auto served0 = ShardServed(plane.client.get());
    const ServePhase traced = RunReferencePhase(plane.client.get(), in, config.seed,
                                                phase_s, &out->spans, out);
    const OpenLoopResult& t = traced.result;
    const MetricsRegistry& registry = *plane.registry;
    layers.Set("serving.shard.load_imbalance",
               LoadImbalance(served0, ShardServed(plane.client.get())));
    ReportPlaneLayers(registry, &layers);
    layers.Set("serving.client.enqueue_us", Median(t.enqueue_us));
    layers.Set("serving.plane_overhead_ms",
               Median(t.send_latency_ms) -
                   registry.histogram_summary("serving/trace/segment_ms/compute").p50);
    layers.Set("obs.trace_overhead_frac",
               Mean(t.latency_ms) / Mean(plain.result.latency_ms) - 1.0);
    layers.Set("bench.gen_late_ms.p99", TailPercentile(t.late_ms, 0.99).value);
    layers.SetMemoryTags();
    out->Note(Fmt("reference rate %.0f req/s: untraced mean %.4f ms, traced mean %.4f ms",
                  kReferenceRate, Mean(plain.result.latency_ms), Mean(t.latency_ms)));
    layers.EmitTo(out);
    return;
  }

  alt::obs::TraceRecorder::Global().set_enabled(false);
  std::vector<Cost> setups;
  for (int i = 0; i < kServeSetupRepeats; ++i) {
    setups.push_back(SetUpTailPlane(in, false, &plane, out));
  }
  ServingClient* client = plane.client.get();
  const double ref_s = config.seconds * 0.4;
  const double ladder_end = NowSeconds() + config.seconds;
  const ServePhase ref_phase =
      RunReferencePhase(client, in, config.seed, ref_s, nullptr, out);
  const OpenLoopResult& ref = ref_phase.result;
  const std::vector<double> ref_sample = LimitSample(ref);
  const Percentile p50 = TailPercentile(ref_sample, 0.5);
  const Percentile p95 = TailPercentile(ref_sample, 0.95);
  const Percentile p99 = TailPercentile(ref_sample, 0.99);
  out->Note(Fmt("reference rate %.0f req/s: n=%.0f p50=%.4f ms p95=%.4f ms",
                kReferenceRate, static_cast<double>(p95.n), p50.value, p95.value) +
            Fmt(" p99=%.4f ms p99.9=%.4f ms", p99.value,
                TailPercentile(ref_sample, 0.999).value) +
            " (" + std::to_string(p99.beyond) + " samples beyond p99" +
            (p99.supported ? ")" : ", UNSUPPORTED)"));
  out->Note(Fmt("generator lateness p50=%.4f ms p99=%.4f ms; enqueue p50=%.2f us",
                Median(ref.late_ms), TailPercentile(ref.late_ms, 0.99).value,
                Median(ref.enqueue_us)));
  out->Note("redeploys under reference load: " +
            std::to_string(ref_phase.deploy_ms.size()));

  // Ladder, with the reference phase as its first rung: stop at the first
  // rate that misses the limit, fails a request or grows a backlog. The
  // reported rate interpolates where p99 crosses the limit between the
  // last passing and the first failing rung, so it moves continuously
  // rather than by whole rungs.
  const auto passes = [](const OpenLoopResult& r, double p99_ms, double rate) {
    return p99_ms <= kLatencyLimitMs && r.failed + r.fallbacks == 0 &&
           !BacklogGrows(r.latency_ms, r.in_flight_at_end, rate, kLatencyLimitMs);
  };
  double max_rps = passes(ref, p99.value, kReferenceRate) ? kReferenceRate : 0.0;
  double last_p99 = p99.value;
  for (size_t step = 0; max_rps > 0.0 && step < std::size(kLadder); ++step) {
    const double rate = kLadder[step];
    const double step_s = std::max(kMinStepS, kStepSamples / rate);
    if (NowSeconds() + step_s > ladder_end) {
      out->Note("ladder: out of time before " + Fmt("%.0f req/s", rate));
      break;
    }
    const ServePhase rung = RunServePhase(
        client, in,
        PoissonZipfSchedule(config.seed * 131 + step + 1, rate, step_s,
                            in.zipf_cdf, kPoolRows),
        nullptr, out);
    const OpenLoopResult& r = rung.result;
    const std::vector<double> sample = LimitSample(r);
    const Percentile q = TailPercentile(sample, 0.99);
    const bool pass = passes(r, q.value, rate);
    out->Note(Fmt("ladder %.0f req/s: n=%.0f p50=%.4f ms p99=%.4f ms", rate,
                  static_cast<double>(q.n), Median(sample), q.value) +
              " in_flight_end=" + std::to_string(r.in_flight_at_end) +
              (pass ? " pass" : " FAIL"));
    if (!pass) {
      max_rps = InterpolateLimitCrossing(max_rps, last_p99, rate, q.value,
                                         kLatencyLimitMs);
      break;
    }
    max_rps = rate;
    last_p99 = q.value;
  }

  out->Note(Fmt("latency_p50_ms = %.4f; latency_p95_ms = %.4f; max_rps_at_slo = "
                "%.1f req/s (p99 limit %.0f ms)",
                p50.value, p95.value, max_rps, kLatencyLimitMs) +
            Fmt("; deploy_ms = %.4f (median under reference load)",
                Median(ref_phase.deploy_ms)));

  AddCostMetrics(setups, ref_phase.program_cpu_s / static_cast<double>(p50.n) * 1e3,
                 out);
  // Only the intended model's exact score counts: failed, refused, shed and
  // fallback answers all count against it.
  const auto exact = std::count(ref.verdicts.begin(), ref.verdicts.end(), Verdict::kOk);
  out->Add("answer_quality",
           static_cast<double>(exact) / static_cast<double>(ref.verdicts.size()),
           "frac");
}

// ---------------------------------------------------------------------------
// serve_bulk

namespace {

struct BulkModel {
  std::string name;
  ModelConfig config;
  uint64_t seed = 0;
  bool int8 = false;
};

struct BulkInputs {
  uint64_t seed = 0;
  std::vector<BulkModel> models;
  std::vector<alt::data::Batch> batches;
  /// ref[model][batch][row].
  std::vector<std::vector<std::vector<float>>> ref;
  RequestPool pool;
};

BulkInputs MakeBulkInputs(uint64_t seed) {
  BulkInputs in;
  in.seed = seed;
  const EncoderKind kinds[] = {EncoderKind::kLstm, EncoderKind::kBert};
  int index = 0;
  for (EncoderKind kind : kinds) {
    for (bool int8 : {false, true}) {
      BulkModel m;
      m.name = std::string(alt::models::EncoderKindName(kind)) +
               (int8 ? "_int8" : "_fp32");
      m.config = ModelConfig::Heavy(kind, kProfileDim, kSeqLen, kVocab);
      m.seed = ModelSeed(seed, 300000 + index++);
      m.int8 = int8;
      in.models.push_back(m);
    }
  }
  in.pool = MakeRequestPool(ModelSeed(seed, 400000), kBulkRows * kBulkBatches,
                            kProfileDim, kSeqLen, kVocab);
  for (int b = 0; b < kBulkBatches; ++b) {
    in.batches.push_back(PoolSlice(in.pool, b * kBulkRows, kBulkRows));
  }
  for (const BulkModel& m : in.models) {
    auto reference = BuildModel(m.config, m.seed);
    if (m.int8) reference->QuantizeForServing();
    std::vector<std::vector<float>> per_batch;
    for (const auto& batch : in.batches) {
      per_batch.push_back(reference->PredictProbs(batch));
    }
    in.ref.push_back(std::move(per_batch));
  }
  return in;
}

struct BulkPlane {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<ServingClient> client;
};

Cost SetUpBulkPlane(const BulkInputs& in, bool traced, BulkPlane* plane,
                    RunOutput* out) {
  // The previous plane is torn down off the clock.
  plane->client.reset();
  plane->registry.reset();
  const CostTimer timer;
  plane->registry = std::make_unique<MetricsRegistry>();
  ServingClient::Options options;
  options.num_shards = kBulkShards;
  options.replication = kBulkReplication;
  options.trace.sample_rate = traced ? 1.0 : 0.0;
  options.trace.seed = 17;
  plane->client =
      std::make_unique<ServingClient>(options, plane->registry.get());
  for (const BulkModel& m : in.models) {
    alt::serving::DeployOptions deploy;
    deploy.quantize_int8 = m.int8;
    const alt::Status st =
        plane->client->Deploy(m.name, BuildModel(m.config, m.seed), deploy);
    if (!st.ok()) out->Incorrect("deploy " + m.name + ": " + st.ToString());
  }
  // Warm-up: every (model, batch) once, checked.
  for (size_t m = 0; m < in.models.size(); ++m) {
    for (size_t b = 0; b < in.batches.size(); ++b) {
      auto r = plane->client->Predict(in.models[m].name, in.batches[b]);
      if (!r.ok() || r.value() != in.ref[m][b]) {
        out->Incorrect("warm-up mismatch " + in.models[m].name);
      }
    }
  }
  return timer.Elapsed();
}

struct BulkResult {
  std::vector<double> call_ms;
  int64_t calls = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  int64_t rows = 0;
  Cost cost;  // Of the whole loop: wall and process CPU time.
  double RowsPerSecond() const { return static_cast<double>(rows) / cost.wall_s; }
};

/// Closed loop: kBulkCallers threads, each sending its next call as soon as
/// the previous one returns, until `seconds` pass. The calls are counted
/// into `out`.
BulkResult RunBulk(ServingClient* client, const BulkInputs& in, double seconds,
                   SpanLog* spans, RunOutput* out) {
  std::vector<BulkResult> per(kBulkCallers);
  const CostTimer timer;
  const double end = NowSeconds() + seconds;
  std::vector<std::thread> callers;
  for (int c = 0; c < kBulkCallers; ++c) {
    callers.emplace_back([&, c] {
      BulkResult& res = per[static_cast<size_t>(c)];
      // Each caller sends every model once per cycle, in an order its
      // seeded stream shuffles anew each cycle. Under a fixed round-robin
      // the two callers lock into one pairing of models, and which pairing
      // a run falls into decides the process's peak memory.
      uint64_t stream = ModelSeed(in.seed, 500000 + c);
      std::vector<size_t> order(in.models.size());
      std::iota(order.begin(), order.end(), size_t{0});
      for (size_t k = 0; NowSeconds() < end; ++k) {
        if (k % order.size() == 0) {
          for (size_t j = order.size() - 1; j > 0; --j) {
            std::swap(order[j], order[SplitMix64(&stream) % (j + 1)]);
          }
        }
        const size_t m = order[k % order.size()];
        const size_t b = (k / order.size()) % in.batches.size();
        const double s0 = NowSeconds();
        auto r = client->Predict(in.models[m].name, in.batches[b]);
        const double s1 = NowSeconds();
        ++res.calls;
        if (spans != nullptr) {
          spans->Add({"bench/predict", spans->NextId(), 0, s0 * 1e6, s1 * 1e6});
        }
        if (!r.ok()) {
          ++res.failed;
          continue;
        }
        if (r.value() != in.ref[m][b]) {
          ++res.mismatches;
          continue;
        }
        res.call_ms.push_back((s1 - s0) * 1e3);
        res.rows += kBulkRows;
      }
    });
  }
  for (auto& t : callers) t.join();
  BulkResult total;
  total.cost = timer.Elapsed();
  for (const BulkResult& r : per) {
    total.call_ms.insert(total.call_ms.end(), r.call_ms.begin(), r.call_ms.end());
    total.calls += r.calls;
    total.failed += r.failed;
    total.mismatches += r.mismatches;
    total.rows += r.rows;
  }
  out->attempted += total.calls;
  out->failed += total.failed + total.mismatches;
  if (total.mismatches > 0) {
    out->Incorrect(std::to_string(total.mismatches) +
                   " Predict calls differ from the reference");
  }
  return total;
}

}  // namespace

void RunServeBulk(const RunConfig& config, RunOutput* out) {
  out->bench_threads = "caller x2";
  out->program_threads = "2 shards x dispatcher (batcher idle)";
  const BulkInputs in = MakeBulkInputs(config.seed);
  int64_t flops = 0;
  for (size_t m = 0; m < in.models.size(); ++m) {
    out->digest.AddString(in.models[m].name);
    for (const auto& scores : in.ref[m]) {
      for (float v : scores) out->digest.AddFloat(v);
    }
  }

  LayerReport layers;
  {
    auto fp32 = BuildModel(in.models[0].config, in.models[0].seed);
    auto int8 = BuildModel(in.models[1].config, in.models[1].seed);
    int8->QuantizeForServing();
    const PredictProbe p1 =
        ProbePredict(fp32.get(), PoolSlice(in.pool, 0, 1), 15);
    const PredictProbe p64 = ProbePredict(fp32.get(), in.batches[0], 7);
    const PredictProbe q64 = ProbePredict(int8.get(), in.batches[0], 7);
    layers.SetModelProbes(p1, p64);
    layers.SetGemmShares(&p64, &q64);
    out->Note(DescribeProbe("heavy lstm fp32 reference", p1));
    out->Note(DescribeProbe("heavy lstm fp32 reference", p64));
    out->Note(DescribeProbe("heavy lstm int8 reference", q64));
  }
  for (const BulkModel& m : in.models) {
    flops += BuildModel(m.config, m.seed)->FlopsPerSample();
  }
  out->digest.AddU64(static_cast<uint64_t>(flops));

  BulkPlane plane;
  if (config.trace) {
    alt::obs::TraceRecorder::Global().set_enabled(false);
    SetUpBulkPlane(in, false, &plane, out);
    const BulkResult plain =
        RunBulk(plane.client.get(), in, config.seconds / 2, nullptr, out);
    alt::obs::TraceRecorder::Global().set_enabled(true);
    SetUpBulkPlane(in, true, &plane, out);
    const auto served0 = ShardServed(plane.client.get());
    const BulkResult traced =
        RunBulk(plane.client.get(), in, config.seconds / 2, &out->spans, out);
    const MetricsRegistry& registry = *plane.registry;
    layers.Set("serving.shard.load_imbalance",
               LoadImbalance(served0, ShardServed(plane.client.get())));
    ReportPlaneLayers(registry, &layers);
    layers.Set("serving.plane_overhead_ms",
               Median(traced.call_ms) -
                   registry.histogram_summary("serving/trace/segment_ms/compute").p50);
    const double plain_rps = plain.RowsPerSecond();
    const double traced_rps = traced.RowsPerSecond();
    layers.Set("obs.trace_overhead_frac", plain_rps / traced_rps - 1.0);
    layers.SetMemoryTags();
    out->Note(Fmt("rows/s untraced %.1f, traced %.1f", plain_rps, traced_rps));
    layers.EmitTo(out);
    return;
  }

  alt::obs::TraceRecorder::Global().set_enabled(false);
  std::vector<Cost> setups;
  for (int i = 0; i < kServeSetupRepeats; ++i) {
    setups.push_back(SetUpBulkPlane(in, false, &plane, out));
  }
  const BulkResult r =
      RunBulk(plane.client.get(), in, config.seconds, nullptr, out);
  const Percentile p50 = TailPercentile(r.call_ms, 0.5);
  const Percentile p99 = TailPercentile(r.call_ms, 0.99);
  out->Note(Fmt("Predict calls: n=%.0f p50=%.4f ms p99=%.4f ms rows/s=%.1f",
                static_cast<double>(p99.n), p50.value, p99.value,
                r.RowsPerSecond()) +
            " (" + std::to_string(p99.beyond) + " samples beyond p99" +
            (p99.supported ? ")" : ", UNSUPPORTED)"));
  out->Note(Fmt("latency_p50_ms = %.4f; latency_p99_ms = %.4f; rows_per_s = %.1f",
                p50.value, p99.value, r.RowsPerSecond()));
  AddCostMetrics(setups, r.cost.cpu_s / static_cast<double>(r.calls) * 1e3, out);
  out->Add("answer_quality",
           static_cast<double>(r.calls - r.failed - r.mismatches) /
               static_cast<double>(r.calls),
           "frac");
}

}  // namespace altbench
