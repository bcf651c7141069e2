#ifndef ALT_SRC_SERVING_SERVING_CLIENT_H_
#define ALT_SRC_SERVING_SERVING_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/obs/slo.h"
#include "src/resilience/circuit_breaker.h"
#include "src/serving/model_server.h"
#include "src/serving/shard/coordinator.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {

/// Latency distribution of one scenario's requests, as its callers saw
/// them: a read-view of the registry histogram
/// `serving/request/latency_ms/<scenario>`, which both predict calls record
/// once per request (a merged engine call or a fallback answer is still one
/// request). With ALT_OBS=off nothing is recorded and the view reads zeros.
struct LatencyStats {  // alt_lint: allow(L007): read-view over obs::MetricsRegistry, not an ad-hoc store
  int64_t num_requests = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Graceful-degradation policy of ServingClient. Off by default; enable
/// with Options::enable_resilience or ServingClient::EnableResilience. With
/// it on, each scenario gets one circuit breaker over its plane calls:
/// while the breaker is open — or when a call fails in the model or
/// overruns `predict_deadline_ms` — the answer comes from the fallback path
/// (the scenario-agnostic f0 deployment named by `fallback_scenario`, asked
/// through the plane, else the constant `fallback_prior` score) instead of
/// propagating the error to the caller.
struct ServingResilienceOptions {
  resilience::CircuitBreakerOptions breaker;
  /// When > 0, a plane call slower than this (on the resilience clock)
  /// counts as a breaker failure and the fallback answer is served in its
  /// place.
  double predict_deadline_ms = 0.0;
  /// Deployed scenario that serves degraded traffic (conventionally "f0",
  /// the meta-learner's scenario-agnostic snapshot, deployed everywhere).
  /// Empty: skip straight to the constant prior.
  std::string fallback_scenario;
  /// Score served when no fallback deployment answers.
  float fallback_prior = 0.5f;
  /// When non-empty, a predict on an unknown scenario routes to this
  /// deployed scenario (counted in serving/unknown_scenario_fallbacks)
  /// instead of returning NotFound.
  std::string default_scenario;
};

/// The public serving API: one facade over the sharded serving plane for
/// deploy, predict, batch-predict, undeploy, elasticity, and stats.
/// Subsumes direct ModelServer use.
///
/// Topology: `Options::num_shards` WorkerShards (each a ModelServer on its
/// own thread) behind a ShardCoordinator — consistent-hash routing with
/// virtual nodes, replica groups (power-of-two-choices balancing, wider
/// groups for DeployOptions::hot scenarios), rebalancing when a shard
/// dies, and version-gated deploy broadcast. `num_shards = 1`
/// (the default) reproduces the classic single-server layout through the
/// same API. The shard lifecycle has one path: KillShard, after which the
/// dead shard's own worker rebalances the plane when the first request
/// reaches it (or the next deploy does); then RejoinShard or AddShard,
/// which deploy the coordinator's models before the shard enters the ring.
///
/// Batching happens where the model runs: every request, from Predict or
/// EnqueuePredict, takes one path — p2c routing onto a replica's shard
/// queue, whose worker merges queued requests of one scenario into a single
/// engine call (see shard::WorkerShard). A vanished shard's queued requests
/// fail over to replicas instead of being lost; only when no replica
/// remains do they fail with Status kUnavailable (counted in
/// serving/coordinator/no_replica_available).
///
/// Failure ownership: the coordinator fails over only when a shard is gone
/// (dead flag or kUnavailable), and this client alone degrades a scenario
/// (breaker, deadline, fallback, default routing). Degradation is the
/// continuation of the plane call, so it runs on the shard worker that
/// answered; Predict just waits for it. A malformed request
/// (kInvalidArgument) is the caller's error: it is returned as it is and
/// never counts against a breaker. Obs (client registry):
///   serving/request/latency_ms/<scenario>   histogram, once per request
///   serving/fallbacks                       counter: degraded answers
///   serving/unknown_scenario_fallbacks      counter: default-routed calls
///   serving/predict_deadline_exceeded       counter: deadline overruns
///   resilience/circuit_breaker/*/serving/<scenario>   breaker state/opens
class ServingClient {
 public:
  struct Options {
    /// Worker shards. 1 = classic single-server serving.
    int num_shards = 1;
    /// Virtual nodes per shard on the consistent-hash ring.
    int vnodes_per_shard = 128;
    /// Replicas per scenario; hot scenarios get `hot_replication`.
    int replication = 1;
    int hot_replication = 2;
    /// SubmitPredict backpressure per shard, the plane's one overload
    /// bound: a request every replica's full queue rejects fails with
    /// kResourceExhausted. 0 = unbounded.
    int64_t max_queue_depth_per_shard = 0;
    /// Clock for the resilience policy enabled at construction and for the
    /// SLO burn windows; nullptr = real clock.
    resilience::Clock* clock = nullptr;
    /// Graceful degradation (per-scenario breakers + fallback answers),
    /// enabled at construction on `clock`. EnableResilience() turns it on
    /// later (e.g. with a test clock).
    bool enable_resilience = false;
    ServingResilienceOptions resilience;
    /// Request-scoped tracing: every Predict/EnqueuePredict ticks the
    /// tracer; sampled requests (rate from ALT_TRACE_SAMPLE unless
    /// trace.sample_rate >= 0) get per-segment latency attribution and a
    /// slot in the slow-trace ring (/trace/slow). A null trace.registry /
    /// trace.recorder inherits the client's registry / global recorder.
    obs::RequestTracer::Options trace;
    /// Per-scenario SLO burn-rate tracking. A null slo.registry inherits
    /// the client's registry; a null slo.now_ms wraps Options::clock when
    /// one is set (FakeClock tests drive the burn windows), else the
    /// steady clock.
    obs::SloTracker::Options slo;
  };

  /// Aggregate serving-plane stats (per-scenario latency distributions come
  /// from GetLatencyStats).
  struct Stats {
    /// Shards registered, dead or alive, AddShard's included.
    int num_shards = 0;
    int live_shards = 0;
    /// max/mean scenario-ownership share across live shards (1.0 = even).
    double routing_imbalance = 1.0;
    int64_t requests_served = 0;
    /// Requests submitted but not yet answered.
    int64_t pending_requests = 0;
    /// Sampled requests completed by the request tracer.
    int64_t traced_requests = 0;
    /// Slowest completed traced request retained in the slow-trace ring.
    double slowest_request_ms = 0.0;
    /// Scenarios whose short-window SLO burn rate currently exceeds 1.
    int scenarios_burning = 0;
  };

  /// `registry == nullptr` selects the process-global registry; all shards
  /// share it, so per-scenario metrics aggregate fleet-wide.
  explicit ServingClient(Options options,
                         obs::MetricsRegistry* registry = nullptr);
  /// Default topology: one shard, global registry. (A separate constructor
  /// because a `= {}` default argument cannot name the nested Options
  /// before its member initializers are parsed.)
  ServingClient();
  /// Stops every shard: queued requests (on paused shards too) are answered
  /// before any member they use goes away.
  ~ServingClient();

  ServingClient(const ServingClient&) = delete;
  ServingClient& operator=(const ServingClient&) = delete;

  /// Deploys `model` to the scenario's replica group (broadcast, version
  /// gated). DeployOptions selects quantization, hot replication, and
  /// transient-failure retries.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options = {});

  /// Deploys to every shard — for the resilience fallback/default
  /// scenarios any shard must answer locally.
  Status DeployEverywhere(const std::string& scenario,
                          std::unique_ptr<models::BaseModel> model,
                          const DeployOptions& options = {});

  Status Undeploy(const std::string& scenario);
  bool IsDeployed(const std::string& scenario) const;
  std::vector<std::string> Scenarios() const;

  /// Synchronous batch predict: routed to the scenario's replica group with
  /// load balancing and failover, degraded per the resilience policy.
  /// Starts a request trace (sampled at the tracer's rate) and records the
  /// outcome against the scenario's latency histogram and SLO. The same
  /// asynchronous path as EnqueuePredict; this call waits for its answer.
  Result<std::vector<float>> Predict(const std::string& scenario,
                                     const data::Batch& batch);

  /// Asynchronous single-row predict: `profile` holds the row's profile
  /// features and `behavior` its seq_len behaviour ids. The request queues
  /// on a replica's shard, where it may share an engine call with other
  /// queued requests of its scenario.
  std::future<Result<float>> EnqueuePredict(const std::string& scenario,
                                            Tensor profile,
                                            std::vector<int64_t> behavior);

  /// Blocks until every submitted request has been answered: its outcome
  /// is recorded, and its future is set right after.
  void DrainRequests() const;

  /// Enables graceful degradation and deploys nothing — pair with
  /// DeployEverywhere for the fallback scenario. `clock == nullptr` selects
  /// the real clock; it drives breaker cooldowns and the predict deadline.
  /// A later call replaces the policy and starts every breaker afresh.
  void EnableResilience(const ServingResilienceOptions& options,
                        resilience::Clock* clock = nullptr)
      ALT_EXCLUDES(resilience_mu_);

  /// State of each scenario breaker that has gated traffic (one per
  /// scenario; empty with resilience off). Reported in the /healthz body.
  std::map<std::string, resilience::BreakerState> BreakerStates() const
      ALT_EXCLUDES(resilience_mu_);

  Stats GetStats() const;
  /// NotFound unless `scenario` is deployed.
  Result<LatencyStats> GetLatencyStats(const std::string& scenario) const;
  Result<int64_t> FlopsPerSample(const std::string& scenario) const;
  /// Writes the scenario's current model as an ALTM bundle to `path`,
  /// crash-safely.
  Status ExportBundle(const std::string& scenario,
                      const std::string& path) const;

  std::vector<std::string> ShardIds() const;
  int NumLiveShards() const;
  /// Chaos hook: kills a shard; traffic fails over and the coordinator
  /// rebalances on the next requests against it.
  Status KillShard(const std::string& shard_id);

  /// Warm re-join of a killed shard: the coordinator's models re-deploy
  /// before its virtual nodes re-enter the ring. See
  /// ShardCoordinator::RejoinShard.
  Status RejoinShard(const std::string& shard_id);

  /// Elastic scale-up: adds a brand-new shard through the same warm
  /// admission.
  Status AddShard(const std::string& shard_id);

  /// Shard-state health report, the /healthz / /readyz source of truth.
  struct HealthReport {
    /// False only when a deployed scenario has no live replica left —
    /// requests to it fail until a re-join/re-deploy. Maps to HTTP 503.
    bool healthy = true;
    /// True while any shard is dead: serving capacity is degraded, though
    /// every scenario may still answer.
    bool degraded = false;
    /// Shard id -> "live" or "dead".
    std::map<std::string, std::string> shard_states;
    std::vector<std::string> unservable_scenarios;
  };
  HealthReport GetHealth() const;

  /// The underlying control plane — white-box access for tests and tools.
  shard::ShardCoordinator* coordinator() { return &coordinator_; }
  const shard::ShardCoordinator* coordinator() const { return &coordinator_; }

  /// Request tracer (sampling, slow-trace ring) — the /trace/slow source.
  obs::RequestTracer* tracer() const { return tracer_.get(); }
  /// Per-scenario SLO burn tracker — the /slo and alt_slo_* source.
  obs::SloTracker* slo() const { return slo_.get(); }

  obs::MetricsRegistry* registry() const { return registry_; }
  const Options& options() const { return options_; }

 private:
  /// The degradation policy of one EnableResilience call, with the
  /// breakers it created. Requests hold it by shared_ptr, so a later
  /// EnableResilience never pulls a breaker from under an in-flight call.
  struct Degradation {
    ServingResilienceOptions options;
    resilience::Clock* clock = nullptr;
    Mutex mu;
    std::map<std::string, std::unique_ptr<resilience::CircuitBreaker>>
        breakers ALT_GUARDED_BY(mu);
  };

  /// One request through the plane (see the .cc file).
  struct Call;

  /// Starts `call`: default routing, the breaker gate, then the plane call.
  void Submit(std::shared_ptr<Call> call) ALT_EXCLUDES(resilience_mu_);
  /// Sends `call`'s batch to `scenario` through the coordinator, using the
  /// request `plane` embedded in `call`; `done` receives the answer.
  void SubmitPlane(const std::shared_ptr<Call>& call,
                   shard::ShardCoordinator::Request* plane,
                   const std::string& scenario, shard::PredictDone done);
  /// Continuation of the plane call under a resilience policy: the
  /// deadline, the breaker's verdict, and the fallback on a model error.
  void OnPlaneAnswer(std::shared_ptr<Call> call,
                     Result<std::vector<float>> result);
  /// Degraded answer for the call's target: the fallback scenario through
  /// the plane, else the constant prior. Counts serving/fallbacks.
  void Fallback(std::shared_ptr<Call> call);
  /// The constant fallback_prior score for each row of the call.
  static std::vector<float> PriorAnswer(const Call& call);
  /// Terminal step of every request: trace, latency histogram, SLO, reply.
  void Finish(Call* call, Result<std::vector<float>> result);
  /// The scenario's breaker in `policy`, created on first use.
  resilience::CircuitBreaker* BreakerFor(Degradation* policy,
                                         const std::string& scenario) const;
  /// Per-scenario request-latency histogram
  /// (`serving/request/latency_ms/<scenario>` → the exporter renders it as
  /// alt_serving_request_latency_ms{id="<scenario>"}), cached per scenario.
  obs::Histogram* LatencyHistogramFor(const std::string& scenario)
      ALT_EXCLUDES(latency_mu_);
  /// Terminal accounting for every request: scenario latency histogram +
  /// SLO outcome.
  void RecordOutcome(const std::string& scenario, double latency_ms,
                     const Status& status);

  Options options_;
  obs::MetricsRegistry* registry_;
  /// Declared before the coordinator: request continuations run on shard
  /// worker threads and use the tracer, SLO tracker, breakers and counters
  /// until the destructor has stopped every shard.
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::unique_ptr<obs::SloTracker> slo_;
  mutable Mutex latency_mu_;
  std::map<std::string, obs::Histogram*> latency_hists_
      ALT_GUARDED_BY(latency_mu_);
  /// Null until EnableResilience; read by every request.
  mutable Mutex resilience_mu_;
  std::shared_ptr<Degradation> degradation_ ALT_GUARDED_BY(resilience_mu_);
  obs::Counter* fallbacks_;          // Owned by the registry.
  obs::Counter* unknown_fallbacks_;  // Owned by the registry.
  obs::Counter* deadline_exceeded_;  // Owned by the registry.
  /// Requests submitted, not yet answered.
  std::atomic<int64_t> pending_{0};
  shard::ShardCoordinator coordinator_;
};

}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SERVING_CLIENT_H_
