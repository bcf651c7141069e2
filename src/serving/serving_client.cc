#include "src/serving/serving_client.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <variant>

namespace alt {
namespace serving {

namespace {

shard::CoordinatorOptions ToCoordinatorOptions(
    const ServingClient::Options& options) {
  shard::CoordinatorOptions out;
  out.num_shards = options.num_shards;
  out.vnodes_per_shard = options.vnodes_per_shard;
  out.replication = options.replication;
  out.hot_replication = options.hot_replication;
  out.max_queue_depth_per_shard = options.max_queue_depth_per_shard;
  return out;
}

obs::RequestTracer::Options ToTracerOptions(
    const ServingClient::Options& options, obs::MetricsRegistry* registry) {
  obs::RequestTracer::Options out = options.trace;
  if (out.registry == nullptr) out.registry = registry;
  return out;
}

obs::SloTracker::Options ToSloOptions(const ServingClient::Options& options,
                                      obs::MetricsRegistry* registry) {
  obs::SloTracker::Options out = options.slo;
  if (out.registry == nullptr) out.registry = registry;
  if (out.now_ms == nullptr && options.clock != nullptr) {
    // FakeClock-driven tests advance SLO burn windows through the same
    // injected clock that drives the resilience policy.
    out.now_ms = [clock = options.clock] { return clock->NowMs(); };
  }
  return out;
}

std::string RequestLatencyName(const std::string& scenario) {
  return "serving/request/latency_ms/" + scenario;
}

/// Statuses that say nothing about the scenario's model: the plane failed
/// the call (no live replica, every replica's queue full, or the scenario is
/// gone), or the caller sent a malformed request. They reach the caller as
/// they are, never count against a scenario's breaker, and are never
/// answered with a fallback.
bool IsNotModelFault(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kNotFound ||
         code == StatusCode::kInvalidArgument;
}

}  // namespace

/// One request through the plane. It owns EnqueuePredict's one-row batch
/// and lives, shared by its continuations, until the last of them has run.
struct ServingClient::Call {
  ServingClient* client = nullptr;
  std::string scenario;  // As asked: keys the latency histogram and SLO.
  data::Batch owned;     // EnqueuePredict's one-row batch.
  const data::Batch* batch = nullptr;  // `owned`, or Predict's batch.
  obs::RequestContext ctx;
  /// The caller's future: every row for Predict, the one row for
  /// EnqueuePredict.
  std::variant<std::monostate, std::promise<Result<std::vector<float>>>,
               std::promise<Result<float>>>
      answer;
  std::string target;  // The scenario that serves, after default routing.
  /// The plane calls, embedded so a request allocates once: the target's,
  /// then the fallback scenario's when the call is degraded.
  shard::ShardCoordinator::Request plane;
  shard::ShardCoordinator::Request fallback_plane;
  /// The resilience policy that degrades this call (null when none
  /// applies), the target's breaker, and the policy-clock time of the plane
  /// call when a deadline applies.
  std::shared_ptr<Degradation> policy;
  resilience::CircuitBreaker* breaker = nullptr;
  double start_ms = 0.0;
};

ServingClient::ServingClient(Options options, obs::MetricsRegistry* registry)
    : options_(std::move(options)),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()),
      tracer_(std::make_unique<obs::RequestTracer>(
          ToTracerOptions(options_, registry_))),
      slo_(std::make_unique<obs::SloTracker>(
          ToSloOptions(options_, registry_))),
      fallbacks_(registry_->counter("serving/fallbacks")),
      unknown_fallbacks_(
          registry_->counter("serving/unknown_scenario_fallbacks")),
      deadline_exceeded_(
          registry_->counter("serving/predict_deadline_exceeded")),
      coordinator_(ToCoordinatorOptions(options_), registry_) {
  if (options_.enable_resilience) {
    EnableResilience(options_.resilience, options_.clock);
  }
}

ServingClient::ServingClient() : ServingClient(Options()) {}

ServingClient::~ServingClient() { coordinator_.Shutdown(); }

Status ServingClient::Deploy(const std::string& scenario,
                             std::unique_ptr<models::BaseModel> model,
                             const DeployOptions& options) {
  ALT_RETURN_IF_ERROR(coordinator_.Deploy(scenario, std::move(model), options));
  slo_->SetObjective(scenario, options.slo);
  return Status::OK();
}

Status ServingClient::DeployEverywhere(const std::string& scenario,
                                       std::unique_ptr<models::BaseModel> model,
                                       const DeployOptions& options) {
  ALT_RETURN_IF_ERROR(
      coordinator_.DeployEverywhere(scenario, std::move(model), options));
  slo_->SetObjective(scenario, options.slo);
  return Status::OK();
}

Status ServingClient::Undeploy(const std::string& scenario) {
  return coordinator_.Undeploy(scenario);
}

bool ServingClient::IsDeployed(const std::string& scenario) const {
  return coordinator_.IsDeployed(scenario);
}

std::vector<std::string> ServingClient::Scenarios() const {
  return coordinator_.Scenarios();
}

Result<std::vector<float>> ServingClient::Predict(const std::string& scenario,
                                                  const data::Batch& batch) {
  auto call = std::make_shared<Call>();
  call->scenario = scenario;
  call->batch = &batch;
  std::future<Result<std::vector<float>>> future =
      call->answer.emplace<1>().get_future();
  Submit(std::move(call));
  return future.get();
}

std::future<Result<float>> ServingClient::EnqueuePredict(
    const std::string& scenario, Tensor profile,
    std::vector<int64_t> behavior) {
  auto call = std::make_shared<Call>();
  call->scenario = scenario;
  call->owned.batch_size = 1;
  call->owned.seq_len = static_cast<int64_t>(behavior.size());
  call->owned.profiles = profile.ndim() == 2
                             ? std::move(profile)
                             : profile.Reshape({1, profile.numel()});
  call->owned.behaviors = std::move(behavior);
  call->batch = &call->owned;
  std::future<Result<float>> future = call->answer.emplace<2>().get_future();
  Submit(std::move(call));
  return future;
}

void ServingClient::Submit(std::shared_ptr<Call> call) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  call->client = this;
  call->ctx = tracer_->StartRequest(call->scenario);
  {
    MutexLock lock(resilience_mu_);
    call->policy = degradation_;
  }
  call->target = call->scenario;
  if (call->policy != nullptr && !coordinator_.IsDeployed(call->scenario)) {
    // Checked before any breaker exists, so unknown names never get one.
    const std::string& default_scenario =
        call->policy->options.default_scenario;
    if (!default_scenario.empty() &&
        coordinator_.IsDeployed(default_scenario)) {
      unknown_fallbacks_->Add(1);
      call->target = default_scenario;
    } else {
      call->policy = nullptr;  // The plane's NotFound is the answer.
    }
  }
  if (call->policy == nullptr) {
    SubmitPlane(call, &call->plane, call->target,
                [call](Result<std::vector<float>> result) {
                  call->client->Finish(call.get(), std::move(result));
                });
    return;
  }
  call->breaker = BreakerFor(call->policy.get(), call->target);
  if (!call->breaker->AllowRequest()) {
    Fallback(std::move(call));
    return;
  }
  if (call->policy->options.predict_deadline_ms > 0.0) {
    call->start_ms = call->policy->clock->NowMs();
  }
  SubmitPlane(call, &call->plane, call->target,
              [call](Result<std::vector<float>> result) {
                call->client->OnPlaneAnswer(call, std::move(result));
              });
}

void ServingClient::SubmitPlane(const std::shared_ptr<Call>& call,
                                shard::ShardCoordinator::Request* plane,
                                const std::string& scenario,
                                shard::PredictDone done) {
  plane->scenario = scenario;
  plane->batch = call->batch;
  plane->ctx = call->ctx;
  plane->done = std::move(done);
  coordinator_.Submit(
      std::shared_ptr<shard::ShardCoordinator::Request>(call, plane));
}

void ServingClient::OnPlaneAnswer(std::shared_ptr<Call> call,
                                  Result<std::vector<float>> result) {
  const Degradation& policy = *call->policy;
  const double deadline_ms = policy.options.predict_deadline_ms;
  if (result.ok()) {
    if (deadline_ms <= 0.0 ||
        policy.clock->NowMs() - call->start_ms <= deadline_ms) {
      call->breaker->RecordSuccess();
      Finish(call.get(), std::move(result));
      return;
    }
    deadline_exceeded_->Add(1);
  } else if (IsNotModelFault(result.status().code())) {
    Finish(call.get(), std::move(result));
    return;
  }
  call->breaker->RecordFailure();
  Fallback(std::move(call));
}

void ServingClient::Fallback(std::shared_ptr<Call> call) {
  fallbacks_->Add(1);
  const std::string& fallback = call->policy->options.fallback_scenario;
  if (fallback.empty() || fallback == call->target) {
    Finish(call.get(), PriorAnswer(*call));
    return;
  }
  SubmitPlane(
      call, &call->fallback_plane, fallback,
      [call](Result<std::vector<float>> result) {
        // The fallback failed too (possibly an injected fault); degrade one
        // more step to the constant prior rather than surface an error —
        // unless the request itself is malformed.
        if (!result.ok() &&
            result.status().code() != StatusCode::kInvalidArgument) {
          result = PriorAnswer(*call);
        }
        call->client->Finish(call.get(), std::move(result));
      });
}

std::vector<float> ServingClient::PriorAnswer(const Call& call) {
  const int64_t rows = std::max<int64_t>(0, call.batch->batch_size);
  return std::vector<float>(static_cast<size_t>(rows),
                            call.policy->options.fallback_prior);
}

void ServingClient::Finish(Call* call, Result<std::vector<float>> result) {
  const double total_ms = tracer_->CompleteRequest(call->ctx, result.status());
  RecordOutcome(call->scenario, total_ms, result.status());
  // Before the reply: a caller whose future is ready sees the request as
  // no longer pending.
  pending_.fetch_sub(1, std::memory_order_release);
  if (auto* rows = std::get_if<1>(&call->answer)) {
    rows->set_value(std::move(result));
  } else if (result.ok()) {
    std::get<2>(call->answer).set_value(result.value().front());
  } else {
    std::get<2>(call->answer).set_value(result.status());
  }
}

resilience::CircuitBreaker* ServingClient::BreakerFor(
    Degradation* policy, const std::string& scenario) const {
  MutexLock lock(policy->mu);
  std::unique_ptr<resilience::CircuitBreaker>& breaker =
      policy->breakers[scenario];
  if (breaker == nullptr) {
    breaker = std::make_unique<resilience::CircuitBreaker>(
        "serving/" + scenario, policy->options.breaker, policy->clock,
        registry_);
  }
  return breaker.get();
}

void ServingClient::DrainRequests() const {
  while (pending_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ServingClient::EnableResilience(const ServingResilienceOptions& options,
                                     resilience::Clock* clock) {
  auto policy = std::make_shared<Degradation>();
  policy->options = options;
  policy->clock = clock != nullptr ? clock : resilience::RealClock();
  MutexLock lock(resilience_mu_);
  degradation_ = std::move(policy);
}

std::map<std::string, resilience::BreakerState> ServingClient::BreakerStates()
    const {
  std::shared_ptr<Degradation> policy;
  {
    MutexLock lock(resilience_mu_);
    policy = degradation_;
  }
  std::map<std::string, resilience::BreakerState> states;
  if (policy == nullptr) return states;
  MutexLock lock(policy->mu);
  for (const auto& [scenario, breaker] : policy->breakers) {
    states.emplace(scenario, breaker->state());
  }
  return states;
}

ServingClient::Stats ServingClient::GetStats() const {
  Stats stats;
  stats.num_shards = coordinator_.NumShards();
  stats.live_shards = coordinator_.NumLiveShards();
  stats.routing_imbalance = coordinator_.RoutingImbalance();
  for (const std::string& id : coordinator_.ShardIds()) {
    const shard::WorkerShard* worker = coordinator_.shard(id);
    if (worker != nullptr) stats.requests_served += worker->RequestsServed();
  }
  stats.pending_requests = pending_.load(std::memory_order_relaxed);
  stats.traced_requests = tracer_->traced_requests();
  stats.slowest_request_ms = tracer_->slowest_ms();
  stats.scenarios_burning = static_cast<int>(slo_->Burning().size());
  return stats;
}

obs::Histogram* ServingClient::LatencyHistogramFor(
    const std::string& scenario) {
  MutexLock lock(latency_mu_);
  auto it = latency_hists_.find(scenario);
  if (it == latency_hists_.end()) {
    it = latency_hists_
             .emplace(scenario,
                      registry_->histogram(RequestLatencyName(scenario)))
             .first;
  }
  return it->second;
}

void ServingClient::RecordOutcome(const std::string& scenario,
                                  double latency_ms, const Status& status) {
  if (registry_->enabled()) {
    LatencyHistogramFor(scenario)->Observe(latency_ms);
  }
  slo_->Record(scenario, latency_ms, status.ok());
}

Result<LatencyStats> ServingClient::GetLatencyStats(
    const std::string& scenario) const {
  if (!coordinator_.IsDeployed(scenario)) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  const obs::HistogramSummary summary =
      registry_->histogram_summary(RequestLatencyName(scenario));
  LatencyStats stats;
  stats.num_requests = summary.count;
  stats.mean_ms = summary.mean;
  stats.p50_ms = summary.p50;
  stats.p95_ms = summary.p95;
  stats.p99_ms = summary.p99;
  stats.max_ms = summary.max;
  return stats;
}

Result<int64_t> ServingClient::FlopsPerSample(
    const std::string& scenario) const {
  return coordinator_.FlopsPerSample(scenario);
}

Status ServingClient::ExportBundle(const std::string& scenario,
                                   const std::string& path) const {
  return coordinator_.ExportBundle(scenario, path);
}

std::vector<std::string> ServingClient::ShardIds() const {
  return coordinator_.ShardIds();
}

int ServingClient::NumLiveShards() const {
  return coordinator_.NumLiveShards();
}

Status ServingClient::KillShard(const std::string& shard_id) {
  return coordinator_.KillShard(shard_id);
}

Status ServingClient::RejoinShard(const std::string& shard_id) {
  return coordinator_.RejoinShard(shard_id);
}

Status ServingClient::AddShard(const std::string& shard_id) {
  return coordinator_.AddShard(shard_id);
}

ServingClient::HealthReport ServingClient::GetHealth() const {
  HealthReport report;
  report.unservable_scenarios = coordinator_.UnservableScenarios();
  report.healthy = report.unservable_scenarios.empty();
  for (const std::string& id : coordinator_.ShardIds()) {
    const shard::WorkerShard* worker = coordinator_.shard(id);
    const bool dead = worker != nullptr && worker->dead();
    report.shard_states[id] = dead ? "dead" : "live";
    report.degraded = report.degraded || dead;
  }
  return report;
}

}  // namespace serving
}  // namespace alt
