#include "src/serving/serving_client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/serving/shard/hash_ring.h"
#include "src/util/logging.h"

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
  out.shed_high_watermark = options.shed_high_watermark;
  out.shed_low_watermark = options.shed_low_watermark;
  out.rejoin_stages = options.rejoin_stages;
  out.rejoin_stage_pause_ms = options.rejoin_stage_pause_ms;
  out.clock = options.clock;
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
    // injected clock that paces re-join and the supervisor.
    out.now_ms = [clock = options.clock] { return clock->NowMs(); };
  }
  return out;
}

std::string RequestLatencyName(const std::string& scenario) {
  return "serving/request/latency_ms/" + scenario;
}

/// Plane statuses: the plane, not the model, failed the call (no live
/// replica, every replica shedding, or the scenario is gone). They reach
/// the caller as they are and never count against a scenario's breaker.
bool IsPlaneStatus(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kNotFound;
}

}  // namespace

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
  for (const std::string& id : coordinator_.ShardIds()) EnsureBatcher(id);
  if (options_.enable_resilience) {
    EnableResilience(options_.resilience, options_.clock);
  }
  if (options_.enable_supervisor) {
    shard::SupervisorOptions supervisor = options_.supervisor;
    if (supervisor.clock == nullptr) supervisor.clock = options_.clock;
    supervisor_ = std::make_unique<shard::ShardSupervisor>(
        &coordinator_, supervisor, registry_);
    supervisor_->Start();  // alt_lint: allow(L008): void ShardSupervisor::Start
  }
}

ServingClient::ServingClient() : ServingClient(Options()) {}

ServingClient::~ServingClient() = default;

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
  const obs::RequestContext ctx = tracer_->StartRequest(scenario);
  Result<std::vector<float>> result = PlanePredict("", scenario, batch, ctx);
  const double total_ms = tracer_->CompleteRequest(ctx, result.status());
  RecordOutcome(scenario, total_ms, result.status());
  return result;
}

Result<std::vector<float>> ServingClient::PlanePredict(
    const std::string& preferred_shard, const std::string& scenario,
    const data::Batch& batch, const obs::RequestContext& ctx) {
  std::shared_ptr<Degradation> policy;
  {
    MutexLock lock(resilience_mu_);
    policy = degradation_;
  }
  if (policy == nullptr) {
    return coordinator_.PredictPreferring(preferred_shard, scenario, batch,
                                          ctx);
  }
  const ServingResilienceOptions& options = policy->options;
  std::string target = scenario;
  if (!coordinator_.IsDeployed(scenario)) {
    // Checked before any breaker exists, so unknown names never get one.
    if (options.default_scenario.empty() ||
        !coordinator_.IsDeployed(options.default_scenario)) {
      return coordinator_.PredictPreferring(preferred_shard, scenario, batch,
                                            ctx);
    }
    unknown_fallbacks_->Add(1);
    target = options.default_scenario;
  }
  resilience::CircuitBreaker* breaker = BreakerFor(policy.get(), target);
  if (!breaker->AllowRequest()) {
    return FallbackPredict(*policy, preferred_shard, target, batch, ctx);
  }
  const bool timed = options.predict_deadline_ms > 0.0;
  const double start_ms = timed ? policy->clock->NowMs() : 0.0;
  Result<std::vector<float>> result =
      coordinator_.PredictPreferring(preferred_shard, target, batch, ctx);
  if (result.ok()) {
    if (!timed ||
        policy->clock->NowMs() - start_ms <= options.predict_deadline_ms) {
      breaker->RecordSuccess();
      return result;
    }
    deadline_exceeded_->Add(1);
  } else if (IsPlaneStatus(result.status().code())) {
    return result;
  }
  breaker->RecordFailure();
  return FallbackPredict(*policy, preferred_shard, target, batch, ctx);
}

Result<std::vector<float>> ServingClient::FallbackPredict(
    const Degradation& policy, const std::string& preferred_shard,
    const std::string& target, const data::Batch& batch,
    const obs::RequestContext& ctx) {
  fallbacks_->Add(1);
  const std::string& fallback = policy.options.fallback_scenario;
  if (!fallback.empty() && fallback != target) {
    Result<std::vector<float>> result =
        coordinator_.PredictPreferring(preferred_shard, fallback, batch, ctx);
    if (result.ok()) return result;
    // The fallback failed too (possibly an injected fault); degrade one
    // more step to the constant prior rather than surface an error.
  }
  return std::vector<float>(static_cast<size_t>(batch.batch_size),
                            policy.options.fallback_prior);
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

void ServingClient::EnsureBatcher(const std::string& shard_id) {
  MutexLock lock(batchers_mu_);
  auto it = batchers_.find(shard_id);
  if (it != batchers_.end()) return;
  // Per-shard batchers keep micro-batch locality; the preferred-shard flush
  // falls back to replicas when the shard dies.
  batchers_[shard_id] = std::make_unique<BatchPredictor>(
      [this, shard_id](const std::string& scenario, const data::Batch& batch,
                       const obs::RequestContext& ctx) {
        return PlanePredict(shard_id, scenario, batch, ctx);
      },
      options_.batching, registry_);
  WireBatcher(batchers_[shard_id].get());
}

void ServingClient::WireBatcher(BatchPredictor* batcher) {
  batcher->set_tracer(tracer_.get());
  batcher->set_completion_hook(
      [this](const std::string& scenario, double latency_ms,
             const Status& status) {
        RecordOutcome(scenario, latency_ms, status);
      });
}

BatchPredictor* ServingClient::BatcherFor(const std::string& scenario) {
  // Owner-shard affinity keeps one scenario's requests coalescing in one
  // queue; unknown scenarios hash deterministically so resilience-default
  // traffic still batches.
  std::vector<std::string> replicas = coordinator_.ReplicasOf(scenario);
  MutexLock lock(batchers_mu_);
  std::string id;
  if (!replicas.empty()) {
    id = replicas.front();
  } else {
    const uint64_t hash = shard::HashRing::KeyHash(scenario);
    id = "shard-" +
         std::to_string(hash % static_cast<uint64_t>(batchers_.size()));
  }
  auto it = batchers_.find(id);
  ALT_CHECK(it != batchers_.end());
  return it->second.get();
}

std::future<Result<float>> ServingClient::EnqueuePredict(
    const std::string& scenario, Tensor profile,
    std::vector<int64_t> behavior) {
  // The batcher's resolve path completes the trace and fires the completion
  // hook once the flushed prediction lands, so the enqueue only mints the
  // context here.
  const obs::RequestContext ctx = tracer_->StartRequest(scenario);
  return BatcherFor(scenario)->Enqueue(scenario, std::move(profile),
                                       std::move(behavior), ctx);
}

void ServingClient::DrainBatchQueues() const {
  // Snapshot under the lock, poll outside it: batchers are never destroyed
  // once created, so the pointers stay valid while we wait.
  std::vector<BatchPredictor*> batchers;
  {
    MutexLock lock(batchers_mu_);
    batchers.reserve(batchers_.size());
    for (const auto& [id, batcher] : batchers_) {
      batchers.push_back(batcher.get());
    }
  }
  for (BatchPredictor* batcher : batchers) {
    while (batcher->PendingRequests() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
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
  stats.num_shards = options_.num_shards;
  stats.live_shards = coordinator_.NumLiveShards();
  stats.routing_imbalance = coordinator_.RoutingImbalance();
  for (const std::string& id : coordinator_.ShardIds()) {
    const shard::WorkerShard* worker = coordinator_.shard(id);
    if (worker != nullptr) stats.requests_served += worker->RequestsServed();
  }
  {
    MutexLock lock(batchers_mu_);
    for (const auto& [id, batcher] : batchers_) {
      stats.pending_batch_requests += batcher->PendingRequests();
    }
  }
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
  ALT_RETURN_IF_ERROR(coordinator_.RejoinShard(shard_id));
  EnsureBatcher(shard_id);  // Original-topology shards already have one.
  return Status::OK();
}

Status ServingClient::AddShard(const std::string& shard_id) {
  // The batcher exists before the shard's vnodes can enter the ring, so a
  // concurrent EnqueuePredict routed at the newcomer always finds a queue.
  EnsureBatcher(shard_id);
  return coordinator_.AddShard(shard_id);
}

ServingClient::HealthReport ServingClient::GetHealth() const {
  HealthReport report;
  report.unservable_scenarios = coordinator_.UnservableScenarios();
  report.healthy = report.unservable_scenarios.empty();
  for (const std::string& id : coordinator_.ShardIds()) {
    const shard::WorkerShard* worker = coordinator_.shard(id);
    report.shard_states[id] =
        (worker != nullptr && worker->dead()) ? "dead" : "live";
  }
  // The supervisor's view is richer (suspect / rejoining); overlay it.
  if (supervisor_ != nullptr) {
    for (const auto& [id, health] : supervisor_->States()) {
      report.shard_states[id] = shard::ShardHealthName(health);
    }
  }
  for (const auto& [id, state] : report.shard_states) {
    if (state != "live") report.degraded = true;
  }
  return report;
}

}  // namespace serving
}  // namespace alt
