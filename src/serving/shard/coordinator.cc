#include "src/serving/shard/coordinator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <utility>

#include "src/resilience/fault_injection.h"
#include "src/resilience/retry.h"
#include "src/serving/model_store.h"
#include "src/util/atomic_file.h"
#include "src/util/logging.h"

namespace alt {
namespace serving {
namespace shard {

namespace {

/// splitmix64: spreads the pick counter into well-distributed sample
/// indices for power-of-two-choices (cheap, deterministic, lock-free).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Attributes a sampled request's current attempt, from its start to now,
/// to `segment`.
void BookAttempt(const obs::RequestContext& ctx, double attempt_us,
                 const char* segment) {
  if (!ctx.sampled()) return;
  ctx.trace->AddSegment(segment, (obs::MonotonicMicros() - attempt_us) / 1e3);
}

}  // namespace

ShardCoordinator::ShardCoordinator(CoordinatorOptions options,
                                   obs::MetricsRegistry* registry)
    : options_(options),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()),
      ring_(options.vnodes_per_shard),
      rebalance_events_(registry_->counter("serving/rebalance_events")),
      rejoins_(registry_->counter("serving/coordinator/rejoins")),
      failovers_(registry_->counter("serving/coordinator/failovers")),
      no_replica_available_(
          registry_->counter("serving/coordinator/no_replica_available")),
      admission_shed_(registry_->counter("serving/admission/shed")),
      admission_accepted_(registry_->counter("serving/admission/accepted")),
      routing_imbalance_(
          registry_->gauge("serving/coordinator/routing_imbalance")),
      broadcast_ms_(registry_->histogram("serving/coordinator/broadcast_ms")) {
  ALT_CHECK_GE(options_.num_shards, 1);
  if (options_.replication < 1) options_.replication = 1;
  if (options_.hot_replication < options_.replication) {
    options_.hot_replication = options_.replication;
  }
  MutexLock state(state_mu_);
  for (int i = 0; i < options_.num_shards; ++i) {
    const std::string id = "shard-" + std::to_string(i);
    shards_.push_back(NewWorker(id));
    shards_by_id_[id] = shards_.back().get();
    ring_.AddShard(id);  // alt_lint: allow(L008): void HashRing::AddShard
  }
  PublishImbalanceLocked();
}

ShardCoordinator::~ShardCoordinator() { Shutdown(); }

std::unique_ptr<WorkerShard> ShardCoordinator::NewWorker(
    const std::string& shard_id) {
  auto worker = std::make_unique<WorkerShard>(
      shard_id, registry_, [this, shard_id] { HandleShardDeath(shard_id); });
  worker->set_max_queue_depth(options_.max_queue_depth_per_shard);
  return worker;
}

WorkerShard* ShardCoordinator::FindShard(const std::string& shard_id) const {
  MutexLock state(state_mu_);
  auto it = shards_by_id_.find(shard_id);
  return it == shards_by_id_.end() ? nullptr : it->second;
}

int ShardCoordinator::ReplicasWanted(const ScenarioEntry& entry) const {
  if (entry.everywhere) return std::numeric_limits<int>::max();
  return entry.options.hot ? options_.hot_replication : options_.replication;
}

Status ShardCoordinator::Deploy(const std::string& scenario,
                                std::unique_ptr<models::BaseModel> model,
                                const DeployOptions& options) {
  return Broadcast(scenario, std::move(model), options, /*everywhere=*/false);
}

Status ShardCoordinator::DeployEverywhere(
    const std::string& scenario, std::unique_ptr<models::BaseModel> model,
    const DeployOptions& options) {
  return Broadcast(scenario, std::move(model), options, /*everywhere=*/true);
}

Status ShardCoordinator::Broadcast(const std::string& scenario,
                                   std::unique_ptr<models::BaseModel> model,
                                   const DeployOptions& options,
                                   bool everywhere) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  MutexLock control(control_mu_);
  EvictDeadShardsLocked();
  ScenarioEntry entry;
  entry.options = options;
  entry.options.calibration = nullptr;  // Dangling after this call.
  entry.everywhere = everywhere;
  std::vector<std::string> targets;
  {
    MutexLock state(state_mu_);
    auto it = table_.find(scenario);
    entry.version = (it != table_.end() ? it->second.version : 0) + 1;
    targets = ring_.RouteReplicas(scenario, ReplicasWanted(entry));
  }
  if (targets.empty()) {
    return Status::Unavailable("no live shards to deploy " + scenario);
  }
  obs::ScopedTimerMs timer(broadcast_ms_);
  PrepareModel(scenario, options, model.get());
  entry.model = std::move(model);
  // No shard holds the new version yet, so every target gets a copy, and a
  // failed copy fails the deploy before any shard swaps: the table and
  // every replica stay at the previous version.
  ALT_ASSIGN_OR_RETURN(entry.replicas,
                       PlaceLocked(scenario, entry, targets,
                                   /*all_or_nothing=*/true));
  MutexLock state(state_mu_);
  table_[scenario] = std::move(entry);
  PublishImbalanceLocked();
  return Status::OK();
}

void ShardCoordinator::PrepareModel(const std::string& scenario,
                                    const DeployOptions& options,
                                    models::BaseModel* model) const {
  model->SetTraining(false);
  if (!options.quantize_int8) return;
  // Score the calibration batch with the fp32 weights first: those probs
  // are the distillation soft labels the quantized model is checked
  // against.
  std::vector<float> soft_labels;
  if (options.calibration != nullptr) {
    soft_labels = model->PredictProbs(*options.calibration);
  }
  model->QuantizeForServing();
  registry_->counter("serving/quantized_deploys")->Add();
  if (options.calibration == nullptr) return;
  const std::vector<float> int8_probs =
      model->PredictProbs(*options.calibration);
  double max_delta = 0.0;
  for (size_t i = 0; i < soft_labels.size(); ++i) {
    max_delta = std::max(max_delta,
                         std::fabs(static_cast<double>(int8_probs[i]) -
                                   static_cast<double>(soft_labels[i])));
  }
  registry_->gauge("serving/quantization/max_prob_delta/" + scenario)
      ->Set(max_delta);
}

Status ShardCoordinator::CopyModel(const std::string& scenario,
                                   const ScenarioEntry& entry) {
  const std::function<Status()> attempt = [] {
    ALT_FAULT_RETURN_IF("serving/deploy");
    return Status::OK();
  };
  if (!entry.options.retry_transient) return attempt();
  resilience::RetryPolicy policy(entry.options.retry);
  return policy.Run("serving deploy " + scenario, attempt);
}

Result<std::vector<std::string>> ShardCoordinator::PlaceLocked(
    const std::string& scenario, const ScenarioEntry& entry,
    const std::vector<std::string>& route, bool all_or_nothing) {
  std::vector<std::string> group;
  std::vector<WorkerShard*> targets;
  for (const std::string& id : route) {
    if (!Contains(entry.replicas, id)) {
      const Status copied = CopyModel(scenario, entry);
      if (!copied.ok()) {
        if (all_or_nothing) return copied;
        ALT_LOG(Warning) << "copy of " << scenario << " v" << entry.version
                         << " for " << id << " failed, so " << id
                         << " stays out of its replica group: "
                         << copied.ToString();
        continue;
      }
      targets.push_back(FindShard(id));
    }
    group.push_back(id);
  }
  for (WorkerShard* worker : targets) {
    // Fails only on a shard that died since its copy. It stays in the
    // group: the rebalance its death triggers re-homes the scenario from
    // the committed entry.
    const Status installed =
        worker->Deploy(scenario, entry.model, entry.version);
    if (!installed.ok()) {
      ALT_LOG(Warning) << "install of " << scenario << " v" << entry.version
                       << " failed: " << installed.ToString();
    }
  }
  return group;
}

Status ShardCoordinator::RegroupLocked(HashRing ring, bool all_or_nothing) {
  struct Move {
    std::string scenario;
    ScenarioEntry entry;
    std::vector<std::string> route;
  };
  std::vector<Move> moves;
  {
    MutexLock state(state_mu_);
    for (const auto& [scenario, entry] : table_) {
      std::vector<std::string> route =
          ring.RouteReplicas(scenario, ReplicasWanted(entry));
      if (route != entry.replicas) {
        moves.push_back({scenario, entry, std::move(route)});
      }
    }
  }
  // Copies run outside state_mu_ so routing stays readable; control_mu_
  // keeps the table stable meanwhile.
  for (Move& move : moves) {
    ALT_ASSIGN_OR_RETURN(move.entry.replicas,
                         PlaceLocked(move.scenario, move.entry, move.route,
                                     all_or_nothing));
  }
  MutexLock state(state_mu_);
  ring_ = std::move(ring);
  for (Move& move : moves) {
    table_.at(move.scenario).replicas = std::move(move.entry.replicas);
  }
  PublishImbalanceLocked();
  return Status::OK();
}

Status ShardCoordinator::Undeploy(const std::string& scenario) {
  MutexLock control(control_mu_);
  std::vector<WorkerShard*> workers;
  {
    MutexLock state(state_mu_);
    if (table_.erase(scenario) == 0) {
      return Status::NotFound("scenario " + scenario + " not deployed");
    }
    PublishImbalanceLocked();
    for (const auto& worker : shards_) workers.push_back(worker.get());
  }
  // Every shard, not just the group: a replica an admission displaced keeps
  // its copy, at a version that a later Deploy, restarting at v1, could not
  // replace. A shard without the scenario reports NotFound, which is fine.
  for (WorkerShard* worker : workers) {
    Status status = worker->Undeploy(scenario);
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      ALT_LOG(Warning) << "undeploy of " << scenario << " on " << worker->id()
                       << " failed: " << status.ToString();
    }
  }
  return Status::OK();
}

bool ShardCoordinator::IsDeployed(const std::string& scenario) const {
  MutexLock state(state_mu_);
  return table_.count(scenario) > 0;
}

std::vector<std::string> ShardCoordinator::Scenarios() const {
  MutexLock state(state_mu_);
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const auto& [scenario, entry] : table_) out.push_back(scenario);
  return out;
}

std::vector<WorkerShard*> ShardCoordinator::RankedReplicas(
    const std::string& scenario) {
  std::vector<WorkerShard*> replicas;
  MutexLock state(state_mu_);
  auto it = table_.find(scenario);
  if (it == table_.end()) return replicas;
  const std::vector<std::string>& ids = it->second.replicas;
  replicas.reserve(ids.size());
  for (const std::string& id : ids) replicas.push_back(shards_by_id_.at(id));
  if (replicas.size() >= 2) {
    const uint64_t ticket =
        pick_counter_.fetch_add(1, std::memory_order_relaxed);
    const size_t n = replicas.size();
    size_t a = static_cast<size_t>(Mix64(ticket) % n);
    size_t b = static_cast<size_t>(Mix64(ticket ^ 0x5851f42d4c957f2dull) % n);
    if (a == b) b = (b + 1) % n;
    if (b < a) std::swap(a, b);
    // The shorter queue wins; a tie goes to the replica earlier in ring
    // order (the owner, when sampled), so an idle plane keeps a scenario's
    // requests together.
    const size_t best =
        replicas[b]->QueueDepth() < replicas[a]->QueueDepth() ? b : a;
    std::swap(replicas[0], replicas[best]);
  }
  return replicas;
}

void ShardCoordinator::Submit(std::shared_ptr<Request> request) {
  Request* r = request.get();
  r->coordinator = this;
  r->span_start_us = 0.0;
  r->replicas.clear();
  r->next = 0;
  r->rounds = 0;
  r->rebalanced = false;
  r->last = Status::OK();
  // Request-linked span for sampled requests; its context parents the
  // per-shard dispatch spans so Perfetto shows one causal lane per request.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (r->ctx.sampled() && recorder.enabled()) {
    r->ctx = obs::ChildContext(r->ctx);
    r->span_start_us = recorder.NowMicros();
  }
  TryReplicas(std::move(request));
}

Result<std::vector<float>> ShardCoordinator::Predict(
    const std::string& scenario, const data::Batch& batch,
    const obs::RequestContext& ctx) {
  auto answer = std::make_shared<std::promise<Result<std::vector<float>>>>();
  std::future<Result<std::vector<float>>> future = answer->get_future();
  auto request = std::make_shared<Request>();
  request->scenario = scenario;
  request->batch = &batch;
  request->ctx = ctx;
  request->done = [answer](Result<std::vector<float>> result) {
    answer->set_value(std::move(result));
  };
  Submit(std::move(request));
  return future.get();
}

void ShardCoordinator::TryReplicas(std::shared_ptr<Request> request) {
  Request* r = request.get();
  for (;;) {
    if (r->next == r->replicas.size()) {
      // Each extra round is only taken after a rebalance (a shard left the
      // ring), so one round per registered shard bounds the loop while
      // guaranteeing a request that keeps finding dead shards still reaches
      // the re-routed replicas — the zero-lost-requests contract of the
      // scale bench. Without a rebalance the candidate set cannot change.
      if (r->rounds > 0 && (!r->rebalanced || r->rounds > NumShards())) {
        break;
      }
      {
        obs::SegmentTimer route_timer(r->ctx, obs::segment::kRoute);
        r->replicas = RankedReplicas(r->scenario);
      }
      r->next = 0;
      r->rebalanced = false;
      ++r->rounds;
      if (r->replicas.empty()) break;
    }
    WorkerShard* worker = r->replicas[r->next++];
    if (r->ctx.sampled()) r->attempt_us = obs::MonotonicMicros();
    // Once accepted, the answer continues the loop on the shard's worker
    // thread (OnAnswer), so nothing here touches `r` afterwards. The
    // callback captures only `request`, which keeps it allocation-free. A
    // dead shard accepts too: its own worker rebalances the plane around it
    // (HandleShardDeath), then answers Unavailable, and the request fails
    // over; this thread never runs or blocks on the rebalance.
    r->worker = worker;
    const Status status = worker->SubmitPredict(
        r->scenario, *r->batch, r->ctx,
        [request](Result<std::vector<float>> result) {
          request->coordinator->OnAnswer(request, std::move(result));
        });
    if (status.ok()) return;
    if (!FailOver(r, worker, status)) {
      Finish(r, status);
      return;
    }
  }
  if (r->last.ok()) {
    r->last = Status::NotFound("scenario " + r->scenario + " not deployed");
  } else if (r->last.code() == StatusCode::kResourceExhausted) {
    // Every live replica's queue was full: reject the request loudly (the
    // caller sees kResourceExhausted, never a silent drop) and count it.
    admission_shed_->Add(1);
  } else if (r->last.code() != StatusCode::kNotFound) {
    no_replica_available_->Add(1);
  }
  Finish(r, r->last);
}

void ShardCoordinator::OnAnswer(const std::shared_ptr<Request>& request,
                                Result<std::vector<float>> result) {
  if (result.ok()) {
    admission_accepted_->Add(1);
    Finish(request.get(), std::move(result));
    return;
  }
  if (!FailOver(request.get(), request->worker, result.status())) {
    Finish(request.get(), std::move(result));
    return;
  }
  TryReplicas(request);
}

bool ShardCoordinator::FailOver(Request* r, WorkerShard* worker,
                                const Status& status) {
  r->last = status;
  if (status.code() == StatusCode::kResourceExhausted) {
    // A full queue: the shard is alive but over capacity. Another replica
    // may still have headroom, so keep trying the group — but this is load,
    // not failure: no rebalance.
    BookAttempt(r->ctx, r->attempt_us, obs::segment::kShedRequeue);
    return true;
  }
  const bool dead = worker->dead();
  if (status.code() != StatusCode::kUnavailable && !dead) {
    // A live shard answered with a model fault, a deploy-state error or a
    // malformed request. Every replica holds the same model, so failing over
    // would only repeat it, and it says nothing about the shard's health.
    BookAttempt(r->ctx, r->attempt_us, obs::segment::kFailover);
    return false;
  }
  failovers_->Add(1);
  // A dead shard answers only once its worker has rebalanced the plane, so
  // a new ranking sees the replica groups without it.
  if (dead) r->rebalanced = true;
  BookAttempt(r->ctx, r->attempt_us, obs::segment::kFailover);
  return true;
}

void ShardCoordinator::Finish(Request* r, Result<std::vector<float>> result) {
  if (r->span_start_us > 0.0) {
    obs::TraceRecorder::Global().RecordSpan("serving/coordinator/predict",
                                            r->ctx, r->span_start_us);
  }
  // Moved out first: `done` may own the state that embeds `r`.
  PredictDone done = std::move(r->done);
  done(std::move(result));
}

void ShardCoordinator::Shutdown() {
  std::vector<WorkerShard*> workers;
  {
    MutexLock state(state_mu_);
    for (const auto& worker : shards_) workers.push_back(worker.get());
  }
  for (WorkerShard* worker : workers) worker->Stop();
}

Status ShardCoordinator::KillShard(const std::string& shard_id) {
  WorkerShard* worker = FindShard(shard_id);
  if (worker == nullptr) {
    return Status::NotFound("unknown shard " + shard_id);
  }
  worker->Kill();
  return Status::OK();
}

void ShardCoordinator::HandleShardDeath(const std::string& shard_id) {
  MutexLock control(control_mu_);
  // RejoinShard revives under control_mu_: a shard it brought back while
  // this waited keeps its place on the ring.
  WorkerShard* worker = FindShard(shard_id);
  if (worker != nullptr && worker->dead()) HandleShardDeathLocked(shard_id);
}

void ShardCoordinator::HandleShardDeathLocked(const std::string& shard_id) {
  HashRing ring;
  {
    MutexLock state(state_mu_);
    if (!ring_.HasShard(shard_id)) return;  // Already rebalanced away.
    ring = ring_;
  }
  ring.RemoveShard(shard_id);
  rebalance_events_->Add(1);
  // Without all_or_nothing a failed copy only leaves its shard out of the
  // group, so the regroup itself cannot fail.
  const Status regrouped =
      RegroupLocked(std::move(ring), /*all_or_nothing=*/false);
  ALT_CHECK(regrouped.ok()) << regrouped.ToString();
}

void ShardCoordinator::EvictDeadShardsLocked() {
  std::vector<std::string> dead;
  {
    MutexLock state(state_mu_);
    for (const auto& [id, worker] : shards_by_id_) {
      if (worker->dead() && ring_.HasShard(id)) dead.push_back(id);
    }
  }
  for (const std::string& id : dead) HandleShardDeathLocked(id);
}

Status ShardCoordinator::RejoinShard(const std::string& shard_id) {
  MutexLock control(control_mu_);
  EvictDeadShardsLocked();
  WorkerShard* worker = FindShard(shard_id);
  if (worker == nullptr) {
    return Status::NotFound("unknown shard " + shard_id);
  }
  if (!worker->dead()) {
    return Status::FailedPrecondition("shard " + shard_id +
                                      " is live; nothing to rejoin");
  }
  ALT_RETURN_IF_ERROR(worker->Revive());
  return AdmitShardLocked(worker);
}

Status ShardCoordinator::AddShard(const std::string& shard_id) {
  MutexLock control(control_mu_);
  EvictDeadShardsLocked();
  if (FindShard(shard_id) != nullptr) {
    return Status::AlreadyExists("shard " + shard_id + " already exists");
  }
  std::unique_ptr<WorkerShard> owned = NewWorker(shard_id);
  WorkerShard* worker = owned.get();
  {
    MutexLock state(state_mu_);
    shards_by_id_[shard_id] = worker;
    shards_.push_back(std::move(owned));
  }
  return AdmitShardLocked(worker);
}

Status ShardCoordinator::AdmitShardLocked(WorkerShard* worker) {
  HashRing ring;
  {
    MutexLock state(state_mu_);
    ring = ring_;
  }
  ring.AddShard(worker->id());  // alt_lint: allow(L008): void HashRing method
  // Deploy-then-route: the shard gets every model the grown ring assigns it
  // before its virtual nodes join the live ring. A failed copy aborts the
  // admission with the ring unchanged, and the shard goes back to dead, so
  // RejoinShard admits it once the fault clears. Models already installed
  // are harmless: nothing routes to them, and the next Revive clears them.
  const Status placed =
      RegroupLocked(std::move(ring), /*all_or_nothing=*/true);
  if (!placed.ok()) {
    worker->Kill();
    return placed;
  }
  rejoins_->Add(1);
  return Status::OK();
}

std::vector<std::string> ShardCoordinator::UnservableScenarios() const {
  std::vector<std::string> out;
  MutexLock state(state_mu_);
  for (const auto& [scenario, entry] : table_) {
    bool live = false;
    for (const std::string& id : entry.replicas) {
      live = live || !shards_by_id_.at(id)->dead();
    }
    if (!live) out.push_back(scenario);
  }
  return out;
}

std::vector<std::string> ShardCoordinator::ShardIds() const {
  MutexLock state(state_mu_);
  std::vector<std::string> out;
  out.reserve(shards_by_id_.size());
  for (const auto& [id, worker] : shards_by_id_) out.push_back(id);
  return out;
}

int ShardCoordinator::NumShards() const {
  MutexLock state(state_mu_);
  return static_cast<int>(shards_.size());
}

int ShardCoordinator::NumLiveShards() const {
  MutexLock state(state_mu_);
  int live = 0;
  for (const auto& worker : shards_) {
    if (!worker->dead()) ++live;
  }
  return live;
}

const WorkerShard* ShardCoordinator::shard(const std::string& shard_id) const {
  return FindShard(shard_id);
}

WorkerShard* ShardCoordinator::shard(const std::string& shard_id) {
  return FindShard(shard_id);
}

std::vector<std::string> ShardCoordinator::ReplicasOf(
    const std::string& scenario) const {
  MutexLock state(state_mu_);
  auto it = table_.find(scenario);
  if (it == table_.end()) return {};
  return it->second.replicas;
}

uint64_t ShardCoordinator::VersionOf(const std::string& scenario) const {
  MutexLock state(state_mu_);
  auto it = table_.find(scenario);
  return it == table_.end() ? 0 : it->second.version;
}

double ShardCoordinator::ImbalanceLocked() const {
  if (ring_.NumShards() == 0) return 1.0;
  std::map<std::string, int64_t> owned;
  for (const std::string& id : ring_.Shards()) owned[id] = 0;
  int64_t total = 0;
  for (const auto& [scenario, entry] : table_) {
    if (entry.everywhere || entry.replicas.empty()) continue;
    auto it = owned.find(entry.replicas.front());
    if (it == owned.end()) continue;
    ++it->second;
    ++total;
  }
  if (total == 0) return 1.0;
  int64_t max_owned = 0;
  for (const auto& [id, count] : owned) {
    max_owned = std::max(max_owned, count);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(owned.size());
  return static_cast<double>(max_owned) / mean;
}

void ShardCoordinator::PublishImbalanceLocked() const {
  routing_imbalance_->Set(ImbalanceLocked());
}

double ShardCoordinator::RoutingImbalance() const {
  MutexLock state(state_mu_);
  PublishImbalanceLocked();
  return ImbalanceLocked();
}

std::shared_ptr<models::BaseModel> ShardCoordinator::ModelOf(
    const std::string& scenario) const {
  MutexLock state(state_mu_);
  auto it = table_.find(scenario);
  return it == table_.end() ? nullptr : it->second.model;
}

Result<int64_t> ShardCoordinator::FlopsPerSample(
    const std::string& scenario) const {
  const std::shared_ptr<models::BaseModel> model = ModelOf(scenario);
  if (model == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  return model->FlopsPerSample();
}

Status ShardCoordinator::ExportBundle(const std::string& scenario,
                                      const std::string& path) const {
  // The reference keeps the model alive across a concurrent redeploy.
  // Serializing only reads it, so workers keep scoring it meanwhile.
  const std::shared_ptr<models::BaseModel> model = ModelOf(scenario);
  if (model == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  return AtomicWriteFile(path, [&model](std::ostream* out) {
    return SaveModelBundle(model.get(), out);
  });
}

}  // namespace shard
}  // namespace serving
}  // namespace alt
