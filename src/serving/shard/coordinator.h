#ifndef ALT_SRC_SERVING_SHARD_COORDINATOR_H_
#define ALT_SRC_SERVING_SHARD_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/serving/model_server.h"
#include "src/serving/shard/hash_ring.h"
#include "src/serving/shard/shard.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {
namespace shard {

struct CoordinatorOptions {
  /// Worker shards (each a ModelServer on its own thread). Ids are
  /// "shard-0".."shard-(n-1)".
  int num_shards = 4;
  /// Virtual nodes per shard on the consistent-hash ring.
  int vnodes_per_shard = 128;
  /// Replicas per scenario (1 = owner only).
  int replication = 1;
  /// Replicas for scenarios deployed with DeployOptions::hot — head
  /// scenarios whose traffic justifies wider fan-out.
  int hot_replication = 2;
  /// SubmitPredict backpressure per shard, the plane's one overload bound:
  /// a request every live replica's full queue rejects fails with
  /// kResourceExhausted. 0 = unbounded.
  int64_t max_queue_depth_per_shard = 0;
};

/// Control plane of the sharded serving plane. Owns N WorkerShards, the
/// consistent-hash ring that maps scenario ids to shards, and the scenario
/// table (version, replica group, and the version's model) that makes
/// rebalancing possible.
///
/// Each deployed scenario version is one immutable model: Deploy prepares
/// the caller's model once (eval mode, int8 quantization when asked), and
/// every replica serves that same model while the table keeps it as the
/// copy that rebalances and admissions place. Shards are threads of one
/// process, so nothing is cloned or serialized between them; ExportBundle
/// serializes the model on demand.
///
/// A model reaches a shard one way — for a broadcast deploy, a rebalance
/// and a warm admission alike — in two steps. The copy step runs, for each
/// target, everything that can fail before any shard swaps; the install
/// step hands the targets the model at the scenario's version and fails
/// only on a dead shard. A shard joins a replica group only once it holds
/// the group's version, so every replica a request can reach serves the
/// same model. A failed deploy installs nothing and consumes no version.
///
/// Predict balances over the scenario's live replicas with
/// power-of-two-choices on shard queue depth and fails over to the
/// remaining replicas only when a shard is gone: its dead flag is set, or
/// it answered kUnavailable. Any other error from a live shard (a model
/// fault, an undeployed scenario, a malformed request) is the same on every
/// replica and returns at once; it says nothing about the shard's health.
/// The failover loop is the continuation of each attempt, so it runs on the
/// worker thread that answered.
///
/// Shard lifecycle: KillShard marks a shard dead. The first requests that
/// reach it make its own worker thread rebalance the plane
/// (HandleShardDeath) before it answers them Unavailable: the shard leaves
/// the ring and the table's models are placed onto their new ring owners —
/// only keys the ring moved, which is the consistent-hash
/// minimal-disruption guarantee. A new owner whose copy fails stays out of
/// the group, which runs one replica short until a later placement. So no
/// caller's thread and no live shard's worker runs a rebalance or blocks on
/// one; only the requests that reached the dead shard wait for it. A
/// control-plane operation (Deploy, DeployEverywhere, RejoinShard, AddShard)
/// first runs that same rebalance for every dead shard still on the ring,
/// so it never waits for traffic. RejoinShard and AddShard are
/// deploy-then-route: the shard gets every model it will serve before its
/// virtual nodes enter the ring.
///
/// Locking: `control_mu_` serializes control-plane operations
/// (Deploy/Undeploy/rebalance) and is never held while scoring; `state_mu_`
/// guards brief ring/table reads on the data plane. Order: control_mu_
/// before state_mu_; model preparation and engine deploys run outside
/// state_mu_ so routing stays readable during a rebalance, and
/// ExportBundle serializes outside both.
///
/// Obs (shared registry):
///   serving/rebalance_events                    counter
///   serving/coordinator/rejoins                 counter: warm re-admissions
///   serving/coordinator/failovers               counter: replica fail-overs
///   serving/coordinator/no_replica_available    counter: exhausted groups
///   serving/admission/shed                      counter: requests every
///                                               replica's full queue
///                                               rejected (kResourceExhausted)
///   serving/admission/accepted                  counter: requests served
///   serving/coordinator/routing_imbalance       gauge: max/mean owner share
///   serving/coordinator/broadcast_ms            histogram: deploy fan-out
///   serving/quantized_deploys                   counter: int8 deploys
///   serving/quantization/max_prob_delta/<s>     gauge: calibration cost
///   (plus per-shard queue depth / request counters from WorkerShard)
class ShardCoordinator {
 public:
  /// One request through the failover loop: the caller fills the public
  /// fields and hands it to Submit, which owns it until `done` has run and
  /// allocates nothing more per request. A caller that already allocates
  /// per-request state can embed the Request there and pass it with
  /// std::shared_ptr's aliasing constructor. Submit moves `done` out before
  /// running it, so `done` may hold a reference to its own enclosing state.
  /// A sampled `ctx` is replaced by the coordinator span's context.
  class Request {
   public:
    std::string scenario;
    /// Must stay alive until `done` has run.
    const data::Batch* batch = nullptr;
    obs::RequestContext ctx;
    PredictDone done;

   private:
    friend class ShardCoordinator;
    ShardCoordinator* coordinator = nullptr;
    double span_start_us = 0.0;  // Recorder time; 0 = span not recorded.
    std::vector<WorkerShard*> replicas;  // Candidates in failover order.
    size_t next = 0;          // Next candidate of `replicas` to try.
    int rounds = 0;           // Rankings so far.
    bool rebalanced = false;  // A shard left the ring this round.
    Status last;              // The last failed attempt's; OK before any.
    WorkerShard* worker = nullptr;  // The shard of the current attempt.
    double attempt_us = 0.0;  // MonotonicMicros at this attempt's start.
  };

  explicit ShardCoordinator(CoordinatorOptions options = {},
                            obs::MetricsRegistry* registry = nullptr);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Broadcasts `model` to the scenario's replica group (ring owner first):
  /// prepares it (DeployOptions::quantize_int8 with its calibration gauge),
  /// runs the copy step for every replica, then installs, then commits the
  /// next version; a failed copy returns its error with nothing installed.
  /// DeployOptions::hot widens the group to hot_replication;
  /// DeployOptions::retry_transient retries each replica's copy. Like
  /// DeployEverywhere, RejoinShard and AddShard, it first rebalances away
  /// every killed shard still on the ring.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options = {});

  /// Deploy with a replica group of every shard on the ring (newcomers join
  /// it on admission) — for the resilience fallback/default scenarios that
  /// any shard must be able to answer locally.
  Status DeployEverywhere(const std::string& scenario,
                          std::unique_ptr<models::BaseModel> model,
                          const DeployOptions& options = {});

  Status Undeploy(const std::string& scenario);
  bool IsDeployed(const std::string& scenario) const;
  std::vector<std::string> Scenarios() const;

  /// Routes the request to its scenario's replica group
  /// (power-of-two-choices over queue depth), failing over while shards turn
  /// out to be gone, and runs its `done` once with the answer — on the
  /// worker thread that answered, or on this thread when no shard accepted
  /// the request; never under a coordinator or shard lock. An unknown
  /// scenario is NotFound (ServingClient owns default routing).
  ///
  /// A sampled `ctx` gets its wall time attributed along the way: `route`
  /// for replica ranking, `failover` for failed attempts (including any
  /// rebalance they trigger, and the final attempt of a request that ends
  /// in a model error), `shed_requeue` for attempts rejected with
  /// kResourceExhausted; each attempt is timed from its submit to its
  /// answer, and the successful one's time lands as queue_wait + compute on
  /// the shard side.
  void Submit(std::shared_ptr<Request> request);

  /// Submit, then wait for the answer.
  Result<std::vector<float>> Predict(
      const std::string& scenario, const data::Batch& batch,
      const obs::RequestContext& ctx = obs::RequestContext());

  /// Stops every shard: each serves what it has queued (paused or not) and
  /// fails later submits with Unavailable. Answers still in flight may fail
  /// over between shards until all have stopped, so no shard is destroyed
  /// before this returns. Idempotent; the destructor calls it.
  void Shutdown();

  /// Chaos hook: kills the worker. The rebalance triggers on the next
  /// predicts against the dead shard, exactly as a real crash would, and
  /// runs on the dead shard's own thread before it answers them (and its
  /// queued requests) Unavailable, so they fail over. The next
  /// control-plane operation runs it instead when no request comes first.
  Status KillShard(const std::string& shard_id);

  /// Warm re-join of a killed shard: revives the worker (clearing stale
  /// serving state), places the table's model of every scenario the ring
  /// with it will assign to it, at current versions, and only then adds its
  /// virtual nodes to the ring and recomputes the replica groups — routing
  /// shifts at most ~2/N of the key space, and no key ever routes to a shard
  /// that does not already hold its model. A failed copy aborts it with the
  /// ring unchanged and the shard dead again, so a later RejoinShard retries
  /// it. NotFound for unknown ids; FailedPrecondition when the shard is
  /// still live.
  Status RejoinShard(const std::string& shard_id);

  /// Elastic scale-up: creates a brand-new WorkerShard (with the plane's
  /// queue cap) and admits it through the same deploy-then-route protocol
  /// as RejoinShard. A failed admission leaves the new shard registered,
  /// dead and off the ring: RejoinShard(shard_id) admits it once the fault
  /// clears. AlreadyExists when the id is taken.
  Status AddShard(const std::string& shard_id);

  /// Deployed scenarios with no live replica left — requests to these fail
  /// until a re-join or re-deploy; the telemetry /healthz 503 signal.
  std::vector<std::string> UnservableScenarios() const;

  std::vector<std::string> ShardIds() const;
  /// Shards registered, dead or alive: the constructor's plus AddShard's.
  int NumShards() const;
  int NumLiveShards() const;
  const WorkerShard* shard(const std::string& shard_id) const;
  WorkerShard* shard(const std::string& shard_id);

  /// The scenario's current replica group (empty when unknown).
  std::vector<std::string> ReplicasOf(const std::string& scenario) const;
  /// The scenario's broadcast version; 0 when unknown.
  uint64_t VersionOf(const std::string& scenario) const;

  /// max/mean share of ring ownership over live shards (1.0 = perfectly
  /// uniform), sampled over the deployed scenarios; also published to the
  /// routing_imbalance gauge.
  double RoutingImbalance() const;

  Result<int64_t> FlopsPerSample(const std::string& scenario) const;
  /// Writes the scenario's model as an ALTM bundle to `path` atomically
  /// (util::AtomicWriteFile): a crash mid-export leaves the previous file.
  /// The bytes are SaveModelBundle's for the model the caller deployed,
  /// int8 or not: quantization keeps the fp32 weights.
  Status ExportBundle(const std::string& scenario,
                      const std::string& path) const;

  obs::MetricsRegistry* registry() const { return registry_; }
  const CoordinatorOptions& options() const { return options_; }

 private:
  struct ScenarioEntry {
    uint64_t version = 0;
    /// The prepared model every replica of `version` serves.
    std::shared_ptr<models::BaseModel> model;
    /// Deploy options minus the calibration pointer (dangling after the
    /// original call).
    DeployOptions options;
    /// DeployEverywhere: the group wants every shard (ReplicasWanted).
    bool everywhere = false;
    /// The replica group, in ring order: shards that hold `version`.
    std::vector<std::string> replicas;
  };

  /// Tries the request's remaining candidates, re-ranking after a
  /// rebalance, until a shard accepts it or the loop ends.
  void TryReplicas(std::shared_ptr<Request> request);
  /// Continuation of the request's accepted attempt.
  void OnAnswer(const std::shared_ptr<Request>& request,
                Result<std::vector<float>> result);
  /// Books a failed attempt on `worker` and returns whether the request
  /// moves on to the next candidate (else it ends with `status`).
  bool FailOver(Request* request, WorkerShard* worker, const Status& status);
  /// Runs the request's `done` with its answer.
  void Finish(Request* request, Result<std::vector<float>> result);

  /// The table's model of `scenario`; null when it is not deployed.
  std::shared_ptr<models::BaseModel> ModelOf(const std::string& scenario) const
      ALT_EXCLUDES(state_mu_);
  /// The worker registered under `shard_id` (dead or alive); nullptr when
  /// unknown. Takes state_mu_ briefly: the shard maps grow at runtime via
  /// AddShard.
  WorkerShard* FindShard(const std::string& shard_id) const
      ALT_EXCLUDES(state_mu_);
  /// The scenario's candidate replicas in failover order, first the pick
  /// of power-of-two-choices on queue depth (see the .cc file). Dead shards
  /// stay in the list so the predict loop can detect them and trigger the
  /// rebalance. Empty for unknown scenarios.
  std::vector<WorkerShard*> RankedReplicas(const std::string& scenario)
      ALT_EXCLUDES(state_mu_);
  /// The death hook of every worker, run on the dead shard's own thread:
  /// HandleShardDeathLocked, unless the shard was revived meanwhile.
  void HandleShardDeath(const std::string& shard_id)
      ALT_EXCLUDES(control_mu_, state_mu_);
  /// Removes a dead shard from the ring and regroups every scenario on the
  /// smaller ring. Idempotent.
  void HandleShardDeathLocked(const std::string& shard_id)
      ALT_REQUIRES(control_mu_) ALT_EXCLUDES(state_mu_);
  /// HandleShardDeathLocked for every dead shard still on the ring: the
  /// first step of each control-plane operation, so none of them waits for
  /// traffic to find a killed shard.
  void EvictDeadShardsLocked() ALT_REQUIRES(control_mu_)
      ALT_EXCLUDES(state_mu_);
  /// The shared warm-admission protocol of RejoinShard/AddShard: the
  /// regroup onto the ring with the shard, all or nothing, so the shard's
  /// vnodes join the ring only once it holds every model they route to it.
  /// On failure the shard is killed again, off the ring.
  Status AdmitShardLocked(WorkerShard* worker)
      ALT_REQUIRES(control_mu_) ALT_EXCLUDES(state_mu_);
  /// A new worker with the plane's queue cap and the death hook.
  std::unique_ptr<WorkerShard> NewWorker(const std::string& shard_id);
  /// The group size `entry` wants: every shard on the ring for
  /// DeployEverywhere, else hot_replication or replication.
  int ReplicasWanted(const ScenarioEntry& entry) const;
  /// The one body of Deploy and DeployEverywhere.
  Status Broadcast(const std::string& scenario,
                   std::unique_ptr<models::BaseModel> model,
                   const DeployOptions& options, bool everywhere)
      ALT_EXCLUDES(control_mu_, state_mu_);
  /// Readies the caller's model of a deploy to serve: eval mode, then int8
  /// quantization when `options` asks, calibrated against the fp32 scores
  /// of options.calibration when set. Runs once per deploy, whatever the
  /// group size.
  void PrepareModel(const std::string& scenario, const DeployOptions& options,
                    models::BaseModel* model) const;
  /// The copy step of one more shard that will serve `entry`'s version:
  /// what can fail before the install. The shard shares entry.model, so
  /// that is the serving/deploy fault point, retried under the entry's
  /// DeployOptions::retry_transient.
  Status CopyModel(const std::string& scenario, const ScenarioEntry& entry);
  /// The one way a model reaches shards. Runs the copy step for every shard
  /// of `route` outside entry.replicas (the shards that already hold
  /// entry.version), then installs entry.model on each. A failed copy
  /// returns its error with nothing installed when `all_or_nothing`, and
  /// otherwise is logged and leaves its shard out. Returns the new group:
  /// `route` minus the shards whose copy failed.
  Result<std::vector<std::string>> PlaceLocked(
      const std::string& scenario, const ScenarioEntry& entry,
      const std::vector<std::string>& route, bool all_or_nothing)
      ALT_REQUIRES(control_mu_) ALT_EXCLUDES(state_mu_);
  /// Moves every replica group to its route on `ring` through PlaceLocked,
  /// then makes `ring` the live ring and commits the groups in one step. An
  /// all_or_nothing failure returns before the commit.
  Status RegroupLocked(HashRing ring, bool all_or_nothing)
      ALT_REQUIRES(control_mu_) ALT_EXCLUDES(state_mu_);
  double ImbalanceLocked() const ALT_REQUIRES(state_mu_);
  void PublishImbalanceLocked() const ALT_REQUIRES(state_mu_);

  CoordinatorOptions options_;
  obs::MetricsRegistry* registry_;

  mutable Mutex control_mu_;
  mutable Mutex state_mu_;
  /// Shards are never destroyed before the coordinator — a dead shard stays
  /// allocated (parked) so in-flight submits resolve safely, and a re-join
  /// revives it in place. The containers themselves grow at runtime
  /// (AddShard), so the maps are guarded; the pointed-to objects are stable
  /// and safe to use outside the lock.
  std::vector<std::unique_ptr<WorkerShard>> shards_ ALT_GUARDED_BY(state_mu_);
  std::map<std::string, WorkerShard*> shards_by_id_ ALT_GUARDED_BY(state_mu_);
  HashRing ring_ ALT_GUARDED_BY(state_mu_);
  std::map<std::string, ScenarioEntry> table_ ALT_GUARDED_BY(state_mu_);

  std::atomic<uint64_t> pick_counter_{0};

  obs::Counter* rebalance_events_ = nullptr;       // Owned by the registry.
  obs::Counter* rejoins_ = nullptr;                // Owned by the registry.
  obs::Counter* failovers_ = nullptr;              // Owned by the registry.
  obs::Counter* no_replica_available_ = nullptr;   // Owned by the registry.
  obs::Counter* admission_shed_ = nullptr;         // Owned by the registry.
  obs::Counter* admission_accepted_ = nullptr;     // Owned by the registry.
  obs::Gauge* routing_imbalance_ = nullptr;        // Owned by the registry.
  obs::Histogram* broadcast_ms_ = nullptr;         // Owned by the registry.
};

}  // namespace shard
}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SHARD_COORDINATOR_H_
