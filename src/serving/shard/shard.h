#ifndef ALT_SRC_SERVING_SHARD_SHARD_H_
#define ALT_SRC_SERVING_SHARD_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <memory_resource>
#include <string>
#include <thread>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/serving/model_server.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {
namespace shard {

/// Completion of one accepted SubmitPredict: runs exactly once, on the
/// shard's worker thread, with the request's own scores (one per row) or its
/// error. No shard or coordinator lock is held while it runs.
using PredictDone = std::function<void(Result<std::vector<float>>)>;

/// Rows one engine call may merge. A request of more rows runs alone.
inline constexpr int64_t kMaxMergedRows = 16;

/// One worker of the sharded serving plane: a ModelServer engine owned by a
/// dedicated serving thread. The coordinator talks to a shard through two
/// planes:
///   - control plane: Deploy/Undeploy. Deploy is the install step of the
///     coordinator's placements: it installs the scenario version's shared
///     model, which the coordinator already prepared, and fails only on a
///     dead shard. The engine gates the version and swaps the model in one
///     critical section, so a stale placement can never overwrite a newer
///     model, and readers see the old model or the new one, never a torn
///     mix;
///   - data plane: SubmitPredict enqueues onto the shard's queue. The worker
///     thread is the plane's only batcher: as soon as it is free it takes
///     the front request plus every later queued request of the same
///     scenario, in queue order, while the merged rows stay within
///     kMaxMergedRows, scores them in one engine call and completes each
///     request with its own rows. It never waits for more work.
///
/// Kill() simulates shard failure for chaos tests and the scale bench. The
/// worker thread keeps running and answers every request queued at the kill
/// or submitted since with Status::Unavailable, even while dispatch is
/// paused, so callers fail over and no request is silently lost. Before the
/// first of those answers it runs the `on_death` hook (the coordinator's
/// rebalance), so they fail over to a plane that already routes around this
/// shard. Kill() itself runs neither, so it is safe to call under the
/// coordinator's locks. Revive() undoes a Kill for warm re-join: the worker
/// serves again, with all serving state cleared so the coordinator can
/// re-deploy current versions from its scenario table.
///
/// Overload: with `max_queue_depth` set, a submission that finds the queue
/// full is rejected with Status::ResourceExhausted, never enqueued and never
/// silently dropped. That cap is the plane's one overload bound.
///
/// Obs (shared registry, instance-labelled by shard id):
///   serving/shard/queue_depth/<id>   gauge: requests queued + in flight
///   serving/shard/requests/<id>      counter: requests run by the engine
///   serving/batch_predictor/batch_size  histogram: requests per engine
///                                    call (the name altbench reads)
class WorkerShard {
 public:
  /// `registry == nullptr` selects the process-global registry. All shards
  /// of one coordinator share a registry, so per-scenario latency
  /// histograms aggregate across the fleet for free. `on_death`, when set,
  /// runs on this shard's worker thread once after each Kill(), before the
  /// worker answers the first request with Unavailable.
  WorkerShard(std::string id, obs::MetricsRegistry* registry = nullptr,
              std::function<void()> on_death = nullptr);
  ~WorkerShard();

  WorkerShard(const WorkerShard&) = delete;
  WorkerShard& operator=(const WorkerShard&) = delete;

  const std::string& id() const { return id_; }

  /// Installs `model` at `version` through the engine's gated swap. A dead
  /// shard is Unavailable; a version older than the installed one is
  /// FailedPrecondition (an equal version replaces it).
  Status Deploy(const std::string& scenario,
                std::shared_ptr<models::BaseModel> model, uint64_t version);

  Status Undeploy(const std::string& scenario) {
    return engine_.Undeploy(scenario);
  }

  /// The scenario's deployed version on this shard; 0 when none is.
  uint64_t DeployedVersion(const std::string& scenario) const {
    return engine_.DeployedVersion(scenario);
  }

  /// Enqueues a predict for the worker thread and returns OK; `done` then
  /// runs once on the worker thread, and `batch` must stay alive until it
  /// has. A dead shard accepts it too, and its worker answers Unavailable
  /// once `on_death` has run. Otherwise returns the rejection and never runs
  /// `done`: a stopped shard is Status::Unavailable; a full queue
  /// (`max_queue_depth` > 0) is Status::ResourceExhausted.
  ///
  /// A sampled `ctx` rides the task across the queue: the worker thread
  /// attributes queue_wait + compute segments to the request (on success — a
  /// failed attempt's wall time is the coordinator's to claim as failover)
  /// and records a request-linked dispatch span.
  Status SubmitPredict(const std::string& scenario, const data::Batch& batch,
                       const obs::RequestContext& ctx, PredictDone done);

  /// Marks the shard dead: the worker answers the queued requests, and every
  /// later one, with Unavailable, running `on_death` before the first of
  /// them. Idempotent.
  void Kill();
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Undoes Kill() for warm re-join: clears every deployment and version
  /// (the coordinator re-deploys current versions from its scenario table)
  /// and re-opens admission. FailedPrecondition unless the shard is dead.
  Status Revive();

  /// Stops the worker thread once it has served everything queued (paused
  /// or not); later submits fail with Unavailable. Idempotent. Completions
  /// may submit to other shards, so a plane stops every shard before it
  /// destroys any.
  void Stop();

  /// Test hook: while paused the worker thread stops dequeuing, so tests
  /// can build exact queue depths; admission behaves as in production.
  /// Kill() and Stop() still drain normally.
  void PauseDispatchForTesting(bool paused);

  /// Requests queued or in flight — the load signal the coordinator's
  /// power-of-two-choices balancer compares.
  int64_t QueueDepth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  /// Requests the engine has run, each counted once however it was merged.
  int64_t RequestsServed() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Backpressure limit for SubmitPredict; 0 (default) = unbounded.
  /// Relaxed atomic: it may be set while submits are in flight.
  void set_max_queue_depth(int64_t depth) {
    max_queue_depth_.store(depth, std::memory_order_relaxed);
  }

 private:
  struct Task {
    /// Queued; taken into the worker's current engine call, which reads it
    /// in place outside mu_; or a hole (served, or orphaned by Kill) that
    /// the worker pops once it reaches the front of queue_.
    enum class State { kQueued, kTaken, kHole };
    std::string scenario;
    const data::Batch* batch = nullptr;
    int64_t rows = 1;  // Its weight against kMaxMergedRows: >= 1.
    PredictDone done;
    obs::RequestContext ctx;  // Sampled requests only; default = inert.
    double enqueue_us = 0.0;  // MonotonicMicros at enqueue, when sampled.
    State state = State::kQueued;
  };

  void WorkerLoop();
  /// Takes the front request and the later queued requests of its scenario
  /// into `tasks`, in queue order, while the merged rows fit within
  /// kMaxMergedRows. Only pointers move under mu_: the requests stay in
  /// queue_ until the worker has served them.
  void TakeMergedLocked(std::vector<Task*>* tasks) ALT_REQUIRES(mu_);
  /// Scores `tasks` (one scenario) in one engine call and completes each.
  void Dispatch(const std::vector<Task*>& tasks);
  /// Releases `n` requests from the queue-depth accounting.
  void Release(int64_t n);

  const std::string id_;
  obs::MetricsRegistry* registry_;
  const std::function<void()> on_death_;
  ModelServer engine_;

  std::atomic<bool> dead_{false};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> max_queue_depth_{0};
  obs::Gauge* queue_depth_gauge_ = nullptr;  // Owned by the registry.
  obs::Counter* requests_total_ = nullptr;   // Owned by the registry.
  obs::Histogram* batch_size_ = nullptr;     // Owned by the registry.

  mutable Mutex mu_;
  CondVar cv_;
  /// Recycles queue_'s blocks (each holds a few requests), so neither the
  /// submitting threads nor the worker call malloc or free while holding
  /// the lock the other side needs.
  std::pmr::unsynchronized_pool_resource queue_memory_ ALT_GUARDED_BY(mu_);
  /// Requests in arrival order. Only its ends change, so the worker's
  /// pointers into it stay valid.
  std::pmr::deque<Task> queue_ ALT_GUARDED_BY(mu_){&queue_memory_};
  /// Requests queued before the last Kill() or submitted while dead: the
  /// worker fails them with Unavailable, paused or not, so a Revive() never
  /// serves them.
  std::deque<Task> orphans_ ALT_GUARDED_BY(mu_);
  /// Set by Kill(): the worker runs on_death_ before failing the next
  /// orphans.
  bool death_pending_ ALT_GUARDED_BY(mu_) = false;
  bool stopping_ ALT_GUARDED_BY(mu_) = false;
  bool paused_ ALT_GUARDED_BY(mu_) = false;

  std::thread worker_;  // Last member: joined by Stop() / ~WorkerShard.
};

}  // namespace shard
}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SHARD_SHARD_H_
