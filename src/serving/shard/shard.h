#ifndef ALT_SRC_SERVING_SHARD_SHARD_H_
#define ALT_SRC_SERVING_SHARD_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
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

/// Admission class of one SubmitPredict. The coordinator maps scenario
/// placement to priority: hot / everywhere-deployed scenarios submit as
/// kCritical and bypass the soft shed watermark (the hard queue cap still
/// applies); everything else is kNormal and sheds first under pressure.
enum class Admission { kNormal = 0, kCritical = 1 };

/// One worker of the sharded serving plane: a ModelServer engine owned by a
/// dedicated serving thread. The coordinator talks to a shard through two
/// planes:
///   - control plane: Deploy/Undeploy, version-gated so a stale broadcast
///     (a rebalance racing a newer Deploy) can never overwrite a newer
///     model — the swap itself is the engine's per-scenario atomic swap, so
///     readers see the old model or the new one, never a torn mix;
///   - data plane: SubmitPredict enqueues onto the shard's queue; the worker
///     thread scores batches in arrival order on its own engine.
///
/// Kill() simulates shard failure for chaos tests and the scale bench: the
/// queue drains with Status::Unavailable (callers fail over to replicas —
/// no request is silently lost) and every later submit fails fast. Revive()
/// undoes a Kill for warm re-join: the worker thread (which parks rather
/// than exit on Kill) resumes, with all serving state cleared so the
/// coordinator can re-deploy current versions from its cached bundles.
///
/// Admission control: beyond the hard `max_queue_depth` cap, the shard
/// sheds load between a high/low watermark pair with hysteresis — once the
/// queue reaches the high watermark, kNormal submissions are rejected with
/// Status::ResourceExhausted (never enqueued, never silently dropped) until
/// the queue drains to the low watermark. kCritical submissions (hot or
/// everywhere-deployed scenarios, decided by the coordinator) bypass the
/// soft watermark and are only bounded by the hard cap, so cold traffic is
/// shed before head traffic.
///
/// Obs (shared registry, instance-labelled by shard id):
///   serving/shard/queue_depth/<id>   gauge: requests queued + in flight
///   serving/shard/requests/<id>      counter: requests served by the engine
///   serving/shard/pressure/<id>      gauge: queue depth / high watermark
class WorkerShard {
 public:
  /// `registry == nullptr` selects the process-global registry. All shards
  /// of one coordinator share a registry, so per-scenario latency
  /// histograms aggregate across the fleet for free.
  WorkerShard(std::string id, obs::MetricsRegistry* registry = nullptr);
  ~WorkerShard();

  WorkerShard(const WorkerShard&) = delete;
  WorkerShard& operator=(const WorkerShard&) = delete;

  const std::string& id() const { return id_; }

  /// Version-gated deploy onto this shard's engine. `version` must be >= the
  /// scenario's current version on this shard (equal re-deploys are
  /// idempotent rebalance copies); a stale version is rejected with
  /// FailedPrecondition and a dead shard with Unavailable.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options, uint64_t version);

  Status Undeploy(const std::string& scenario);

  /// The scenario's deployed version on this shard; 0 when never deployed.
  uint64_t DeployedVersion(const std::string& scenario) const;

  /// Enqueues a predict for the worker thread. `batch` must stay alive until
  /// the future resolves (the coordinator blocks on it). A dead shard
  /// resolves immediately with Status::Unavailable; an over-watermark queue
  /// (soft shed, kNormal only) or a full queue (`max_queue_depth` > 0)
  /// resolves immediately with Status::ResourceExhausted — rejected at
  /// admission, never enqueued.
  ///
  /// A sampled `ctx` rides the task across the dispatcher queue: the worker
  /// thread attributes queue_wait + compute segments to the request (on
  /// success — a failed attempt's wall time is the coordinator's to claim as
  /// failover) and records a request-linked dispatch span.
  std::future<Result<std::vector<float>>> SubmitPredict(
      const std::string& scenario, const data::Batch& batch,
      Admission admission = Admission::kNormal,
      const obs::RequestContext& ctx = obs::RequestContext());

  /// Marks the shard dead: pending queue entries resolve with Unavailable,
  /// later submits fail fast, the worker thread parks. Idempotent.
  void Kill();
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Undoes Kill() for warm re-join: clears every deployment and version
  /// (the coordinator re-deploys current versions from its cached bundles)
  /// and re-opens admission. FailedPrecondition unless the shard is dead.
  Status Revive();

  /// Soft shed watermarks with hysteresis: shedding starts when the queue
  /// reaches `high` and stops once it drains to `low`. `high` <= 0 disables
  /// soft shedding. Relaxed atomics: the coordinator's control plane may
  /// retune them (e.g. on warm re-join) while submits are in flight; a
  /// submit racing the store sheds under either the old or new watermark.
  void set_shed_watermarks(int64_t high, int64_t low) {
    shed_high_watermark_.store(high, std::memory_order_relaxed);
    shed_low_watermark_.store(low, std::memory_order_relaxed);
  }

  /// True while the shard is between watermarks shedding kNormal load.
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }

  /// Test hook: while paused the worker thread stops dequeuing, so tests
  /// can build exact queue depths; admission behaves as in production.
  /// Kill() and destruction still drain normally.
  void PauseDispatchForTesting(bool paused);

  /// Requests queued or in flight — the load signal the coordinator's
  /// power-of-two-choices balancer compares.
  int64_t QueueDepth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  int64_t RequestsServed() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Backpressure limit for SubmitPredict; 0 (default) = unbounded.
  /// Relaxed atomic for the same control-plane-vs-submit race as the
  /// watermarks.
  void set_max_queue_depth(int64_t depth) {
    max_queue_depth_.store(depth, std::memory_order_relaxed);
  }

  /// The shard-local engine. Exposed for control-plane reads only
  /// (FlopsPerSample) — predictions go through SubmitPredict so they run on
  /// the shard's thread.
  const ModelServer* engine() const { return &engine_; }

 private:
  struct Task {
    std::string scenario;
    const data::Batch* batch = nullptr;
    std::promise<Result<std::vector<float>>> promise;
    obs::RequestContext ctx;    // Sampled requests only; default = inert.
    double enqueue_us = 0.0;    // MonotonicMicros at enqueue, when sampled.
  };

  void WorkerLoop();

  /// Advances the hysteresis state machine for a queue at `depth` and
  /// returns whether kNormal admissions are currently shed. Also refreshes
  /// the pressure gauge. Lock-free; racing updates settle on the next call.
  bool UpdateShedState(int64_t depth);

  const std::string id_;
  obs::MetricsRegistry* registry_;
  ModelServer engine_;

  std::atomic<bool> dead_{false};
  std::atomic<bool> shedding_{false};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> max_queue_depth_{0};
  std::atomic<int64_t> shed_high_watermark_{0};
  std::atomic<int64_t> shed_low_watermark_{0};
  obs::Gauge* queue_depth_gauge_ = nullptr;  // Owned by the registry.
  obs::Gauge* pressure_gauge_ = nullptr;     // Owned by the registry.
  obs::Counter* requests_total_ = nullptr;   // Owned by the registry.

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Task> queue_ ALT_GUARDED_BY(mu_);
  bool stopping_ ALT_GUARDED_BY(mu_) = false;
  bool paused_ ALT_GUARDED_BY(mu_) = false;

  mutable Mutex versions_mu_;
  std::map<std::string, uint64_t> versions_ ALT_GUARDED_BY(versions_mu_);

  std::thread worker_;  // Last member: joins in ~WorkerShard after state.
};

}  // namespace shard
}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SHARD_SHARD_H_
