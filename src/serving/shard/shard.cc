#include "src/serving/shard/shard.h"

#include <algorithm>
#include <utility>

namespace alt {
namespace serving {
namespace shard {

WorkerShard::WorkerShard(std::string id, obs::MetricsRegistry* registry,
                         std::function<void()> on_death)
    : id_(std::move(id)),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()),
      on_death_(std::move(on_death)),
      queue_depth_gauge_(
          registry_->gauge("serving/shard/queue_depth/" + id_)),
      requests_total_(registry_->counter("serving/shard/requests/" + id_)),
      batch_size_(registry_->histogram("serving/batch_predictor/batch_size",
                                       {1, 2, 4, 8, kMaxMergedRows})),
      worker_([this] { WorkerLoop(); }) {}

WorkerShard::~WorkerShard() { Stop(); }

void WorkerShard::Stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  // The worker leaves only with an empty queue, and no submit is accepted
  // once stopping_ is set, so every accepted request has completed.
  if (worker_.joinable()) worker_.join();
}

Status WorkerShard::Deploy(const std::string& scenario,
                           std::shared_ptr<models::BaseModel> model,
                           uint64_t version) {
  if (dead()) {
    return Status::Unavailable("shard " + id_ + " is dead");
  }
  return engine_.Deploy(scenario, std::move(model), version);
}

Status WorkerShard::SubmitPredict(const std::string& scenario,
                                  const data::Batch& batch,
                                  const obs::RequestContext& ctx,
                                  PredictDone done) {
  // A dead shard admits everything: its worker answers Unavailable.
  const int64_t depth = queue_depth_.load(std::memory_order_relaxed);
  const int64_t max_depth = max_queue_depth_.load(std::memory_order_relaxed);
  if (max_depth > 0 && depth >= max_depth && !dead()) {
    return Status::ResourceExhausted(
        "shard " + id_ + " queue full (depth " + std::to_string(depth) +
        " >= cap " + std::to_string(max_depth) + ")");
  }
  Task task;
  task.scenario = scenario;
  task.batch = &batch;
  task.rows = std::max<int64_t>(1, batch.batch_size);
  task.done = std::move(done);
  if (ctx.sampled()) {
    task.ctx = ctx;
    task.enqueue_us = obs::MonotonicMicros();
  }
  // Counted before it is queued, so the worker's release never runs ahead.
  const int64_t queued = queue_depth_.fetch_add(1) + 1;
  bool was_empty;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      queue_depth_.fetch_sub(1);
      return Status::Unavailable("shard " + id_ + " stopped");
    }
    if (dead()) {
      // Checked under mu_: Kill() flips dead_ under it, so a request is
      // either queued before the kill (and orphaned by it) or orphaned here.
      was_empty = orphans_.empty();
      orphans_.push_back(std::move(task));
    } else {
      was_empty = queue_.empty();
      queue_.push_back(std::move(task));
    }
  }
  queue_depth_gauge_->Set(static_cast<double>(queued));
  // A worker waits only with nothing to do (or while paused, until resumed),
  // so only the first request of a backlog needs to wake it.
  if (was_empty) cv_.NotifyOne();
  return Status::OK();
}

void WorkerShard::Kill() {
  {
    MutexLock lock(mu_);
    if (dead()) return;
    dead_.store(true, std::memory_order_release);
    death_pending_ = true;
    for (Task& task : queue_) {
      if (task.state != Task::State::kQueued) continue;
      orphans_.push_back(std::move(task));
      task.state = Task::State::kHole;
    }
  }
  cv_.NotifyAll();
}

Status WorkerShard::Revive() {
  if (!dead()) {
    return Status::FailedPrecondition("shard " + id_ + " is not dead");
  }
  // Drop all stale serving state: the coordinator re-deploys every assigned
  // scenario from its table at current versions, and anything the
  // engine held from before the failure could conflict with scenarios
  // re-created at restarted versions while this shard was out.
  for (const std::string& scenario : engine_.Scenarios()) {
    ALT_RETURN_IF_ERROR(engine_.Undeploy(scenario));
  }
  dead_.store(false, std::memory_order_release);
  return Status::OK();
}

void WorkerShard::PauseDispatchForTesting(bool paused) {
  {
    MutexLock lock(mu_);
    paused_ = paused;
  }
  cv_.NotifyAll();
}

void WorkerShard::WorkerLoop() {
  // The current engine call's requests, read in place outside mu_. Kill()
  // and Stop() leave taken requests alone; they become holes under mu_ once
  // served.
  std::vector<Task*> taken;
  taken.reserve(static_cast<size_t>(kMaxMergedRows));
  std::vector<Task> orphaned;
  for (;;) {
    bool died = false;
    {
      MutexLock lock(mu_);
      for (Task* task : taken) task->state = Task::State::kHole;
      taken.clear();
      while (!queue_.empty() && queue_.front().state == Task::State::kHole) {
        queue_.pop_front();
      }
      while (orphans_.empty() && (queue_.empty() || paused_) && !stopping_) {
        cv_.Wait(mu_);
      }
      if (!orphans_.empty()) {
        died = death_pending_;
        death_pending_ = false;
        for (Task& task : orphans_) orphaned.push_back(std::move(task));
        orphans_.clear();
      } else if (queue_.empty()) {
        return;  // stopping_ with a drained queue.
      } else {
        TakeMergedLocked(&taken);
      }
    }
    if (!taken.empty()) {
      Dispatch(taken);
      continue;
    }
    // The rebalance runs here, on the dead shard's own thread, so it never
    // blocks a caller's thread or a live shard's worker; and before the
    // orphans fail over, so they re-rank against a ring without this shard.
    if (died && on_death_ != nullptr) on_death_();
    Release(static_cast<int64_t>(orphaned.size()));
    for (Task& task : orphaned) {
      task.done(Status::Unavailable("shard " + id_ + " is dead"));
    }
    orphaned.clear();
  }
}

void WorkerShard::TakeMergedLocked(std::vector<Task*>* tasks) {
  // The front request is queued (holes are popped first). A request counts
  // at least one row, so a call merges at most kMaxMergedRows requests.
  const std::string& scenario = queue_.front().scenario;
  int64_t rows = 0;
  for (Task& task : queue_) {
    if (task.state != Task::State::kQueued || task.scenario != scenario) {
      continue;
    }
    if (!tasks->empty() && rows + task.rows > kMaxMergedRows) break;
    rows += task.rows;
    task.state = Task::State::kTaken;
    tasks->push_back(&task);
  }
}

void WorkerShard::Dispatch(const std::vector<Task*>& tasks) {
  bool sampled = false;
  std::vector<const data::Batch*> batches;
  batches.reserve(tasks.size());
  for (const Task* task : tasks) {
    batches.push_back(task->batch);
    sampled = sampled || task->ctx.sampled();
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const double start_us = sampled ? obs::MonotonicMicros() : 0.0;
  const double span_start_us =
      sampled && recorder.enabled() ? recorder.NowMicros() : 0.0;
  std::vector<Result<std::vector<float>>> results =
      engine_.PredictEach(tasks.front()->scenario, batches);
  const double end_us = sampled ? obs::MonotonicMicros() : 0.0;
  const int64_t n = static_cast<int64_t>(tasks.size());
  requests_total_->Add(n);
  requests_served_.fetch_add(n, std::memory_order_relaxed);
  batch_size_->Observe(static_cast<double>(n));
  Release(n);
  for (size_t i = 0; i < tasks.size(); ++i) {
    Task& task = *tasks[i];
    if (task.ctx.sampled()) {
      if (span_start_us > 0.0) {
        recorder.RecordSpan("serving/shard/dispatch",
                            obs::ChildContext(task.ctx), span_start_us);
      }
      // Attribute queue_wait + compute only on success: a failed attempt's
      // wall time belongs to the coordinator's failover/shed segments, so
      // segments never double-count against the end-to-end latency.
      if (results[i].ok()) {
        task.ctx.trace->AddSegment(obs::segment::kQueueWait,
                                   (start_us - task.enqueue_us) / 1e3);
        task.ctx.trace->AddSegment(obs::segment::kCompute,
                                   (end_us - start_us) / 1e3);
      }
    }
    task.done(std::move(results[i]));
    task.done = nullptr;  // Releases the request's state here, not under mu_.
  }
}

void WorkerShard::Release(int64_t n) {
  const int64_t depth = queue_depth_.fetch_sub(n) - n;
  queue_depth_gauge_->Set(static_cast<double>(depth));
}

}  // namespace shard
}  // namespace serving
}  // namespace alt
