#include "src/train/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "src/analysis/graph_audit.h"
#include "src/autograd/ops.h"
#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/opt/optimizer.h"
#include "src/resilience/checkpoint.h"
#include "src/util/logging.h"

namespace alt {
namespace train {

ag::Variable DistillationLoss(models::BaseModel* student,
                              const data::Batch& batch, float delta,
                              Rng* dropout_rng) {
  ag::Variable logits = student->Forward(batch, dropout_rng);
  ag::Variable hard = ag::Variable::Constant(batch.labels);
  ag::Variable loss = ag::BCEWithLogits(logits, hard);
  if (delta > 0.0f && batch.soft_labels.numel() > 0) {
    ag::Variable soft = ag::Variable::Constant(batch.soft_labels);
    loss = ag::Add(loss, ag::ScalarMul(ag::BCEWithLogits(logits, soft), delta));
  }
  return loss;
}

Result<TrainReport> TrainModel(models::BaseModel* model,
                               const data::ScenarioData& train_data,
                               const TrainOptions& options,
                               float distill_delta) {
  if (train_data.num_samples() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  if (options.epochs <= 0 || options.batch_size <= 0) {
    return Status::InvalidArgument("epochs and batch_size must be positive");
  }
  obs::ScopedMemoryTag memory_tag("train");
  model->SetTraining(true);
  opt::Adam optimizer(model->Parameters(), options.learning_rate);
  Rng rng(options.seed);
  Rng dropout_rng = rng.Fork();

  TrainReport report;
  double best_loss = std::numeric_limits<double>::infinity();
  int64_t bad_epochs = 0;
  bool audited = false;
  const bool checkpointing = !options.checkpoint_path.empty();
  const int64_t checkpoint_every = std::max<int64_t>(
      1, options.checkpoint_every_epochs);
  const resilience::LoopState state = {
      "trainer", model, {{"adam", &optimizer}},
      {{"rng", &rng}, {"dropout_rng", &dropout_rng}}};
  int64_t start_epoch = 0;
  if (checkpointing && options.resume) {
    ALT_ASSIGN_OR_RETURN(
        std::optional<Json> progress,
        resilience::RestoreLoopCheckpoint(
            options.checkpoint_path, state,
            {"next_epoch", "epochs_run", "first_epoch_loss",
             "final_epoch_loss", "bad_epochs"}));
    if (progress.has_value()) {
      start_epoch = progress->at("next_epoch").as_int();
      report.epochs_run = progress->at("epochs_run").as_int();
      report.first_epoch_loss = progress->at("first_epoch_loss").as_number();
      report.final_epoch_loss = progress->at("final_epoch_loss").as_number();
      bad_epochs = progress->at("bad_epochs").as_int();
      // Infinity (no finite loss yet) is not representable in JSON; absence
      // of the key means "still infinite".
      if (progress->at("best_loss").is_number()) {
        best_loss = progress->at("best_loss").as_number();
      }
      if (start_epoch >= options.epochs) {
        model->SetTraining(false);
        return report;
      }
    }
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* epoch_time = metrics.histogram("train/trainer/epoch_time_ms");
  obs::Histogram* step_time = metrics.histogram("train/trainer/step_time_ms");
  obs::Counter* steps_total = metrics.counter("train/trainer/steps_total");
  obs::Gauge* last_epoch_loss = metrics.gauge("train/trainer/last_epoch_loss");
  // Every step allocates the tensors the step before it freed; keep them
  // for it instead of returning their pages to the OS (memory_tracker.h).
  obs::ScopedTensorRecycling recycling;
  for (int64_t epoch = start_epoch; epoch < options.epochs; ++epoch) {
    ALT_TRACE_SPAN(epoch_span, "train/epoch");
    obs::ScopedTimerMs epoch_timer(epoch_time);
    double epoch_loss = 0.0;
    int64_t num_batches = 0;
    for (const auto& indices : data::ShuffledBatchIndices(
             train_data.num_samples(), options.batch_size, &rng)) {
      obs::ScopedTimerMs step_timer(step_time);
      steps_total->Add(1);
      data::Batch batch = MakeBatch(train_data, indices);
      optimizer.ZeroGrad();
      ag::Variable loss =
          DistillationLoss(model, batch, distill_delta, &dropout_rng);
      if (options.audit_graph && !audited) {
        audited = true;
        analysis::GraphReport audit =
            analysis::AuditModel(loss, model->Parameters());
        ALT_LOG(Info) << "first-batch graph audit:\n" << audit.ToString();
        if (!audit.clean()) {
          return Status::FailedPrecondition("graph audit failed: " +
                                            audit.errors.front());
        }
      }
      epoch_loss += loss.value()[0];
      ++num_batches;
      loss.Backward();
      if (options.grad_clip > 0.0f) {
        optimizer.ClipGradNorm(options.grad_clip);
      }
      optimizer.Step();
    }
    epoch_loss /= static_cast<double>(num_batches);
    last_epoch_loss->Set(epoch_loss);
    ALT_OBS_COUNTER_ADD("train/trainer/epochs_total", 1);
    if (epoch == 0) report.first_epoch_loss = epoch_loss;
    report.final_epoch_loss = epoch_loss;
    ++report.epochs_run;
    bool stop_early = false;
    if (options.patience > 0) {
      if (epoch_loss < best_loss - options.min_improvement) {
        best_loss = epoch_loss;
        bad_epochs = 0;
      } else if (++bad_epochs >= options.patience) {
        stop_early = true;
      }
    }
    if (checkpointing && ((epoch + 1) % checkpoint_every == 0 ||
                          epoch + 1 == options.epochs || stop_early)) {
      Json progress;
      progress["next_epoch"] = epoch + 1;
      progress["epochs_run"] = report.epochs_run;
      progress["first_epoch_loss"] = report.first_epoch_loss;
      progress["final_epoch_loss"] = report.final_epoch_loss;
      progress["bad_epochs"] = bad_epochs;
      if (std::isfinite(best_loss)) progress["best_loss"] = best_loss;
      resilience::SaveLoopCheckpoint(options.checkpoint_path, state,
                                     std::move(progress));
    }
    if (stop_early) break;
  }
  model->SetTraining(false);
  return report;
}

std::vector<float> Predict(models::BaseModel* model,
                           const data::ScenarioData& dataset,
                           int64_t batch_size) {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(dataset.num_samples()));
  std::vector<size_t> indices;
  for (int64_t start = 0; start < dataset.num_samples();
       start += batch_size) {
    const int64_t end = std::min(dataset.num_samples(), start + batch_size);
    indices.clear();
    for (int64_t i = start; i < end; ++i) {
      indices.push_back(static_cast<size_t>(i));
    }
    data::Batch batch = MakeBatch(dataset, indices);
    std::vector<float> probs = model->PredictProbs(batch);
    out.insert(out.end(), probs.begin(), probs.end());
  }
  return out;
}

double EvaluateAuc(models::BaseModel* model,
                   const data::ScenarioData& dataset) {
  return data::Auc(dataset.labels, Predict(model, dataset));
}

}  // namespace train
}  // namespace alt
