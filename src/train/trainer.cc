#include "src/train/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

namespace {

/// Everything a resumed run must restore for bit-exact continuation:
/// weights, Adam moments, both RNG streams, and the progress counters.
Status SaveTrainerCheckpoint(const std::string& path,
                             models::BaseModel* model,
                             const opt::Adam& optimizer, const Rng& rng,
                             const Rng& dropout_rng, int64_t next_epoch,
                             const TrainReport& report, double best_loss,
                             int64_t bad_epochs) {
  resilience::CheckpointBuilder builder;
  Json& meta = builder.mutable_meta();
  meta["kind"] = "trainer";
  meta["next_epoch"] = next_epoch;
  meta["epochs_run"] = report.epochs_run;
  meta["first_epoch_loss"] = report.first_epoch_loss;
  meta["final_epoch_loss"] = report.final_epoch_loss;
  meta["bad_epochs"] = bad_epochs;
  // Infinity (no finite loss yet) is not representable in JSON; absence
  // of the key means "still infinite".
  if (std::isfinite(best_loss)) meta["best_loss"] = best_loss;
  ALT_ASSIGN_OR_RETURN(std::string weights,
                       resilience::ModuleWeightsBlob(model));
  builder.AddBlob("weights", std::move(weights));
  ALT_ASSIGN_OR_RETURN(std::string adam, resilience::AdamStateBlob(optimizer));
  builder.AddBlob("adam", std::move(adam));
  builder.AddBlob("rng", rng.SaveState());
  builder.AddBlob("dropout_rng", dropout_rng.SaveState());
  return builder.WriteToFile(path);
}

Status RestoreTrainerCheckpoint(const resilience::CheckpointReader& ckpt,
                                models::BaseModel* model,
                                opt::Adam* optimizer, Rng* rng,
                                Rng* dropout_rng, int64_t* next_epoch,
                                TrainReport* report, double* best_loss,
                                int64_t* bad_epochs) {
  if (!ckpt.meta().contains("kind") ||
      ckpt.meta().at("kind").as_string() != "trainer") {
    return Status::InvalidArgument("not a trainer checkpoint");
  }
  ALT_ASSIGN_OR_RETURN(std::string weights, ckpt.blob("weights"));
  ALT_RETURN_IF_ERROR(resilience::RestoreModuleWeights(model, weights));
  ALT_ASSIGN_OR_RETURN(std::string adam, ckpt.blob("adam"));
  ALT_RETURN_IF_ERROR(resilience::RestoreAdamState(optimizer, adam));
  ALT_ASSIGN_OR_RETURN(std::string rng_state, ckpt.blob("rng"));
  ALT_ASSIGN_OR_RETURN(std::string dropout_state, ckpt.blob("dropout_rng"));
  if (!rng->LoadState(rng_state) || !dropout_rng->LoadState(dropout_state)) {
    return Status::InvalidArgument("corrupt RNG state in checkpoint");
  }
  *next_epoch = ckpt.meta().at("next_epoch").as_int();
  report->epochs_run = ckpt.meta().at("epochs_run").as_int();
  report->first_epoch_loss = ckpt.meta().at("first_epoch_loss").as_number();
  report->final_epoch_loss = ckpt.meta().at("final_epoch_loss").as_number();
  *bad_epochs = ckpt.meta().at("bad_epochs").as_int();
  if (ckpt.meta().contains("best_loss")) {
    *best_loss = ckpt.meta().at("best_loss").as_number();
  }
  return Status::OK();
}

/// Shared epoch loop; `loss_fn` maps a batch to the scalar training loss.
template <typename LossFn>
Result<TrainReport> RunTraining(models::BaseModel* model,
                                const data::ScenarioData& train_data,
                                const TrainOptions& options, LossFn loss_fn) {
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
  int64_t start_epoch = 0;
  if (checkpointing && options.resume) {
    Result<resilience::CheckpointReader> loaded =
        resilience::CheckpointReader::ReadFromFile(options.checkpoint_path);
    if (loaded.ok()) {
      ALT_RETURN_IF_ERROR(RestoreTrainerCheckpoint(
          loaded.value(), model, &optimizer, &rng, &dropout_rng, &start_epoch,
          &report, &best_loss, &bad_epochs));
      ALT_LOG(Info) << "resumed training from " << options.checkpoint_path
                    << " at epoch " << start_epoch;
      if (start_epoch >= options.epochs) {
        model->SetTraining(false);
        return report;
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      // A missing checkpoint means a clean start; a corrupt one is an error.
      return loaded.status();
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
      ag::Variable loss = loss_fn(batch, &dropout_rng);
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
      const Status saved = SaveTrainerCheckpoint(
          options.checkpoint_path, model, optimizer, rng, dropout_rng,
          epoch + 1, report, best_loss, bad_epochs);
      // A failed save must not kill the run: training state is intact and
      // the previous checkpoint (if any) is still whole on disk.
      if (!saved.ok()) {
        ALT_LOG(Warning) << "checkpoint save failed (continuing): "
                         << saved.ToString();
      }
    }
    if (stop_early) break;
  }
  model->SetTraining(false);
  return report;
}

}  // namespace

ag::Variable DistillationLoss(models::BaseModel* student,
                              models::BaseModel* teacher,
                              const data::Batch& batch, float delta,
                              Rng* dropout_rng) {
  ag::Variable logits = student->Forward(batch, dropout_rng);
  ag::Variable hard = ag::Variable::Constant(batch.labels);
  ag::Variable loss = ag::BCEWithLogits(logits, hard);
  if (teacher != nullptr && delta > 0.0f) {
    ag::Variable soft = ag::Variable::Constant(Tensor::FromVector(
        {batch.batch_size, 1}, teacher->PredictProbs(batch)));
    loss = ag::Add(loss, ag::ScalarMul(ag::BCEWithLogits(logits, soft), delta));
  }
  return loss;
}

Result<TrainReport> TrainModel(models::BaseModel* model,
                               const data::ScenarioData& train_data,
                               const TrainOptions& options) {
  return RunTraining(
      model, train_data, options,
      [model](const data::Batch& batch, Rng* dropout_rng) {
        return DistillationLoss(model, nullptr, batch, 0.0f, dropout_rng);
      });
}

Result<TrainReport> TrainWithDistillation(models::BaseModel* student,
                                          models::BaseModel* teacher,
                                          const data::ScenarioData& train_data,
                                          float delta,
                                          const TrainOptions& options) {
  if (teacher == nullptr) {
    return Status::InvalidArgument("teacher must not be null");
  }
  return RunTraining(
      student, train_data, options,
      [student, teacher, delta](const data::Batch& batch, Rng* dropout_rng) {
        return DistillationLoss(student, teacher, batch, delta, dropout_rng);
      });
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
