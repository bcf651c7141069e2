#ifndef ALT_SRC_TRAIN_TRAINER_H_
#define ALT_SRC_TRAIN_TRAINER_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/data/metrics.h"
#include "src/models/base_model.h"
#include "src/util/status.h"

namespace alt {
namespace train {

/// Options for supervised training runs. The defaults follow the paper's
/// implementation details (Adam, lr 0.001, cross-entropy), with batch size
/// and epochs scaled to the synthetic workloads.
struct TrainOptions {
  int64_t epochs = 3;
  int64_t batch_size = 64;
  float learning_rate = 1e-3f;
  /// Global gradient-norm clip; <= 0 disables.
  float grad_clip = 5.0f;
  uint64_t seed = 1;
  /// Stop early when the epoch training loss fails to improve by at least
  /// `min_improvement` for `patience` consecutive epochs; 0 disables.
  int64_t patience = 0;
  float min_improvement = 1e-4f;
  /// Debug: statically audit the recorded loss graph on the first batch
  /// (analysis::AuditModel) and fail with FailedPrecondition on hard
  /// violations (cycle, grad-shape mismatch, unreachable trainable
  /// parameter). The report is logged at Info level.
  bool audit_graph = false;
  /// Checkpoint/resume for long runs. A non-empty `checkpoint_path` makes
  /// the run atomically overwrite that file with weights + Adam moments +
  /// RNG streams + progress every `checkpoint_every_epochs` completed
  /// epochs. With `resume` true, a run finding a checkpoint at that path
  /// restores it and continues to `epochs` total — bitwise identical to
  /// the uninterrupted run with the same seed (no checkpoint: clean start).
  std::string checkpoint_path;
  int64_t checkpoint_every_epochs = 1;
  bool resume = false;
};

/// Summary of one training run.
struct TrainReport {
  int64_t epochs_run = 0;
  double first_epoch_loss = 0.0;
  double final_epoch_loss = 0.0;
};

/// The loss of Eq. 5 on one batch, the one every training loop builds:
///   L = CE(y', y_hard) + delta * CE(y'_soft, y_soft)
/// where y' is `student`'s forward pass (dropout from `dropout_rng`) and
/// y_soft the batch's soft-label column: the teacher's predicted
/// probabilities, which the caller scored once, in eval mode, into
/// data::ScenarioData::soft_labels. A batch without the column, or
/// delta <= 0, leaves the hard-label term alone.
ag::Variable DistillationLoss(models::BaseModel* student,
                              const data::Batch& batch, float delta,
                              Rng* dropout_rng);

/// Trains `model` (Adam) with DistillationLoss at `distill_delta`; the
/// default 0 trains on the hard labels alone.
Result<TrainReport> TrainModel(models::BaseModel* model,
                               const data::ScenarioData& train_data,
                               const TrainOptions& options,
                               float distill_delta = 0.0f);

/// Eval-mode predictions for the whole dataset, batched to bound memory.
std::vector<float> Predict(models::BaseModel* model,
                           const data::ScenarioData& dataset,
                           int64_t batch_size = 256);

/// AUC of `model` on `dataset`.
double EvaluateAuc(models::BaseModel* model, const data::ScenarioData& dataset);

}  // namespace train
}  // namespace alt

#endif  // ALT_SRC_TRAIN_TRAINER_H_
