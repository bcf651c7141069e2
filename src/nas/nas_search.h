#ifndef ALT_SRC_NAS_NAS_SEARCH_H_
#define ALT_SRC_NAS_NAS_SEARCH_H_

#include <memory>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/nas/arch.h"
#include "src/nas/supernet.h"
#include "src/train/trainer.h"

namespace alt {
namespace nas {

/// Options of the budget-limited NAS (Sec. III-D).
struct NasSearchOptions {
  SupernetOptions supernet;
  /// Supernet training epochs (alternating weight/arch steps). The arch
  /// logits need enough steps to become informative: with near-uniform
  /// probabilities the budgeted extraction degenerates to the cheapest ops.
  int64_t search_epochs = 4;
  int64_t batch_size = 64;
  float weight_lr = 1e-3f;
  float arch_lr = 1e-2f;
  /// Trade-off lambda of Eq. 4 (weight of the normalized FLOPs loss). The
  /// hard budget is enforced at extraction; lambda only biases the search.
  float lambda_flops = 0.05f;
  /// FLOPs budget for the derived architecture; <= 0 disables. The paper
  /// sets this to the predefined light model's FLOPs.
  int64_t flops_budget = 0;
  /// Distillation weight delta of Eq. 5 on the train data's soft-label
  /// column (0, or no column, = hard labels only).
  float distill_delta = 1.0f;
  /// Fraction of the train data held out as the NAS validation split.
  double val_fraction = 0.3;
  /// Gumbel temperature annealing: tau from tau_start to tau_end.
  double tau_start = 2.0;
  double tau_end = 0.3;
  /// Final training of the derived model. Its seed is unread: one derived
  /// from `seed` replaces it.
  train::TrainOptions final_train;
  /// Checkpoint/resume of the supernet search (same contract as
  /// train::TrainOptions): with a non-empty `checkpoint_path`, the search
  /// atomically overwrites that file (supernet weights, both Adam states,
  /// all RNG streams, progress) every `checkpoint_every_epochs` search
  /// epochs; with `resume` true an existing checkpoint is restored and the
  /// resumed search derives the same architecture as an uninterrupted run.
  std::string checkpoint_path;
  int64_t checkpoint_every_epochs = 1;
  bool resume = false;
  uint64_t seed = 5;
  /// Debug: audit the supernet loss graph on the first search step, audit
  /// the derived encoder's graph, and cross-check the graph FLOPs estimate
  /// against the Eq. 4 budget model (arch.Flops). Hard graph violations
  /// fail the search; the final training also runs its first-batch audit.
  bool audit_graph = false;
};

/// Outcome of one search.
struct NasSearchReport {
  Architecture arch;
  int64_t encoder_flops = 0;  // Derived encoder FLOPs at seq_len.
  double supernet_val_auc = 0.0;
};

/// Runs the budget-limited NAS for one scenario:
///  1. trains the supernet on `train_data` (weights on the train split with
///     the distillation loss of Eq. 5; architecture logits on the
///     validation split with it plus the FLOPs regularizer, Eq. 4);
///  2. derives the max-joint-probability architecture under the budget;
///  3. trains a fresh model with the derived encoder (again distilling);
///  4. returns the trained scenario specific light model.
/// Eq. 5 reads `train_data`'s soft-label column (hard labels without it).
/// `light_base` supplies input dims, hidden width, and seq_len; its encoder
/// kind is ignored (replaced by the searched encoder).
Result<std::unique_ptr<models::BaseModel>> SearchLightModel(
    const models::ModelConfig& light_base,
    const data::ScenarioData& train_data, const NasSearchOptions& options,
    NasSearchReport* report);

/// Builds a model for any encoder kind, including kNas (reads the
/// architecture from config.nas_arch). Supersedes models::BuildBaseModel
/// wherever NAS models may appear (serving, cloning).
Result<std::unique_ptr<models::BaseModel>> BuildModel(
    const models::ModelConfig& config, Rng* rng);

/// Clone (same config, copied weights) supporting all encoder kinds.
Result<std::unique_ptr<models::BaseModel>> CloneModel(
    models::BaseModel* source, Rng* rng);

}  // namespace nas
}  // namespace alt

#endif  // ALT_SRC_NAS_NAS_SEARCH_H_
