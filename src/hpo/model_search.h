#ifndef ALT_SRC_HPO_MODEL_SEARCH_H_
#define ALT_SRC_HPO_MODEL_SEARCH_H_

#include "src/data/dataset.h"
#include "src/hpo/tune_service.h"
#include "src/models/model_config.h"
#include "src/train/trainer.h"

namespace alt {
namespace hpo {

/// Options for auto-tuning the pre-designed architecture (the left branch
/// of the paper's Fig. 4: expert structure + hyperparameter optimization).
struct ModelSearchOptions {
  TuneJobOptions tune;
  train::TrainOptions train;
  /// Held-out fraction used as the tuning objective (validation AUC).
  double validation_fraction = 0.25;
  uint64_t seed = 7;
};

/// The search space of Fig. 3: learning rate, profile-MLP width, prediction
/// head width, and the number of encoder layers (bounded by the preset's
/// depth).
SearchSpace DefaultModelSearchSpace(const models::ModelConfig& base);

/// Applies a trial's hyperparameters onto `base`.
models::ModelConfig ApplyTrialConfig(const models::ModelConfig& base,
                                     const TrialConfig& trial);

/// Result of a model search.
struct ModelSearchReport {
  models::ModelConfig best_config;
  TuneReport tune_report;
};

/// Tunes `base` on `dataset`: each trial trains a candidate on the train
/// part and reports validation AUC (with per-epoch intermediate reports so
/// the service can early-stop futureless trials).
Result<ModelSearchReport> TuneModelConfig(const models::ModelConfig& base,
                                          const data::ScenarioData& dataset,
                                          const ModelSearchOptions& options);

}  // namespace hpo
}  // namespace alt

#endif  // ALT_SRC_HPO_MODEL_SEARCH_H_
