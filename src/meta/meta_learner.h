#ifndef ALT_SRC_META_META_LEARNER_H_
#define ALT_SRC_META_META_LEARNER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/train/trainer.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace meta {

/// Builds a model from a config; injected so the meta learner can host
/// NAS-initialized agnostic models without depending on src/nas (pass
/// alt::nas::BuildModel from higher layers). Defaults to
/// models::BuildBaseModel.
using ModelBuilder = std::function<Result<std::unique_ptr<models::BaseModel>>(
    const models::ModelConfig&, Rng*)>;

/// Options of the scenario agnostic / scenario specific heavy model
/// machinery (Sec. III-B/C).
struct MetaOptions {
  /// Training of the initial agnostic model, and of each Fig. 4 candidate
  /// (core::TrainInitialModel). Its learning_rate and seed are unread: the
  /// model config's rate and a seed derived from `seed` replace them.
  train::TrainOptions init_train;
  /// Fine-tuning of the per-scenario copy on the support split (Eq. 1).
  /// Its learning_rate and seed are unread: the heavy config's rate and a
  /// per-scenario seed replace them.
  train::TrainOptions finetune;
  /// Fraction of a scenario's data held out as the query set D_u^q.
  double query_fraction = 0.3;
  /// The conservative meta step size eta of Eq. 2/3.
  float meta_lr = 0.02f;
  uint64_t seed = 9;

  MetaOptions() {
    init_train.epochs = 3;
    finetune.epochs = 2;
  }
};

/// Owns the scenario agnostic heavy model f0 and implements the meta
/// learning loop of the paper:
///  - AdoptInitialModel() installs f0, which core::InitializeAgnostic builds
///    from the pooled initial scenarios (Fig. 4).
///  - AdaptToScenario() copies f0, fine-tunes the copy on the scenario's
///    support split (Eq. 1), and — first-order approximation — applies the
///    query-split gradient of the adapted model back onto f0 scaled by the
///    conservative eta (Eq. 2).
///  - Multiple scenarios may adapt concurrently from different threads;
///    feedback applications are serialized on an internal mutex, which is
///    exactly the asynchronous accumulation of Eq. 3.
class MetaLearner {
 public:
  MetaLearner(models::ModelConfig config, MetaOptions options,
              ModelBuilder builder = nullptr);

  /// Installs an externally built/trained f0 (must match `config`'s input
  /// schema; its config replaces the learner's).
  Status AdoptInitialModel(std::unique_ptr<models::BaseModel> model);

  bool initialized() const {
    MutexLock lock(mu_);
    return agnostic_ != nullptr;
  }

  /// The full Eq. 1 + Eq. 2 step for one scenario. Thread-safe. When
  /// `send_feedback` is false, only the fine-tuned copy is produced (used
  /// by ablations).
  Result<std::unique_ptr<models::BaseModel>> AdaptToScenario(
      const data::ScenarioData& scenario_train, bool send_feedback = true);

  /// Thread-safe snapshot of f0.
  Result<std::unique_ptr<models::BaseModel>> CloneAgnostic();

  /// Direct access for evaluation (not synchronized with adapt threads —
  /// callers must ensure no adaptation is in flight).
  models::BaseModel* agnostic_model() ALT_NO_THREAD_SAFETY_ANALYSIS {
    return agnostic_.get();  // alt_analyze: allow(A101): unsynchronized eval-only view, see contract above
  }

  /// Periodically retrain f0 on all stored scenario data (the "Meta-Train
  /// like" refresh extension the paper mentions in Sec. III-C).
  Status PeriodicRefresh(const std::vector<data::ScenarioData>& all_scenarios,
                         const train::TrainOptions& options);

  const models::ModelConfig& config() const { return config_; }
  const MetaOptions& options() const { return options_; }

 private:
  /// Applies the query-set gradient of `adapted` onto f0 (Eq. 2),
  /// first-order, under the update mutex.
  Status ApplyQueryFeedback(models::BaseModel* adapted,
                            const data::ScenarioData& query);

  models::ModelConfig config_;
  MetaOptions options_;
  ModelBuilder builder_;
  Rng rng_;
  mutable Mutex mu_;  // Guards agnostic_ parameter reads/writes.
  std::unique_ptr<models::BaseModel> agnostic_ ALT_GUARDED_BY(mu_);
};

}  // namespace meta
}  // namespace alt

#endif  // ALT_SRC_META_META_LEARNER_H_
