#ifndef ALT_SRC_CORE_ONBOARD_H_
#define ALT_SRC_CORE_ONBOARD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/hpo/model_search.h"
#include "src/meta/meta_learner.h"
#include "src/models/base_model.h"
#include "src/nas/nas_search.h"

namespace alt {
namespace core {

/// Fig. 4's candidates for f0 beside the learner's preset, each generated
/// from the fit rows alone with its own options (its seed included).
struct InitCandidates {
  std::vector<models::ModelConfig> presets;  // more expert architectures
  std::optional<hpo::ModelSearchOptions> hpo;  // the preset tuned by HPO
  /// The library NAS search from the preset's dims, with no FLOPs budget
  /// and no teacher (`flops_budget` and `distill_delta` are unread). A
  /// learner that adopts its f0 must clone through nas::BuildModel.
  std::optional<nas::NasSearchOptions> nas;
};

/// A compared candidate and the held-out AUC of its training on fit rows.
struct InitCandidate {
  models::ModelConfig config;
  double auc = 0.0;
};

/// The one f0 training: `config`'s model (nas::BuildModel) built from an
/// Rng seeded with `meta.seed`, trained on `rows` with `meta.init_train` at
/// `config.learning_rate` and seed `meta.seed*17 + 1`.
Result<std::unique_ptr<models::BaseModel>> TrainInitialModel(
    const models::ModelConfig& config, const data::ScenarioData& rows,
    const meta::MetaOptions& meta);

/// Fig. 4's comparison: splits `pooled` once, 0.25 held out (Rng seeded
/// with `meta.seed*13 + 5`), generates the candidates from the fit rows,
/// trains each by TrainInitialModel on the fit rows and scores it on the
/// held-out rows. Returns `preset`, `candidates.presets`, HPO's, then
/// NAS's; InvalidArgument when a part of the split is empty.
Result<std::vector<InitCandidate>> CompareInitialCandidates(
    const models::ModelConfig& preset, const data::ScenarioData& pooled,
    const InitCandidates& candidates, const meta::MetaOptions& meta);

/// Builds f0 into `learner`, in the `meta/initialize` span and the `meta`
/// memory tag: TrainInitialModel on the initial train parts' pooled rows,
/// of learner->config() when it is the only candidate (nothing is split or
/// scored), else of the best of CompareInitialCandidates (the earliest on
/// a tie).
Status InitializeAgnostic(meta::MetaLearner* learner,
                          const std::vector<data::ScenarioData>& initial_train,
                          const InitCandidates& candidates = {});

/// Options of one scenario's onboarding after data preparation (Fig. 7).
struct OnboardOptions {
  /// Predefined light architecture: the NAS's input dims, width and
  /// seq_len, and the MeL student's architecture.
  models::ModelConfig light_config;
  /// Budget-limited NAS (Eq. 4) with Eq. 5 distillation. The caller fills
  /// `flops_budget` (the paper's is LightEncoderFlops(light_config)); its
  /// `seed` is unread. MeL trains with `final_train`; both students read
  /// the soft labels scored when `distill_delta` > 0 (OnboardLight).
  nas::NasSearchOptions nas;
  /// MeL: also distill the teacher into light_config's predefined encoder.
  bool predefined_light = false;
  /// Base of every per-scenario seed.
  uint64_t seed = 123;
};

/// Artifacts produced for one scenario.
struct ScenarioArtifacts {
  int64_t scenario_id = 0;
  std::string deployment_name;
  double heavy_test_auc = 0.0;
  double light_test_auc = 0.0;
  int64_t heavy_flops = 0;
  int64_t light_flops = 0;
  nas::Architecture arch;
};

/// The models one scenario's onboarding trained, with their numbers: test
/// AUCs (0 on an empty test split), FLOPs and the searched architecture.
/// `artifacts.deployment_name` is left to whoever deploys.
struct OnboardResult {
  std::unique_ptr<models::BaseModel> heavy;  // Eq. 1; null from OnboardLight
  std::unique_ptr<models::BaseModel> light;  // searched by the NAS
  std::unique_ptr<models::BaseModel> predefined_light;  // MeL, when asked
  ScenarioArtifacts artifacts;
  double predefined_light_test_auc = 0.0;
};

/// Eq. 4's budget: the encoder FLOPs of `light_config`'s model at its
/// seq_len ("the upper bound of the FLOPs for the searched architectures is
/// set to be the same as the light models"); 0 without a behavior encoder.
/// Aborts when `light_config` does not build.
int64_t LightEncoderFlops(const models::ModelConfig& light_config);

/// The light half of onboarding: the budget-limited NAS distilled from
/// `teacher`, plus MeL when asked. The teacher is scored here only, once per
/// training row into `train_data`'s soft-label column (so a caller done
/// with its split moves it in), and not at all when
/// `options.nas.distill_delta` <= 0; a null teacher is then allowed, and
/// otherwise InvalidArgument. With id = train_data.scenario_id, the
/// NAS seed is `seed*389 + id*7 + 1`, MeL's model seed `seed*211 + id` and
/// its training seed `seed*31 + id`.
Result<OnboardResult> OnboardLight(models::BaseModel* teacher,
                                   data::ScenarioData train_data,
                                   const data::ScenarioData& test_data,
                                   const OnboardOptions& options);

/// Onboards one scenario from its prepared parts: `learner` fine-tunes a
/// copy of f0 (Eq. 1) and feeds the query gradient back into f0 (Eq. 2),
/// then OnboardLight distills that heavy model. Concurrent calls on one
/// learner are safe; their Eq. 2 updates land in completion order (Eq. 3).
Result<OnboardResult> OnboardScenario(meta::MetaLearner* learner,
                                      data::ScenarioData train_data,
                                      const data::ScenarioData& test_data,
                                      const OnboardOptions& options);

}  // namespace core
}  // namespace alt

#endif  // ALT_SRC_CORE_ONBOARD_H_
