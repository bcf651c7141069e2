#include "src/core/onboard.h"

#include <utility>

#include "src/train/trainer.h"
#include "src/util/logging.h"

namespace alt {
namespace core {

int64_t LightEncoderFlops(const models::ModelConfig& light_config) {
  Rng rng(0);  // FLOPs do not depend on the weights.
  auto light = models::BuildBaseModel(light_config, &rng);
  ALT_CHECK(light.ok()) << light.status().ToString();
  const models::BehaviorEncoder* encoder = light.value()->behavior_encoder();
  return encoder != nullptr ? encoder->Flops(light_config.seq_len) : 0;
}

Result<OnboardResult> OnboardLight(models::BaseModel* teacher,
                                   data::ScenarioData train_data,
                                   const data::ScenarioData& test_data,
                                   const OnboardOptions& options) {
  const uint64_t id = static_cast<uint64_t>(train_data.scenario_id);
  OnboardResult result;
  result.artifacts.scenario_id = train_data.scenario_id;

  // Eq. 5's soft labels: the frozen teacher scores each training row once,
  // and the NAS and MeL read the column.
  if (options.nas.distill_delta > 0.0f) {
    if (teacher == nullptr) {
      return Status::InvalidArgument("distillation needs a teacher");
    }
    train_data.soft_labels = train::Predict(teacher, train_data, 64);
  }

  nas::NasSearchOptions nas_options = options.nas;
  nas_options.seed = options.seed * 389 + id * 7 + 1;
  nas::NasSearchReport report;
  ALT_ASSIGN_OR_RETURN(
      result.light, nas::SearchLightModel(options.light_config, train_data,
                                          nas_options, &report));
  result.artifacts.light_flops = result.light->FlopsPerSample();
  result.artifacts.arch = std::move(report.arch);

  if (options.predefined_light) {
    Rng rng(options.seed * 211 + id);
    ALT_ASSIGN_OR_RETURN(result.predefined_light,
                         models::BuildBaseModel(options.light_config, &rng));
    train::TrainOptions mel_train = options.nas.final_train;
    mel_train.seed = options.seed * 31 + id;
    ALT_RETURN_IF_ERROR(train::TrainModel(result.predefined_light.get(),
                                          train_data, mel_train,
                                          options.nas.distill_delta)
                            .status());
  }

  if (test_data.num_samples() > 0) {
    result.artifacts.light_test_auc =
        train::EvaluateAuc(result.light.get(), test_data);
    if (result.predefined_light != nullptr) {
      result.predefined_light_test_auc =
          train::EvaluateAuc(result.predefined_light.get(), test_data);
    }
  }
  return result;
}

Result<OnboardResult> OnboardScenario(meta::MetaLearner* learner,
                                      data::ScenarioData train_data,
                                      const data::ScenarioData& test_data,
                                      const OnboardOptions& options) {
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> heavy,
                       learner->AdaptToScenario(train_data));
  ALT_ASSIGN_OR_RETURN(OnboardResult result,
                       OnboardLight(heavy.get(), std::move(train_data),
                                    test_data, options));
  result.artifacts.heavy_flops = heavy->FlopsPerSample();
  if (test_data.num_samples() > 0) {
    result.artifacts.heavy_test_auc =
        train::EvaluateAuc(heavy.get(), test_data);
  }
  result.heavy = std::move(heavy);
  return result;
}

}  // namespace core
}  // namespace alt
