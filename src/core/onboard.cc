#include "src/core/onboard.h"

#include <utility>

#include "src/obs/memory_tracker.h"
#include "src/obs/trace.h"
#include "src/train/trainer.h"
#include "src/util/logging.h"

namespace alt {
namespace core {

Result<std::unique_ptr<models::BaseModel>> TrainInitialModel(
    const models::ModelConfig& config, const data::ScenarioData& rows,
    const meta::MetaOptions& meta) {
  Rng rng(meta.seed);
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> model,
                       nas::BuildModel(config, &rng));
  train::TrainOptions init = meta.init_train;
  init.learning_rate = config.learning_rate;
  init.seed = meta.seed * 17 + 1;
  ALT_RETURN_IF_ERROR(train::TrainModel(model.get(), rows, init).status());
  return model;
}

Result<std::vector<InitCandidate>> CompareInitialCandidates(
    const models::ModelConfig& preset, const data::ScenarioData& pooled,
    const InitCandidates& candidates, const meta::MetaOptions& meta) {
  Rng split_rng(meta.seed * 13 + 5);
  auto [fit, held_out] = data::SplitTrainTest(pooled, 0.25, &split_rng);
  if (fit.num_samples() == 0 || held_out.num_samples() == 0) {
    return Status::InvalidArgument("too few initial rows to compare");
  }
  std::vector<InitCandidate> compared = {{preset}};
  for (const auto& config : candidates.presets) compared.push_back({config});
  if (candidates.hpo.has_value()) {
    ALT_ASSIGN_OR_RETURN(hpo::ModelSearchReport tuned,
                         hpo::TuneModelConfig(preset, fit, *candidates.hpo));
    compared.push_back({tuned.best_config});
  }
  if (candidates.nas.has_value()) {
    nas::NasSearchOptions search = *candidates.nas;
    search.flops_budget = 0;
    search.distill_delta = 0.0f;
    ALT_ASSIGN_OR_RETURN(auto searched,
                         nas::SearchLightModel(preset, fit, search, nullptr));
    compared.push_back({searched->config()});
  }
  for (InitCandidate& candidate : compared) {
    ALT_ASSIGN_OR_RETURN(auto model,
                         TrainInitialModel(candidate.config, fit, meta));
    candidate.auc = train::EvaluateAuc(model.get(), held_out);
    ALT_LOG(Info) << "f0 candidate AUC " << candidate.auc;
  }
  return compared;
}

Status InitializeAgnostic(meta::MetaLearner* learner,
                          const std::vector<data::ScenarioData>& initial_train,
                          const InitCandidates& candidates) {
  if (initial_train.empty()) {
    return Status::InvalidArgument("need at least one initial scenario");
  }
  ALT_TRACE_SPAN(init_span, "meta/initialize");
  obs::ScopedMemoryTag memory_tag("meta");
  const data::ScenarioData pooled = data::ConcatScenarios(initial_train);
  models::ModelConfig config = learner->config();
  if (!candidates.presets.empty() || candidates.hpo.has_value() ||
      candidates.nas.has_value()) {
    ALT_ASSIGN_OR_RETURN(
        std::vector<InitCandidate> compared,
        CompareInitialCandidates(config, pooled, candidates,
                                 learner->options()));
    const InitCandidate* best = &compared.front();
    for (const InitCandidate& candidate : compared) {
      if (candidate.auc > best->auc) best = &candidate;
    }
    config = best->config;
  }
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> f0,
                       TrainInitialModel(config, pooled, learner->options()));
  return learner->AdoptInitialModel(std::move(f0));
}

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
