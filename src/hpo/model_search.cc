#include "src/hpo/model_search.h"

#include <algorithm>

#include "src/models/base_model.h"
#include "src/util/logging.h"

namespace alt {
namespace hpo {

SearchSpace DefaultModelSearchSpace(const models::ModelConfig& base) {
  SearchSpace space;
  space.AddDouble("learning_rate", 3e-4, 1e-2, /*log_scale=*/true);
  space.AddInt("profile_hidden", 16, 64);
  space.AddInt("head_hidden", 8, 32);
  if (base.encoder != models::EncoderKind::kNone) {
    space.AddInt("encoder_layers", std::max<int64_t>(1, base.encoder_layers - 3),
                 base.encoder_layers);
  }
  return space;
}

models::ModelConfig ApplyTrialConfig(const models::ModelConfig& base,
                                     const TrialConfig& trial) {
  models::ModelConfig config = base;
  if (trial.count("learning_rate") > 0) {
    config.learning_rate =
        static_cast<float>(GetDouble(trial, "learning_rate"));
  }
  if (trial.count("profile_hidden") > 0) {
    config.profile_hidden = {GetInt(trial, "profile_hidden")};
  }
  if (trial.count("head_hidden") > 0) {
    config.head_hidden = {GetInt(trial, "head_hidden")};
  }
  if (trial.count("encoder_layers") > 0) {
    config.encoder_layers = GetInt(trial, "encoder_layers");
  }
  return config;
}

Result<ModelSearchReport> TuneModelConfig(const models::ModelConfig& base,
                                          const data::ScenarioData& dataset,
                                          const ModelSearchOptions& options) {
  Rng split_rng(options.seed);
  auto [train_part, val_part] =
      data::SplitTrainTest(dataset, options.validation_fraction, &split_rng);
  if (train_part.num_samples() == 0 || val_part.num_samples() == 0) {
    return Status::InvalidArgument("dataset too small for model search");
  }

  Objective objective =
      [&](const TrialConfig& trial, TrialContext* context) -> Result<double> {
    models::ModelConfig config = ApplyTrialConfig(base, trial);
    Rng model_rng(options.seed * 31 + 1);
    ALT_ASSIGN_OR_RETURN(auto model, models::BuildBaseModel(config, &model_rng));

    train::TrainOptions epoch_options = options.train;
    epoch_options.learning_rate = config.learning_rate;
    epoch_options.epochs = 1;
    double best_auc = 0.0;
    for (int64_t epoch = 0; epoch < options.train.epochs; ++epoch) {
      epoch_options.seed = options.seed * 1000 + static_cast<uint64_t>(epoch);
      ALT_RETURN_IF_ERROR(
          train::TrainModel(model.get(), train_part, epoch_options).status());
      const double auc = train::EvaluateAuc(model.get(), val_part);
      best_auc = std::max(best_auc, auc);
      const Status report = context->ReportIntermediate(epoch, auc);
      if (!report.ok()) break;  // Early stopped or timed out.
    }
    return best_auc;
  };

  SearchSpace space = DefaultModelSearchSpace(base);
  ALT_ASSIGN_OR_RETURN(TuneReport tune_report,
                       RunTuneJob(space, objective, options.tune));

  ModelSearchReport report;
  report.best_config = ApplyTrialConfig(base, tune_report.best_config);
  report.tune_report = std::move(tune_report);
  return report;
}

}  // namespace hpo
}  // namespace alt
