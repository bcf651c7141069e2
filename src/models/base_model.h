#ifndef ALT_SRC_MODELS_BASE_MODEL_H_
#define ALT_SRC_MODELS_BASE_MODEL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/behavior_encoder.h"
#include "src/models/model_config.h"
#include "src/nn/embedding.h"
#include "src/nn/mlp.h"
#include "src/nn/module.h"

namespace alt {
namespace models {

/// The paper's Fig. 2 architecture:
///   profile features --MLP--> profile embedding
///   behavior ids --Embedding--> --BehaviorEncoder--> mean pool --> embedding
///   concat --> prediction MLP --> 1 logit.
/// When `encoder` is null the model is profile-only (the "Basic" baseline).
class BaseModel : public nn::Module {
 public:
  BaseModel(ModelConfig config, std::unique_ptr<BehaviorEncoder> encoder,
            Rng* rng);

  /// Forward pass to logits [B, 1]. `dropout_rng` enables dropout when the
  /// module is in training mode.
  ag::Variable Forward(const data::Batch& batch, Rng* dropout_rng = nullptr);

  /// Eval-mode predicted probabilities for a batch. The forward runs under
  /// an ag::InferenceGuard, so no graph is kept: serving, train::EvaluateAuc,
  /// distillation teachers, NAS evaluation and int8 calibration all go
  /// through here. On a model in eval mode it writes nothing to the model,
  /// so concurrent calls are safe; a model in training mode is switched to
  /// eval mode for the call and back.
  std::vector<float> PredictProbs(const data::Batch& batch);

  /// Approximate inference FLOPs for one sample (the paper's efficiency
  /// metric, Table V).
  int64_t FlopsPerSample() const;

  const ModelConfig& config() const { return config_; }
  BehaviorEncoder* behavior_encoder() { return encoder_.get(); }

 protected:
  std::vector<std::pair<std::string, Module*>> Children() override;

 private:
  ModelConfig config_;
  std::unique_ptr<nn::Mlp> profile_encoder_;
  std::unique_ptr<nn::Embedding> embedding_;     // null if profile-only
  std::unique_ptr<BehaviorEncoder> encoder_;     // null if profile-only
  std::unique_ptr<nn::Mlp> head_;
};

/// Builds a model for kNone / kLstm / kBert configs. kNas configs must go
/// through alt::nas::BuildModel (which needs the architecture description).
Result<std::unique_ptr<BaseModel>> BuildBaseModel(const ModelConfig& config,
                                                  Rng* rng);

/// Builds an identically-configured model and copies `source`'s weights —
/// the "copy" step of the scenario specific module. For kNas configs use
/// alt::nas::CloneModel.
Result<std::unique_ptr<BaseModel>> CloneBaseModel(BaseModel* source, Rng* rng);

}  // namespace models
}  // namespace alt

#endif  // ALT_SRC_MODELS_BASE_MODEL_H_
