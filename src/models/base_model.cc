#include "src/models/base_model.h"

#include <cmath>

#include "src/autograd/ops.h"
#include "src/util/logging.h"

namespace alt {
namespace models {

BaseModel::BaseModel(ModelConfig config,
                     std::unique_ptr<BehaviorEncoder> encoder, Rng* rng)
    : config_(std::move(config)), encoder_(std::move(encoder)) {
  std::vector<int64_t> profile_dims;
  profile_dims.push_back(config_.profile_dim);
  for (int64_t d : config_.profile_hidden) profile_dims.push_back(d);
  profile_dims.push_back(config_.profile_out);
  profile_encoder_ = std::make_unique<nn::Mlp>(
      profile_dims, nn::Activation::kRelu, rng, config_.dropout);

  int64_t head_in = config_.profile_out;
  if (encoder_ != nullptr) {
    embedding_ = std::make_unique<nn::Embedding>(config_.vocab_size,
                                                 config_.hidden_dim, rng);
    head_in += config_.hidden_dim;
  }
  std::vector<int64_t> head_dims;
  head_dims.push_back(head_in);
  for (int64_t d : config_.head_hidden) head_dims.push_back(d);
  head_dims.push_back(1);
  head_ = std::make_unique<nn::Mlp>(head_dims, nn::Activation::kRelu, rng,
                                    config_.dropout);
}

ag::Variable BaseModel::Forward(const data::Batch& batch, Rng* dropout_rng) {
  ALT_CHECK_EQ(batch.profiles.size(1), config_.profile_dim);
  ag::Variable profile_in = ag::Variable::Constant(batch.profiles);
  ag::Variable profile_emb =
      profile_encoder_->Forward(profile_in, dropout_rng);

  ag::Variable features = profile_emb;
  if (encoder_ != nullptr) {
    ALT_CHECK_EQ(batch.seq_len, config_.seq_len);
    ag::Variable embedded = embedding_->Forward(
        batch.behaviors, batch.batch_size, batch.seq_len);
    ag::Variable encoded = encoder_->Encode(embedded);  // [B, T, H]
    ag::Variable pooled = ag::MeanTime(encoded);        // [B, H]
    features = ag::ConcatLastDim({profile_emb, pooled});
  }
  return head_->Forward(features, dropout_rng);  // [B, 1]
}

std::vector<float> BaseModel::PredictProbs(const data::Batch& batch) {
  ag::InferenceGuard no_graph;
  const bool was_training = training();
  SetTraining(false);
  Tensor logits = Forward(batch).value();
  SetTraining(was_training);
  std::vector<float> probs(static_cast<size_t>(logits.numel()));
  for (int64_t i = 0; i < logits.numel(); ++i) {
    const float z = logits[i];
    probs[static_cast<size_t>(i)] =
        z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                  : std::exp(z) / (1.0f + std::exp(z));
  }
  return probs;
}

int64_t BaseModel::FlopsPerSample() const {
  int64_t flops = profile_encoder_->Flops(1);
  if (encoder_ != nullptr) {
    flops += embedding_->Flops(config_.seq_len);
    flops += encoder_->Flops(config_.seq_len);
    flops += config_.seq_len * config_.hidden_dim;  // mean pooling
  }
  flops += head_->Flops(1);
  return flops;
}

std::vector<std::pair<std::string, nn::Module*>> BaseModel::Children() {
  std::vector<std::pair<std::string, nn::Module*>> out;
  out.emplace_back("profile_encoder", profile_encoder_.get());
  if (encoder_ != nullptr) {
    out.emplace_back("embedding", embedding_.get());
    out.emplace_back("behavior_encoder", encoder_.get());
  }
  out.emplace_back("head", head_.get());
  return out;
}

Result<std::unique_ptr<BaseModel>> BuildBaseModel(const ModelConfig& config,
                                                  Rng* rng) {
  std::unique_ptr<BehaviorEncoder> encoder;
  switch (config.encoder) {
    case EncoderKind::kNone:
      break;
    case EncoderKind::kLstm:
      encoder = std::make_unique<LstmBehaviorEncoder>(
          config.hidden_dim, config.encoder_layers, rng);
      break;
    case EncoderKind::kBert:
      if (config.hidden_dim % config.num_heads != 0) {
        return Status::InvalidArgument("num_heads must divide hidden_dim");
      }
      encoder = std::make_unique<BertBehaviorEncoder>(
          config.hidden_dim, config.num_heads, config.ff_dim,
          config.encoder_layers, config.seq_len, rng);
      break;
    case EncoderKind::kNas:
      return Status::InvalidArgument(
          "kNas configs must be built via alt::nas::BuildModel");
  }
  return std::make_unique<BaseModel>(config, std::move(encoder), rng);
}

Result<std::unique_ptr<BaseModel>> CloneBaseModel(BaseModel* source,
                                                  Rng* rng) {
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<BaseModel> clone,
                       BuildBaseModel(source->config(), rng));
  ALT_RETURN_IF_ERROR(clone->CopyParametersFrom(source));
  return clone;
}

}  // namespace models
}  // namespace alt
