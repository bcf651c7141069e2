#include "src/models/multi_sequence_model.h"

#include <cmath>

#include "src/autograd/ops.h"
#include "src/util/logging.h"

namespace alt {
namespace models {

MultiSequenceBatch MakeMultiSequenceBatch(const data::ScenarioData& data,
                                          const std::vector<size_t>& indices,
                                          int64_t num_channels,
                                          uint64_t seed) {
  ALT_CHECK_GE(num_channels, 1);
  data::Batch base = MakeBatch(data, indices);
  MultiSequenceBatch batch;
  batch.profiles = std::move(base.profiles);
  batch.labels = std::move(base.labels);
  batch.batch_size = base.batch_size;
  batch.seq_len = base.seq_len;
  batch.behaviors.push_back(base.behaviors);
  for (int64_t c = 1; c < num_channels; ++c) {
    // Derive extra channels by deterministic per-channel rotation of each
    // row — distinct but equally informative sequences.
    Rng rng(seed * 131 + static_cast<uint64_t>(c));
    std::vector<int64_t> channel = base.behaviors;
    for (int64_t r = 0; r < batch.batch_size; ++r) {
      const int64_t offset = rng.UniformInt(1, batch.seq_len - 1);
      int64_t* row = channel.data() + r * batch.seq_len;
      std::rotate(row, row + offset, row + batch.seq_len);
    }
    batch.behaviors.push_back(std::move(channel));
  }
  return batch;
}

MultiSequenceModel::MultiSequenceModel(
    ModelConfig config, std::vector<std::unique_ptr<BehaviorEncoder>> encoders,
    Rng* rng)
    : config_(std::move(config)), encoders_(std::move(encoders)) {
  ALT_CHECK(!encoders_.empty());
  std::vector<int64_t> profile_dims;
  profile_dims.push_back(config_.profile_dim);
  for (int64_t d : config_.profile_hidden) profile_dims.push_back(d);
  profile_dims.push_back(config_.profile_out);
  profile_encoder_ = std::make_unique<nn::Mlp>(
      profile_dims, nn::Activation::kRelu, rng, config_.dropout);

  for (size_t c = 0; c < encoders_.size(); ++c) {
    embeddings_.push_back(std::make_unique<nn::Embedding>(
        config_.vocab_size, config_.hidden_dim, rng));
  }
  std::vector<int64_t> head_dims;
  head_dims.push_back(config_.profile_out +
                      static_cast<int64_t>(encoders_.size()) *
                          config_.hidden_dim);
  for (int64_t d : config_.head_hidden) head_dims.push_back(d);
  head_dims.push_back(1);
  head_ = std::make_unique<nn::Mlp>(head_dims, nn::Activation::kRelu, rng,
                                    config_.dropout);
}

ag::Variable MultiSequenceModel::Forward(const MultiSequenceBatch& batch,
                                         Rng* dropout_rng) {
  ALT_CHECK_EQ(static_cast<int64_t>(batch.behaviors.size()), num_channels());
  ag::Variable profile_emb = profile_encoder_->Forward(
      ag::Variable::Constant(batch.profiles), dropout_rng);
  std::vector<ag::Variable> features = {profile_emb};
  for (size_t c = 0; c < encoders_.size(); ++c) {
    ag::Variable embedded = embeddings_[c]->Forward(
        batch.behaviors[c], batch.batch_size, batch.seq_len);
    features.push_back(ag::MeanTime(encoders_[c]->Encode(embedded)));
  }
  return head_->Forward(ag::ConcatLastDim(features), dropout_rng);
}

std::vector<float> MultiSequenceModel::PredictProbs(
    const MultiSequenceBatch& batch) {
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

int64_t MultiSequenceModel::FlopsPerSample() const {
  int64_t flops = profile_encoder_->Flops(1) + head_->Flops(1);
  for (size_t c = 0; c < encoders_.size(); ++c) {
    flops += embeddings_[c]->Flops(config_.seq_len);
    flops += encoders_[c]->Flops(config_.seq_len);
    flops += config_.seq_len * config_.hidden_dim;  // mean pooling
  }
  return flops;
}

std::vector<std::pair<std::string, nn::Module*>>
MultiSequenceModel::Children() {
  std::vector<std::pair<std::string, nn::Module*>> out;
  out.emplace_back("profile_encoder", profile_encoder_.get());
  for (size_t c = 0; c < encoders_.size(); ++c) {
    out.emplace_back("embedding" + std::to_string(c), embeddings_[c].get());
    out.emplace_back("encoder" + std::to_string(c), encoders_[c].get());
  }
  out.emplace_back("head", head_.get());
  return out;
}

Result<std::unique_ptr<MultiSequenceModel>> BuildMultiSequenceModel(
    const ModelConfig& config, int64_t num_channels, Rng* rng) {
  if (num_channels < 1) {
    return Status::InvalidArgument("need at least one behavior channel");
  }
  std::vector<std::unique_ptr<BehaviorEncoder>> encoders;
  for (int64_t c = 0; c < num_channels; ++c) {
    switch (config.encoder) {
      case EncoderKind::kLstm:
        encoders.push_back(std::make_unique<LstmBehaviorEncoder>(
            config.hidden_dim, config.encoder_layers, rng));
        break;
      case EncoderKind::kBert:
        encoders.push_back(std::make_unique<BertBehaviorEncoder>(
            config.hidden_dim, config.num_heads, config.ff_dim,
            config.encoder_layers, config.seq_len, rng));
        break;
      default:
        return Status::InvalidArgument(
            "multi-sequence model needs kLstm or kBert encoders");
    }
  }
  return std::make_unique<MultiSequenceModel>(config, std::move(encoders),
                                              rng);
}

}  // namespace models
}  // namespace alt
