#ifndef ALT_SRC_NN_LSTM_H_
#define ALT_SRC_NN_LSTM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/autograd/ops.h"
#include "src/nn/module.h"

namespace alt {
namespace nn {

/// A single LSTM layer, run as one fused autograd op (ag::LstmLayer). Per
/// timestep the gates are (x_t·W_x + h_{t-1}·W_h) + bias: two separate
/// projections, added, then the bias added, in that order, which the op's
/// bit-identity with the per-op composition depends on. Gate order is
/// (input, forget, cell, output). The forget-gate bias is initialized to 1.
class LstmLayer : public Module {
 public:
  LstmLayer(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  /// x: [B, T, input_dim] -> hidden states [B, T, hidden_dim].
  ag::Variable Forward(const ag::Variable& x);

  int64_t input_dim() const { return input_dim_; }
  int64_t hidden_dim() const { return hidden_dim_; }

  /// FLOPs for one sample of length `seq_len`.
  int64_t Flops(int64_t seq_len) const;

 protected:
  std::vector<std::pair<std::string, ag::Variable*>> LocalParameters()
      override;

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  ag::Variable w_x_;  // [input_dim, 4H]
  ag::Variable w_h_;  // [hidden_dim, 4H]
  ag::Variable bias_; // [4H]
};

/// A stack of LSTM layers; this is the paper's "LSTM-based" behavior
/// encoder (6 layers for the heavy model, 3 for the light model, hidden 15).
class Lstm : public Module {
 public:
  Lstm(int64_t input_dim, int64_t hidden_dim, int64_t num_layers, Rng* rng);

  /// x: [B, T, input_dim] -> [B, T, hidden_dim].
  ag::Variable Forward(const ag::Variable& x);

  int64_t Flops(int64_t seq_len) const;
  int64_t hidden_dim() const { return hidden_dim_; }
  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }

 protected:
  std::vector<std::pair<std::string, Module*>> Children() override;

 private:
  int64_t hidden_dim_;
  std::vector<std::unique_ptr<LstmLayer>> layers_;
};

}  // namespace nn
}  // namespace alt

#endif  // ALT_SRC_NN_LSTM_H_
