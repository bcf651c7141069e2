#ifndef ALT_SRC_AUTOGRAD_OPS_H_
#define ALT_SRC_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "src/autograd/variable.h"
#include "src/util/rng.h"

namespace alt {
namespace ag {

/// Differentiable operations over Variables. Every op records the graph and
/// supplies an exact gradient; all gradients are verified against finite
/// differences in tests/autograd_grad_check_test.cc.

// ---------------------------------------------------------------------------
// Elementwise arithmetic (operands must have identical shapes)
// ---------------------------------------------------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Neg(const Variable& x);
/// x * c for a compile-time-known scalar c.
Variable ScalarMul(const Variable& x, float c);
/// x + c elementwise.
Variable ScalarAdd(const Variable& x, float c);
/// x broadcast-added with a rank-1 bias over the last dimension.
Variable AddBias(const Variable& x, const Variable& bias);
/// x scaled by a [1]-shaped Variable (gradient flows into both).
Variable MulScalarVar(const Variable& x, const Variable& s);
/// Stops gradient: same value, no parents. Implements detached(.) in Eq. 8.
Variable Detach(const Variable& x);
/// Picks element i of a rank-1 variable as a [1]-shaped Variable.
Variable IndexSelect(const Variable& v, int64_t index);

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------
/// a[m,k] @ b[k,n] -> [m,n].
Variable MatMul(const Variable& a, const Variable& b);
/// Per-batch matmul over leading dim with optional transposes:
/// a[B,*,*] @ b[B,*,*] -> [B,m,n].
Variable BatchedMatMul(const Variable& a, const Variable& b, bool trans_a,
                       bool trans_b);

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------
Variable Reshape(const Variable& x, std::vector<int64_t> shape);
/// x[..., start:start+len] over the last dimension.
Variable SliceLastDim(const Variable& x, int64_t start, int64_t len);
/// Concatenation along the last dimension; leading dims must match.
Variable ConcatLastDim(const std::vector<Variable>& xs);
/// x[B,T,C] -> x[:, t, :] of shape [B,C].
Variable SelectTime(const Variable& x, int64_t t);
/// L tensors of [B,C] -> [B,L,C].
Variable StackTime(const std::vector<Variable>& xs);

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------
Variable Sigmoid(const Variable& x);
Variable Tanh(const Variable& x);
Variable Relu(const Variable& x);
/// Exact GELU: x * Phi(x).
Variable Gelu(const Variable& x);
Variable Exp(const Variable& x);
/// Natural log; inputs must be positive.
Variable Log(const Variable& x);
/// Softmax over the last dimension (any rank).
Variable SoftmaxLastDim(const Variable& x);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------
/// Sum of all entries -> [1].
Variable SumAll(const Variable& x);
/// Mean of all entries -> [1].
Variable MeanAll(const Variable& x);
/// Mean over the time axis: [B,T,C] -> [B,C].
Variable MeanTime(const Variable& x);

// ---------------------------------------------------------------------------
// Neural-network primitives
// ---------------------------------------------------------------------------
/// Embedding lookup: weight[V,E], ids (length B*T, row-major [B,T])
/// -> [B,T,E]. Out-of-range ids are checked.
Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& ids, int64_t batch,
                         int64_t seq_len);
/// 1-D convolution, SAME padding, stride 1. x[B,T,Cin], w[Cout,K,Cin],
/// optional bias[Cout] (pass undefined Variable to skip), dilation >= 1.
Variable Conv1D(const Variable& x, const Variable& w, const Variable& bias,
                int64_t dilation);
Variable AvgPool1D(const Variable& x, int64_t k);
Variable MaxPool1D(const Variable& x, int64_t k);
/// Layer normalization over the last dimension with affine params.
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);
/// Inverted dropout. Identity when !training or p == 0.
Variable Dropout(const Variable& x, float p, Rng* rng, bool training);

/// One LSTM layer over a whole sequence as a single op:
/// x[B,T,in], w_x[in,4H], w_h[H,4H], bias[4H] -> hidden states [B,T,H].
/// Gate order is (input, forget, cell, output). Per step,
///   gates = (x_t·w_x + h_{t-1}·w_h) + bias     (h_{-1} = c_{-1} = 0)
///   c_t = f·c_{t-1} + i·g,   h_t = o·tanh(c_t)
/// with the products and sums in exactly that order. Forward values and
/// every gradient are bit-identical to composing the op from SelectTime,
/// MatMul, Add, AddBias, SliceLastDim, Sigmoid/Tanh, Mul and StackTime:
/// backward walks t = T-1..0, dh_t is the output's slice plus
/// dgates_{t+1}·w_hᵀ, dc_t is dc_{t+1}·f_{t+1} plus the tanh path, and the
/// w_x, w_h and bias gradients accumulate one step at a time in descending
/// t. When the node records no backward (no input requires grad, or an
/// InferenceGuard is open) only one step's h/c state is kept, rolling;
/// otherwise the per-step activations are saved for backward.
Variable LstmLayer(const Variable& x, const Variable& w_x,
                   const Variable& w_h, const Variable& bias);
/// Forward FLOPs of LstmLayer for one sample of length `seq_len`.
int64_t LstmLayerFlops(int64_t input_dim, int64_t hidden_dim,
                       int64_t seq_len);

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------
/// Mean binary cross-entropy on logits; numerically stable. `targets` may be
/// soft labels in [0,1] (used for distillation, Eq. 5). Shapes must match.
Variable BCEWithLogits(const Variable& logits, const Variable& targets);

}  // namespace ag
}  // namespace alt

#endif  // ALT_SRC_AUTOGRAD_OPS_H_
