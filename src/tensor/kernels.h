#ifndef ALT_SRC_TENSOR_KERNELS_H_
#define ALT_SRC_TENSOR_KERNELS_H_

#include <cstdint>

#include "src/tensor/tensor.h"

namespace alt {

/// Raw dense compute kernels shared by autograd forward and backward passes.
/// All kernels operate on pre-shaped tensors; shape validation happens at the
/// op layer. Accumulating variants (suffix `Acc`) add into the output, which
/// is what backward passes need for gradient accumulation.
///
/// The GEMM-family kernels are cache-blocked and register-tiled, and
/// parallelize over row panels (or the batch dimension) through
/// src/util/parallel_for.h. Reduction order per output element is fixed by
/// the blocking constants alone, so results are bit-identical for every
/// thread count (ALT_THREADS / alt::SetComputeThreads). The original scalar
/// kernels are preserved in kernels_naive.h as the parity/benchmark baseline.
///
/// SIMD dispatch (src/tensor/cpu_features.h): on AVX2+FMA hosts the micro
/// panels and the row primitives below run the AVX2 implementations from
/// kernels_avx2.cc (and, on AVX-512 hosts, the GEMM panels, long dots,
/// activation rows and LSTM step kernels from kernels_avx512.cc) unless
/// ALT_SIMD=off forces the scalar path. fp32 GEMMs and reductions agree
/// across levels only to rounding (different but fixed reduction orders);
/// within one level results remain bit-identical across thread counts. The
/// activation rows (RowExp, RowSigmoid, RowTanh) and the LSTM step kernels
/// are stronger: the same bits at every level.
///
/// fp-contract rule: every kernel TU is compiled -ffp-contract=off, so GCC
/// never fuses a multiply and an add into an FMA behind the code's back (in
/// the -mfma TUs it otherwise would, even across intrinsics). An FMA is
/// always written out: _mm*_fmadd_ps, or std::fma in a scalar tail.

/// y[i] += alpha * x[i]. The shared axpy primitive behind
/// Tensor::AddInPlace / Tensor::Axpy, optimizer updates, and gradient
/// accumulation; threaded above a fixed size cutoff.
void VecAxpy(float alpha, const float* x, float* y, int64_t n);
/// y[i] *= alpha.
void VecScale(float alpha, float* y, int64_t n);

/// Sequential row primitives for the hot elementwise/softmax/layer-norm
/// loops in src/autograd/ops.cc. Unlike VecAxpy/VecScale these never spawn
/// parallel work — callers invoke them per row inside their own ParallelFor
/// chunks — but they do dispatch to the AVX2 backend.
/// y[i] = max(x[i], 0).
void VecRelu(const float* x, float* y, int64_t n);
/// y[i] *= alpha (sequential flavor of VecScale).
void RowScale(float alpha, float* y, int64_t n);
/// max_i x[i]; requires n >= 1. Exact at any SIMD level.
float RowMax(const float* x, int64_t n);
/// Double-precision sum; the SIMD level fixes the accumulation grouping.
double RowSumDouble(const float* x, int64_t n);
/// Two-pass population mean/variance in double precision.
void RowMeanVar(const float* x, int64_t n, double* mean, double* var);
/// Layer-norm inner loop: xhat[j] = (src[j] - mean) * istd;
/// dst[j] = xhat[j] * gamma[j] + beta[j].
void RowNormalizeAffine(const float* src, float mean, float istd,
                        const float* gamma, const float* beta, float* xhat,
                        float* dst, int64_t n);

/// Activation rows: y[i] = exp(x[i]), 1 / (1 + exp(-x[i])), tanh(x[i]);
/// x == y is allowed. Each element is computed alone from IEEE add, mul and
/// div, one round-to-nearest step and an exact 2^n scale, in the same order
/// at every level (the recipe is in kernels_simd.h), and vector tails run
/// as masked full vectors. So scalar, AVX2 and AVX-512 return the same
/// bits, and an element's value never depends on n, on its position, or on
/// how a caller chunks a range: a row scores the same in any batch. The
/// exponential clamps its argument to [-87.3, 88.3]: exp saturates near
/// 2.2e38 and bottoms out near 1.2e-38, sigmoid(-inf) is a positive value
/// below 1e-38 rather than 0, sigmoid(+inf) = 1 and tanh(±inf) = ±1
/// exactly. NaN in gives NaN out. Error
/// against double: 8.9e-8 (sigmoid) and 1.1e-7 (tanh) absolute on
/// [-20, 20], 7.9e-8 relative for exp on [-80, 80].
void RowExp(const float* x, float* y, int64_t n);
void RowSigmoid(const float* x, float* y, int64_t n);
void RowTanh(const float* x, float* y, int64_t n);

/// LSTM step kernels: the per-element cell math of one time step of the
/// fused LSTM layer (ag::LstmLayer) over a block of rows, hidden size
/// H = `hidden`, gate order (i, f, g, o). Row r's gates are
/// gates[r·gates_stride + q·H + j] for gate q (the layer's [B·T, 4H] rows
/// have stride T·4H); `out` rows have stride out_stride; every other
/// operand is packed, [rows, H] or [rows, 4H].
///
/// Contract: each element is computed alone, with the operations written
/// below in that order, sigmoid and tanh by the RowSigmoid/RowTanh lanes
/// and no FMA, so scalar, AVX2 and AVX-512 give the same bits, and a row's
/// values never depend on the other rows of the block. Vector tails are
/// masked full vectors: no load or store touches memory past a row's H (or
/// 4H) elements. Results agree bit for bit with the layer composed from
/// Add, AddBias, Sigmoid, Tanh and Mul (nn_test pins it). NaN in gives NaN
/// out; where two NaNs of different sign meet in one operation (the bias
/// gradient sums rows), x86 keeps the first operand's and the compiler
/// orders the operands, so only NaN-ness is pinned there.
struct LstmStepForwardArgs {
  int64_t rows = 0;
  int64_t hidden = 0;
  /// In: the step's x·W_x. Out: the activations i, f, g, o.
  float* gates = nullptr;
  int64_t gates_stride = 0;
  /// h_{t-1}·W_h, [rows, 4H], and c_{t-1}, [rows, H]: both null at t = 0
  /// (h_{-1} = c_{-1} = 0), else both set.
  const float* hw = nullptr;
  const float* c_prev = nullptr;
  const float* bias = nullptr;    // [4H]
  float* c = nullptr;             // [rows, H]; may equal c_prev
  float* tanh_c = nullptr;        // [rows, H]; null: not stored
  float* h = nullptr;             // [rows, H]
  float* out = nullptr;           // h again, at out + r·out_stride
  int64_t out_stride = 0;
};
/// Per element:
///   a_q = (x·W_x + h·W_h) + b_q   (x·W_x + b_q when hw is null),
///   i, f, o = sigmoid(a_q), g = tanh(a_2),
///   c = f·c_prev + i·g   (f·0 + i·g when c_prev is null),
///   tanh_c = tanh(c),   h = o·tanh_c.
void LstmStepForward(const LstmStepForwardArgs& args);

struct LstmStepBackwardArgs {
  int64_t rows = 0;
  int64_t hidden = 0;
  /// In: the forward's activations i, f, g, o. Out when `save`: dgates.
  float* gates = nullptr;
  int64_t gates_stride = 0;
  bool save = false;
  const float* tanh_c = nullptr;  // [rows, H]
  const float* c_prev = nullptr;  // [rows, H]; null at t = 0
  const float* dh = nullptr;      // dL/dh_t, [rows, H]
  /// [rows, H]. In when `carry`: dL/dc_t received from step t+1. Out: the
  /// gradient step t passes to c_{t-1}.
  float* dc = nullptr;
  bool carry = false;
  float* dgates = nullptr;     // dL/d(pre-activation), [rows, 4H]
  float* bias_grad = nullptr;  // [4H]; null: skipped
};
/// Per element, with s' = s·(1 − s) and t' = 1 − t·t:
///   dc = carry + (dh·o)·tanh_c'   (0 + … without carry),
///   dc_out = 0 + dc·f,
///   dg_i = 0 + (dc·g)·i',   dg_f = 0 + (dc·c_prev)·f'   (c_prev = 0 when
///   null),   dg_g = 0 + (dc·i)·g',   dg_o = 0 + (dh·tanh_c)·o'.
/// The `0 +` turns −0 into +0, as adding into a fresh zero gradient does.
/// dgates go to `dgates` and, when `save`, over the activations; then, row
/// by row in order, bias_grad[k] += dgates[k].
void LstmStepBackward(const LstmStepBackwardArgs& args);

/// C = A[m,k] * B[k,n]. Overwrites C.
void MatMul(const Tensor& a, const Tensor& b, Tensor* c);
/// C += A[m,k] * B[k,n].
void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* c);
/// C += A[k,m]^T * B[k,n]  (i.e. C[m,n] += sum_k A[k,m] B[k,n]).
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* c);
/// C += A[m,k] * B[n,k]^T.
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* c);

/// Pointer forms of MatMul / MatMulAcc / MatMulTransAAcc / MatMulTransBAcc,
/// for operands that are not a whole 2-D Tensor: a [B, T, C] activation read
/// in place as [B·T, C], or a ScratchFrame span. Same kernels and bits as the
/// Tensor forms. Gemm and GemmAcc, the forward's products, are timed and
/// counted (tensor/gemm/calls_total) as MatMul is.
/// C[m,n] = A[m,k] * B[k,n].
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n);
/// C[m,n] += A[m,k] * B[k,n].
void GemmAcc(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
/// C[m,n] += A[k,m]^T * B[k,n].
void GemmTransAAcc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);
/// The same with row p of A at a + p·lda (lda >= m): A may be a strided
/// slice, such as one time step of a [B, T, C] activation (lda = T·C).
void GemmTransAAcc(const float* a, int64_t lda, const float* b, float* c,
                   int64_t m, int64_t k, int64_t n);
/// C[m,n] += A[m,k] * B[n,k]^T. Below kGemmTileRows rows it takes dot
/// products, whose reduction order differs from the register tile's; from
/// kGemmTileRows rows on, a row of C has the same bits for any m.
void GemmTransBAcc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);
/// GemmTransBAcc's two parts from kGemmTileRows rows on, for a B that many
/// products share: PackTransB writes B[n,k]^T to bt ([k, n]) and
/// GemmPackedTransBAcc multiplies by it, with GemmTransBAcc's bits. Below
/// kGemmTileRows rows GemmPackedTransBAcc keeps the register tile's order,
/// so it differs from GemmTransBAcc's dot products there.
void PackTransB(const float* b, int64_t n, int64_t k, float* bt);
void GemmPackedTransBAcc(const float* a, const float* bt, float* c, int64_t m,
                         int64_t k, int64_t n);
/// Rows of the GEMM register tile.
inline constexpr int64_t kGemmTileRows = 4;

/// Batched matrix product over the leading dimension:
/// C[b] (+)= op(A[b]) * op(B[b]) with optional transposes.
/// A: [B, m, k] (or [B, k, m] if trans_a), B analogous, C: [B, m, n].
void BatchedMatMul(const Tensor& a, bool trans_a, const Tensor& b,
                   bool trans_b, Tensor* c, bool accumulate);

/// 1-D convolution with SAME padding and stride 1 over layout [B, T, Cin].
/// weight: [Cout, K, Cin], bias: [Cout] (may be null), dilation >= 1.
/// out: [B, T, Cout]. Overwrites out.
void Conv1D(const Tensor& input, const Tensor& weight, const Tensor* bias,
            int64_t dilation, Tensor* out);
/// Backward of Conv1D: accumulates into grad_input / grad_weight / grad_bias
/// (any may be null to skip).
void Conv1DBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_out, int64_t dilation,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias);

/// 1-D average pooling, kernel `k`, stride 1, SAME padding, layout [B, T, C].
/// The average divides by the number of valid (in-bounds) taps.
void AvgPool1D(const Tensor& input, int64_t k, Tensor* out);
void AvgPool1DBackward(const Tensor& grad_out, int64_t k, Tensor* grad_input);

/// 1-D max pooling; `argmax` (same shape as out) records the winning input
/// time index per output element for the backward pass.
void MaxPool1D(const Tensor& input, int64_t k, Tensor* out,
               std::vector<int64_t>* argmax);
void MaxPool1DBackward(const Tensor& grad_out,
                       const std::vector<int64_t>& argmax, Tensor* grad_input);

}  // namespace alt

#endif  // ALT_SRC_TENSOR_KERNELS_H_
