#ifndef ALT_SRC_TENSOR_KERNELS_SIMD_H_
#define ALT_SRC_TENSOR_KERNELS_SIMD_H_

#include <cstdint>

namespace alt {

struct LstmStepForwardArgs;
struct LstmStepBackwardArgs;

namespace simd {

/// Internal interface between the dispatching kernels (kernels.cc, quant.cc —
/// compiled with the project's baseline flags) and the AVX2+FMA translation
/// unit (kernels_avx2.cc — compiled with -mavx2 -mfma when the toolchain
/// supports it). Nothing outside src/tensor/ may include this header; the
/// public contract is kernels.h/quant.h plus cpu_features.h.
///
/// Every function here must only be called when cpu_features.h resolves to
/// SimdLevel::kAvx2 (which implies Avx2CompiledIn() && host support). On
/// builds without AVX2 the definitions are aborting stubs so the library
/// still links on any architecture.
///
/// Determinism contract: for a fixed input, each function below produces the
/// same bits on every call and — for the GEMM micro-panels — the per-element
/// accumulation order depends only on (p_begin, p_end), never on how rows or
/// columns were partitioned across threads. See kernels.cc for the blocking
/// invariants these slot into.

/// Constants of the exp/sigmoid/tanh row kernels. The scalar lane in
/// kernels.cc and the AVX2/AVX-512 lanes run the same IEEE operations on
/// these values in the same order (every kernel TU is built
/// -ffp-contract=off), so each tier returns the same bits for each element.
///
/// exp(x): clamp x to [kExpLo, kExpHi]; n = round(x·log2 e), ties to even,
/// by adding and subtracting kRoundMagic; r = (x − n·kLn2Hi) − n·kLn2Lo;
/// exp(r) = ((P(r)·r² + r) + 1) with Cephes' degree-5 P; then multiply by
/// 2^n, built exactly from n's bits. The clamp keeps n in [−126, 127], so
/// 2^n is a normal float.
namespace act {
inline constexpr float kExpHi = 88.3f;
inline constexpr float kExpLo = -87.3f;
inline constexpr float kLog2e = 1.44269504088896341f;
/// 1.5·2^23: x + kRoundMagic keeps round(x) in its low mantissa bits for
/// |x| < 2^22, so bits(t) − bits(kRoundMagic) is n as an integer.
inline constexpr float kRoundMagic = 12582912.0f;
/// ln 2 = kLn2Hi + kLn2Lo; n·kLn2Hi is exact for |n| <= 256.
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;
}  // namespace act

/// True when this build contains real AVX2 code paths (compile-time fact;
/// host support is probed separately by cpu_features.cc).
bool Avx2CompiledIn();

/// C[i, j] += sum_p A(i, p) * B[p, j] over the given sub-block, FMA form:
/// sequential p, C held in registers across [p_begin, p_end). A is indexed
/// [i, p] with leading dimension lda, or [p, i] when trans_a.
void GemmMicroPanelAvx2(const float* a, int64_t lda, const float* b,
                        int64_t ldb, float* c, int64_t ldc, int64_t i_begin,
                        int64_t i_end, int64_t p_begin, int64_t p_end,
                        int64_t j_begin, int64_t j_end, bool trans_a);

/// sum_p a[p] * b[p], 8-lane FMA with fixed lane-combine order.
float DotAvx2(const float* a, const float* b, int64_t n);

/// y[i] += alpha * x[i] over [0, n).
void VecAxpyAvx2(float alpha, const float* x, float* y, int64_t n);
/// y[i] *= alpha over [0, n).
void VecScaleAvx2(float alpha, float* y, int64_t n);
/// y[i] = max(x[i], 0).
void VecReluAvx2(const float* x, float* y, int64_t n);

/// max_i x[i]; n >= 1. Exact (max is order-independent).
float RowMaxAvx2(const float* x, int64_t n);
/// sum_i x[i] accumulated in 4 double lanes, fixed combine order.
double RowSumAvx2(const float* x, int64_t n);
/// Two-pass mean and (population) variance in double, 4-lane accumulation.
void RowMeanVarAvx2(const float* x, int64_t n, double* mean, double* var);
/// Layer-norm inner loop: xhat[j] = (src[j] - mean) * istd;
/// dst[j] = xhat[j] * gamma[j] + beta[j].
void RowNormalizeAffineAvx2(const float* src, float mean, float istd,
                            const float* gamma, const float* beta,
                            float* xhat, float* dst, int64_t n);
/// y[i] = exp / sigmoid / tanh of x[i] (x == y allowed), the act:: recipe
/// per lane; the masked tail computes exactly as a full vector does.
void RowExpAvx2(const float* x, float* y, int64_t n);
void RowSigmoidAvx2(const float* x, float* y, int64_t n);
void RowTanhAvx2(const float* x, float* y, int64_t n);
/// LstmStepForward / LstmStepBackward (kernels.h) over 8-lane vectors; each
/// row's last vector is masked. The forward runs two passes over the rows
/// (gates and c, then tanh(c) and h) and the backward keeps the bias
/// gradient's sums in registers; per element the operations are the scalar
/// lane's, so the bits are too.
void LstmStepForwardAvx2(const LstmStepForwardArgs& args);
void LstmStepBackwardAvx2(const LstmStepBackwardArgs& args);

/// sum_p a[p] * b[p] over int8 operands with exact int32 accumulation
/// (sign-extend to int16, _mm256_madd_epi16). Bit-identical to the scalar
/// reference for any order because integer addition is associative.
int32_t Int8DotAvx2(const int8_t* a, const int8_t* b, int64_t k);

/// Four int8 dot products sharing the sign-extension of `a`:
/// out[j] = sum_p a[p] * b[j*ldb + p] for j in 0..3.
void Int8DotX4Avx2(const int8_t* a, const int8_t* b, int64_t ldb, int64_t k,
                   int32_t* out);

/// AVX-512 (F+BW+VL) tier — kernels_avx512.cc. Same contracts as the AVX2
/// functions above, with 16-lane vectors and mask-register tails; only call
/// when ActiveSimdLevel() == kAvx512. The int8 dots are bit-identical to
/// the AVX2/scalar ones (exact int32); the fp32 panels define their own
/// fixed reduction grouping, distinct from both other levels.
bool Avx512CompiledIn();

void GemmMicroPanelAvx512(const float* a, int64_t lda, const float* b,
                          int64_t ldb, float* c, int64_t ldc, int64_t i_begin,
                          int64_t i_end, int64_t p_begin, int64_t p_end,
                          int64_t j_begin, int64_t j_end, bool trans_a);

float DotAvx512(const float* a, const float* b, int64_t n);

/// 16-lane forms of RowExpAvx2 / RowSigmoidAvx2 / RowTanhAvx2: same bits.
void RowExpAvx512(const float* x, float* y, int64_t n);
void RowSigmoidAvx512(const float* x, float* y, int64_t n);
void RowTanhAvx512(const float* x, float* y, int64_t n);
/// 16-lane forms of the LSTM step kernels: one masked vector covers a row
/// of H <= 16 (the paper's H = 15). Same bits.
void LstmStepForwardAvx512(const LstmStepForwardArgs& args);
void LstmStepBackwardAvx512(const LstmStepBackwardArgs& args);

int32_t Int8DotAvx512(const int8_t* a, const int8_t* b, int64_t k);
void Int8DotX4Avx512(const int8_t* a, const int8_t* b, int64_t ldb, int64_t k,
                     int32_t* out);

/// VNNI refinement of the int8 GEMM (vpdpbusd; only call when
/// cpu_features' Avx512VnniSupported() is true). The weight is in the
/// packed "VNNI layout" [k4/4, n, 4]: for column j and depth p,
/// w_vnni[(p/4)*n*4 + j*4 + p%4] = q(W)[j][p], zero-padded to k4 =
/// RoundUp(k, 4) depths. `au` is one activation row of k4 bytes holding
/// q(x)+128 (offset-binary), padding arbitrary (the padded weights are 0).
///
/// `au` holds m such rows with stride k4. Accumulates, for every row i and
/// j in [j_begin, j_end), the exact int32
///   acc_ij = sum_p (q(x)[i][p] + 128) * q(W)[j][p]
/// then fuses the dequantization store
///   c[i * n + j] = (sx[i] * sw[j]) * float(acc_ij - 128 * row_sums[j])
/// with the product associated exactly like the scalar arm, so the fp32
/// output bits match the madd/scalar int8 kernels.
void Int8GemmVnniAvx512(const uint8_t* au, int64_t m, int64_t k4,
                        const int8_t* w_vnni, int64_t n, int64_t j_begin,
                        int64_t j_end, const float* sx, const float* sw,
                        const int32_t* row_sums, float* c);
bool Avx512VnniCompiledIn();

/// One row of activation quantization straight into the VNNI GEMM's
/// offset-binary input: out[p] = (clamp(rint(x[p] * 127 / maxabs)) XOR 0x80)
/// for p < k, and the neutral code 0x80 (q = 0) for the k..k4 padding.
/// The int8 codes match Int8QuantizeRowAvx2 / the scalar path bit-for-bit
/// (identical multiply; cvtps2dq and lrintf both round to nearest-even).
/// Plain AVX-512, callable whenever ActiveSimdLevel() == kAvx512.
void Int8QuantizeRowVnniAvx512(const float* x, int64_t k, int64_t k4,
                               uint8_t* out, float* scale_out);

/// One row of symmetric int8 activation quantization:
/// *scale_out = maxabs(x) / 127, out[p] = clamp(rint(x[p] * 127 / maxabs)).
/// Rounding is cvtps2dq (nearest-even under the default MXCSR mode), which
/// matches the scalar std::lrintf path bit-for-bit.
void Int8QuantizeRowAvx2(const float* x, int64_t k, int8_t* out,
                         float* scale_out);

}  // namespace simd
}  // namespace alt

#endif  // ALT_SRC_TENSOR_KERNELS_SIMD_H_
