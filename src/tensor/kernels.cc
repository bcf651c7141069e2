#include "src/tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/tensor/cpu_features.h"
#include "src/tensor/kernels_simd.h"
#include "src/tensor/scratch.h"
#include "src/util/logging.h"
#include "src/util/parallel_for.h"

namespace alt {

namespace {

/// Cache/register blocking parameters ----------------------------------------
///
/// The GEMMs are structured as: parallel row panels (GemmRowGrain rows of C
/// per ParallelFor chunk) x column blocks (kNC columns of B/C) x k blocks
/// (kKC reduction steps), with a kMR-row register tile whose inner j loop is
/// a branch-free multiply-add stream the compiler auto-vectorizes. The k
/// dimension is additionally unrolled by 4 inside the register tile so each
/// load/store of a C row amortizes four fused multiply-adds.
///
/// Determinism: every row of C accumulates its k products in exactly the same
/// order (quads of k in pairwise order, then the k tail sequentially) no
/// matter how rows are grouped into panels, and ParallelFor chunk boundaries
/// are fixed multiples of the grain, which depends on the shape alone.
/// Results are therefore bit-identical for any thread count. Grains are
/// multiples of kRowGrain, itself a multiple of kMR, so register-tile
/// boundaries also never depend on the partition.
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 1024;
constexpr int64_t kMR = kGemmTileRows;
constexpr int64_t kRowGrain = 32;
static_assert(kRowGrain % kMR == 0, "panels must preserve register tiling");
static_assert(kKC % 4 == 0, "k blocks must preserve the quad unroll");

/// Approximate scalar ops per C element per unit k, for grain derivation.
constexpr int64_t kGemmWorkPerRow = 2;

/// Rows of C per compute-pool chunk: enough that each chunk carries
/// kMinParallelWork, rounded up to a multiple of kRowGrain. A GEMM smaller
/// than two such chunks runs inline on the caller.
int64_t GemmRowGrain(int64_t k, int64_t n) {
  const int64_t per_row = std::max<int64_t>(1, kGemmWorkPerRow * k * n);
  const int64_t rows = (kMinParallelWork + per_row - 1) / per_row;
  return (rows + kRowGrain - 1) / kRowGrain * kRowGrain;
}

/// One relaxed atomic load; re-read per kernel call so SetSimdLevel (tests,
/// benchmarks) takes effect immediately. The AVX-512 tier only replaces the
/// GEMM micro-panels, long dot products and the exp/sigmoid/tanh rows; every
/// other vector primitive uses the 256-bit implementations whenever the
/// level is at least kAvx2 (an AVX-512 host always supports them).
inline bool UseAvx2() { return ActiveSimdLevel() >= SimdLevel::kAvx2; }

/// exp of one lane by the act:: recipe (kernels_simd.h): the reference the
/// AVX2 and AVX-512 lanes reproduce bit for bit. The clamps are written so
/// NaN passes them, as minps/maxps with the bound first do.
inline float ExpLane(float x) {
  namespace act = simd::act;
  x = act::kExpHi < x ? act::kExpHi : x;
  x = act::kExpLo > x ? act::kExpLo : x;
  const float t = x * act::kLog2e + act::kRoundMagic;
  const float n = t - act::kRoundMagic;
  float r = x - n * act::kLn2Hi;
  r = r - n * act::kLn2Lo;
  const float z = r * r;
  float p = act::kExpP0;
  p = p * r + act::kExpP1;
  p = p * r + act::kExpP2;
  p = p * r + act::kExpP3;
  p = p * r + act::kExpP4;
  p = p * r + act::kExpP5;
  const float y = (p * z + r) + 1.0f;
  const uint32_t n_int = std::bit_cast<uint32_t>(t) -
                         std::bit_cast<uint32_t>(act::kRoundMagic);
  return y * std::bit_cast<float>((n_int + 127u) << 23);
}

inline float SigmoidLane(float x) { return 1.0f / (1.0f + ExpLane(-x)); }

/// sign(x) · (1 − 2 / (exp(2|x|) + 1)): odd by construction, ±1 past the
/// clamp, and NaN keeps its sign.
inline float TanhLane(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  const float ax = std::bit_cast<float>(bits & 0x7fffffffu);
  const float t = 1.0f - 2.0f / (ExpLane(ax + ax) + 1.0f);
  return std::bit_cast<float>(std::bit_cast<uint32_t>(t) |
                              (bits & 0x80000000u));
}

template <bool kTransA>
inline float LoadA(const float* a, int64_t lda, int64_t i, int64_t p) {
  return kTransA ? a[p * lda + i] : a[i * lda + p];
}

/// C[i, j] += sum_p A(i, p) * B[p, j] over the given i/p/j sub-block.
/// A is indexed [i, p] with leading dimension lda (or [p, i] if kTransA).
template <bool kTransA>
void MicroPanel(const float* __restrict__ a, int64_t lda,
                const float* __restrict__ b, int64_t ldb,
                float* __restrict__ c, int64_t ldc, int64_t i_begin,
                int64_t i_end, int64_t p_begin, int64_t p_end, int64_t j_begin,
                int64_t j_end) {
  int64_t i = i_begin;
  for (; i + kMR <= i_end; i += kMR) {
    float* __restrict__ c0 = c + (i + 0) * ldc;
    float* __restrict__ c1 = c + (i + 1) * ldc;
    float* __restrict__ c2 = c + (i + 2) * ldc;
    float* __restrict__ c3 = c + (i + 3) * ldc;
    int64_t p = p_begin;
    for (; p + 4 <= p_end; p += 4) {
      const float* __restrict__ b0 = b + (p + 0) * ldb;
      const float* __restrict__ b1 = b + (p + 1) * ldb;
      const float* __restrict__ b2 = b + (p + 2) * ldb;
      const float* __restrict__ b3 = b + (p + 3) * ldb;
      const float a00 = LoadA<kTransA>(a, lda, i + 0, p);
      const float a01 = LoadA<kTransA>(a, lda, i + 0, p + 1);
      const float a02 = LoadA<kTransA>(a, lda, i + 0, p + 2);
      const float a03 = LoadA<kTransA>(a, lda, i + 0, p + 3);
      const float a10 = LoadA<kTransA>(a, lda, i + 1, p);
      const float a11 = LoadA<kTransA>(a, lda, i + 1, p + 1);
      const float a12 = LoadA<kTransA>(a, lda, i + 1, p + 2);
      const float a13 = LoadA<kTransA>(a, lda, i + 1, p + 3);
      const float a20 = LoadA<kTransA>(a, lda, i + 2, p);
      const float a21 = LoadA<kTransA>(a, lda, i + 2, p + 1);
      const float a22 = LoadA<kTransA>(a, lda, i + 2, p + 2);
      const float a23 = LoadA<kTransA>(a, lda, i + 2, p + 3);
      const float a30 = LoadA<kTransA>(a, lda, i + 3, p);
      const float a31 = LoadA<kTransA>(a, lda, i + 3, p + 1);
      const float a32 = LoadA<kTransA>(a, lda, i + 3, p + 2);
      const float a33 = LoadA<kTransA>(a, lda, i + 3, p + 3);
      for (int64_t j = j_begin; j < j_end; ++j) {
        c0[j] += (a00 * b0[j] + a01 * b1[j]) + (a02 * b2[j] + a03 * b3[j]);
        c1[j] += (a10 * b0[j] + a11 * b1[j]) + (a12 * b2[j] + a13 * b3[j]);
        c2[j] += (a20 * b0[j] + a21 * b1[j]) + (a22 * b2[j] + a23 * b3[j]);
        c3[j] += (a30 * b0[j] + a31 * b1[j]) + (a32 * b2[j] + a33 * b3[j]);
      }
    }
    for (; p < p_end; ++p) {
      const float* __restrict__ bp = b + p * ldb;
      const float a0 = LoadA<kTransA>(a, lda, i + 0, p);
      const float a1 = LoadA<kTransA>(a, lda, i + 1, p);
      const float a2 = LoadA<kTransA>(a, lda, i + 2, p);
      const float a3 = LoadA<kTransA>(a, lda, i + 3, p);
      for (int64_t j = j_begin; j < j_end; ++j) {
        c0[j] += a0 * bp[j];
        c1[j] += a1 * bp[j];
        c2[j] += a2 * bp[j];
        c3[j] += a3 * bp[j];
      }
    }
  }
  // Row tail (< kMR rows): identical k order — quads pairwise, then the
  // sequential k tail — so a row computes the same bits whichever path
  // handles it.
  for (; i < i_end; ++i) {
    float* __restrict__ ci = c + i * ldc;
    int64_t p = p_begin;
    for (; p + 4 <= p_end; p += 4) {
      const float* __restrict__ b0 = b + (p + 0) * ldb;
      const float* __restrict__ b1 = b + (p + 1) * ldb;
      const float* __restrict__ b2 = b + (p + 2) * ldb;
      const float* __restrict__ b3 = b + (p + 3) * ldb;
      const float a0 = LoadA<kTransA>(a, lda, i, p);
      const float a1 = LoadA<kTransA>(a, lda, i, p + 1);
      const float a2 = LoadA<kTransA>(a, lda, i, p + 2);
      const float a3 = LoadA<kTransA>(a, lda, i, p + 3);
      for (int64_t j = j_begin; j < j_end; ++j) {
        ci[j] += (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
      }
    }
    for (; p < p_end; ++p) {
      const float* __restrict__ bp = b + p * ldb;
      const float av = LoadA<kTransA>(a, lda, i, p);
      for (int64_t j = j_begin; j < j_end; ++j) ci[j] += av * bp[j];
    }
  }
}

/// Shared driver: C[m,n] += op(A) * B with blocking and row-panel
/// parallelism. B is [k, n] with leading dimension ldb. The SIMD level is
/// sampled once per call so a mid-call SetSimdLevel from another thread
/// cannot mix micro-kernels within one GEMM.
template <bool kTransA>
void BlockedGemm(const float* a, int64_t lda, const float* b, int64_t ldb,
                 float* c, int64_t m, int64_t k, int64_t n) {
  const SimdLevel level = ActiveSimdLevel();
  ParallelFor(0, m, GemmRowGrain(k, n), [&](int64_t i0, int64_t i1) {
    for (int64_t j0 = 0; j0 < n; j0 += kNC) {
      const int64_t j1 = std::min<int64_t>(n, j0 + kNC);
      for (int64_t p0 = 0; p0 < k; p0 += kKC) {
        const int64_t p1 = std::min<int64_t>(k, p0 + kKC);
        if (level == SimdLevel::kAvx512) {
          simd::GemmMicroPanelAvx512(a, lda, b, ldb, c, n, i0, i1, p0, p1,
                                     j0, j1, kTransA);
        } else if (level == SimdLevel::kAvx2) {
          simd::GemmMicroPanelAvx2(a, lda, b, ldb, c, n, i0, i1, p0, p1, j0,
                                   j1, kTransA);
        } else {
          MicroPanel<kTransA>(a, lda, b, ldb, c, n, i0, i1, p0, p1, j0, j1);
        }
      }
    }
  });
}

/// C[m,n] (+)= A[m,k] * B[k,n].
void GemmImpl(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  BlockedGemm<false>(a, k, b, n, c, m, k, n);
}

/// GemmImpl, timed and counted (Gemm, GemmAcc). Handles cached per call
/// site; disabled-mode cost is one relaxed load and zero clock reads (the
/// < 3% bench_kernels budget, see DESIGN.md). The per-ISA split needs both
/// handles pre-resolved because the macro latches its name on first use — a
/// runtime-built name would pin the first ISA.
void TimedGemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n, bool accumulate) {
  const SimdLevel timer_level = ActiveSimdLevel();
  obs::ScopedTimerMs timer(
      timer_level == SimdLevel::kAvx512
          ? ALT_OBS_HISTOGRAM_HANDLE("tensor/gemm/time_ms/avx512")
          : timer_level == SimdLevel::kAvx2
                ? ALT_OBS_HISTOGRAM_HANDLE("tensor/gemm/time_ms/avx2")
                : ALT_OBS_HISTOGRAM_HANDLE("tensor/gemm/time_ms/scalar"));
  ALT_OBS_COUNTER_ADD("tensor/gemm/calls_total", 1);
  GemmImpl(a, b, c, m, k, n, accumulate);
}

/// C[m,n] += A[k,m]^T B[k,n], row p of A at a + p·lda.
void GemmTransAImpl(const float* a, int64_t lda, const float* b, float* c,
                    int64_t m, int64_t k, int64_t n) {
  BlockedGemm<true>(a, lda, b, n, c, m, k, n);
}

/// C[m,n] += A[m,k] B[n,k]^T. B is repacked as B^T so the inner loops stream
/// contiguously; the pack is O(kn) against O(mkn) compute. For very small m
/// the pack does not amortize, so fall back to sequential dot products.
void GemmTransBImpl(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  if (m < kMR) {
    const SimdLevel level = ActiveSimdLevel();
    for (int64_t i = 0; i < m; ++i) {
      const float* __restrict__ arow = a + i * k;
      float* __restrict__ crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* __restrict__ brow = b + j * k;
        if (level == SimdLevel::kAvx512) {
          crow[j] += simd::DotAvx512(arow, brow, k);
        } else if (level == SimdLevel::kAvx2) {
          crow[j] += simd::DotAvx2(arow, brow, k);
        } else {
          float acc = 0.0f;
          for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
          crow[j] += acc;
        }
      }
    }
    return;
  }
  ScratchFrame frame;
  float* bt = frame.Floats(k * n);
  PackTransB(b, n, k, bt);
  BlockedGemm<false>(a, k, bt, n, c, m, k, n);
}

}  // namespace

void VecAxpy(float alpha, const float* x, float* y, int64_t n) {
  const bool avx2 = UseAvx2();
  ParallelForWork(n, kGemmWorkPerRow, [&](int64_t lo, int64_t hi) {
    if (avx2) {
      simd::VecAxpyAvx2(alpha, x + lo, y + lo, hi - lo);
      return;
    }
    const float* __restrict__ xs = x;
    float* __restrict__ ys = y;
    for (int64_t i = lo; i < hi; ++i) ys[i] += alpha * xs[i];
  });
}

void VecScale(float alpha, float* y, int64_t n) {
  const bool avx2 = UseAvx2();
  ParallelForWork(n, 1, [&](int64_t lo, int64_t hi) {
    if (avx2) {
      simd::VecScaleAvx2(alpha, y + lo, hi - lo);
      return;
    }
    float* __restrict__ ys = y;
    for (int64_t i = lo; i < hi; ++i) ys[i] *= alpha;
  });
}

void VecRelu(const float* x, float* y, int64_t n) {
  if (UseAvx2()) {
    simd::VecReluAvx2(x, y, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void RowScale(float alpha, float* y, int64_t n) {
  if (UseAvx2()) {
    simd::VecScaleAvx2(alpha, y, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) y[i] *= alpha;
}

float RowMax(const float* x, int64_t n) {
  ALT_DCHECK_GE(n, 1);
  if (UseAvx2()) return simd::RowMaxAvx2(x, n);
  float best = x[0];
  for (int64_t i = 1; i < n; ++i) best = std::max(best, x[i]);
  return best;
}

double RowSumDouble(const float* x, int64_t n) {
  if (UseAvx2()) return simd::RowSumAvx2(x, n);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) total += static_cast<double>(x[i]);
  return total;
}

void RowMeanVar(const float* x, int64_t n, double* mean, double* var) {
  if (UseAvx2()) {
    simd::RowMeanVarAvx2(x, n, mean, var);
    return;
  }
  double m = 0.0;
  for (int64_t i = 0; i < n; ++i) m += x[i];
  m /= static_cast<double>(n);
  double v = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = x[i] - m;
    v += d * d;
  }
  *mean = m;
  *var = v / static_cast<double>(n);
}

void RowExp(const float* x, float* y, int64_t n) {
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx512) {
    simd::RowExpAvx512(x, y, n);
  } else if (level == SimdLevel::kAvx2) {
    simd::RowExpAvx2(x, y, n);
  } else {
    for (int64_t i = 0; i < n; ++i) y[i] = ExpLane(x[i]);
  }
}

void RowSigmoid(const float* x, float* y, int64_t n) {
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx512) {
    simd::RowSigmoidAvx512(x, y, n);
  } else if (level == SimdLevel::kAvx2) {
    simd::RowSigmoidAvx2(x, y, n);
  } else {
    for (int64_t i = 0; i < n; ++i) y[i] = SigmoidLane(x[i]);
  }
}

void RowTanh(const float* x, float* y, int64_t n) {
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx512) {
    simd::RowTanhAvx512(x, y, n);
  } else if (level == SimdLevel::kAvx2) {
    simd::RowTanhAvx2(x, y, n);
  } else {
    for (int64_t i = 0; i < n; ++i) y[i] = TanhLane(x[i]);
  }
}

void LstmStepForward(const LstmStepForwardArgs& s) {
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx512) {
    simd::LstmStepForwardAvx512(s);
    return;
  }
  if (level == SimdLevel::kAvx2) {
    simd::LstmStepForwardAvx2(s);
    return;
  }
  const int64_t hd = s.hidden;
  for (int64_t r = 0; r < s.rows; ++r) {
    float* gates = s.gates + r * s.gates_stride;
    const float* hw = s.hw != nullptr ? s.hw + r * 4 * hd : nullptr;
    const float* c_prev = s.c_prev != nullptr ? s.c_prev + r * hd : nullptr;
    for (int64_t j = 0; j < hd; ++j) {
      float a[4];
      for (int64_t q = 0; q < 4; ++q) {
        const int64_t k = q * hd + j;
        a[q] = hw != nullptr ? (gates[k] + hw[k]) + s.bias[k]
                             : gates[k] + s.bias[k];
      }
      const float i = SigmoidLane(a[0]);
      const float f = SigmoidLane(a[1]);
      const float g = TanhLane(a[2]);
      const float o = SigmoidLane(a[3]);
      const float cp = c_prev != nullptr ? c_prev[j] : 0.0f;
      const float c = f * cp + i * g;
      const float tc = TanhLane(c);
      const float h = o * tc;
      s.c[r * hd + j] = c;
      if (s.tanh_c != nullptr) s.tanh_c[r * hd + j] = tc;
      s.h[r * hd + j] = h;
      s.out[r * s.out_stride + j] = h;
      gates[j] = i;
      gates[hd + j] = f;
      gates[2 * hd + j] = g;
      gates[3 * hd + j] = o;
    }
  }
}

void LstmStepBackward(const LstmStepBackwardArgs& s) {
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx512) {
    simd::LstmStepBackwardAvx512(s);
    return;
  }
  if (level == SimdLevel::kAvx2) {
    simd::LstmStepBackwardAvx2(s);
    return;
  }
  const int64_t hd = s.hidden;
  for (int64_t r = 0; r < s.rows; ++r) {
    float* gates = s.gates + r * s.gates_stride;
    float* dg = s.dgates + r * 4 * hd;
    for (int64_t j = 0; j < hd; ++j) {
      const int64_t k = r * hd + j;
      const float i = gates[j];
      const float f = gates[hd + j];
      const float g = gates[2 * hd + j];
      const float o = gates[3 * hd + j];
      const float tc = s.tanh_c[k];
      const float dh = s.dh[k];
      const float carry = s.carry ? s.dc[k] : 0.0f;
      const float dc = carry + (dh * o) * (1.0f - tc * tc);
      const float cp = s.c_prev != nullptr ? s.c_prev[k] : 0.0f;
      s.dc[k] = 0.0f + dc * f;
      dg[j] = 0.0f + (dc * g) * (i * (1.0f - i));
      dg[hd + j] = 0.0f + (dc * cp) * (f * (1.0f - f));
      dg[2 * hd + j] = 0.0f + (dc * i) * (1.0f - g * g);
      dg[3 * hd + j] = 0.0f + (dh * tc) * (o * (1.0f - o));
    }
    if (s.save) std::copy(dg, dg + 4 * hd, gates);
    if (s.bias_grad != nullptr) {
      for (int64_t k = 0; k < 4 * hd; ++k) s.bias_grad[k] += dg[k];
    }
  }
}

void RowNormalizeAffine(const float* src, float mean, float istd,
                        const float* gamma, const float* beta, float* xhat,
                        float* dst, int64_t n) {
  if (UseAvx2()) {
    simd::RowNormalizeAffineAvx2(src, mean, istd, gamma, beta, xhat, dst, n);
    return;
  }
  for (int64_t j = 0; j < n; ++j) {
    const float xh = (src[j] - mean) * istd;
    xhat[j] = xh;
    dst[j] = xh * gamma[j] + beta[j];
  }
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* c) {
  ALT_CHECK_EQ(a.ndim(), 2);
  ALT_CHECK_EQ(b.ndim(), 2);
  ALT_CHECK_EQ(a.size(1), b.size(0));
  ALT_CHECK_EQ(c->size(0), a.size(0));
  ALT_CHECK_EQ(c->size(1), b.size(1));
  Gemm(a.data(), b.data(), c->data(), a.size(0), a.size(1), b.size(1));
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  TimedGemm(a, b, c, m, k, n, /*accumulate=*/false);
}

void GemmAcc(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  TimedGemm(a, b, c, m, k, n, /*accumulate=*/true);
}

void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* c) {
  ALT_CHECK_EQ(a.size(1), b.size(0));
  GemmImpl(a.data(), b.data(), c->data(), a.size(0), a.size(1), b.size(1),
           /*accumulate=*/true);
}

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* c) {
  ALT_CHECK_EQ(a.size(0), b.size(0));
  GemmTransAAcc(a.data(), b.data(), c->data(), a.size(1), a.size(0),
                b.size(1));
}

void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* c) {
  ALT_CHECK_EQ(a.size(1), b.size(1));
  GemmTransBAcc(a.data(), b.data(), c->data(), a.size(0), a.size(1),
                b.size(0));
}

void GemmTransAAcc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  GemmTransAImpl(a, m, b, c, m, k, n);
}

void GemmTransAAcc(const float* a, int64_t lda, const float* b, float* c,
                   int64_t m, int64_t k, int64_t n) {
  ALT_DCHECK_GE(lda, m);
  GemmTransAImpl(a, lda, b, c, m, k, n);
}

void GemmTransBAcc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  GemmTransBImpl(a, b, c, m, k, n);
}

void PackTransB(const float* b, int64_t n, int64_t k, float* bt) {
  for (int64_t j = 0; j < n; ++j) {
    const float* __restrict__ brow = b + j * k;
    for (int64_t p = 0; p < k; ++p) bt[p * n + j] = brow[p];
  }
}

void GemmPackedTransBAcc(const float* a, const float* bt, float* c, int64_t m,
                         int64_t k, int64_t n) {
  BlockedGemm<false>(a, k, bt, n, c, m, k, n);
}

void BatchedMatMul(const Tensor& a, bool trans_a, const Tensor& b,
                   bool trans_b, Tensor* c, bool accumulate) {
  ALT_CHECK_EQ(a.ndim(), 3);
  ALT_CHECK_EQ(b.ndim(), 3);
  ALT_CHECK_EQ(c->ndim(), 3);
  const int64_t batch = a.size(0);
  ALT_CHECK_EQ(b.size(0), batch);
  ALT_CHECK_EQ(c->size(0), batch);
  const int64_t m = trans_a ? a.size(2) : a.size(1);
  const int64_t k = trans_a ? a.size(1) : a.size(2);
  const int64_t kb = trans_b ? b.size(2) : b.size(1);
  const int64_t n = trans_b ? b.size(1) : b.size(2);
  ALT_CHECK_EQ(k, kb);
  ALT_CHECK_EQ(c->size(1), m);
  ALT_CHECK_EQ(c->size(2), n);

  const SimdLevel timer_level = ActiveSimdLevel();
  obs::ScopedTimerMs timer(
      timer_level == SimdLevel::kAvx512
          ? ALT_OBS_HISTOGRAM_HANDLE("tensor/batched_matmul/time_ms/avx512")
          : timer_level == SimdLevel::kAvx2
                ? ALT_OBS_HISTOGRAM_HANDLE("tensor/batched_matmul/time_ms/avx2")
                : ALT_OBS_HISTOGRAM_HANDLE(
                      "tensor/batched_matmul/time_ms/scalar"));

  const int64_t a_stride = a.size(1) * a.size(2);
  const int64_t b_stride = b.size(1) * b.size(2);
  const int64_t c_stride = m * n;
  // Parallel over the batch when it holds at least two chunks of work;
  // otherwise the outer loop collapses and each GEMM decides on its own.
  ParallelForWork(batch, kGemmWorkPerRow * m * k * n,
                  [&](int64_t b0, int64_t b1) {
    for (int64_t bi = b0; bi < b1; ++bi) {
      const float* ap = a.data() + bi * a_stride;
      const float* bp = b.data() + bi * b_stride;
      float* cp = c->data() + bi * c_stride;
      if (!accumulate) std::fill(cp, cp + c_stride, 0.0f);
      if (!trans_a && !trans_b) {
        GemmImpl(ap, bp, cp, m, k, n, /*accumulate=*/true);
      } else if (trans_a && !trans_b) {
        GemmTransAImpl(ap, m, bp, cp, m, k, n);
      } else if (!trans_a && trans_b) {
        GemmTransBImpl(ap, bp, cp, m, k, n);
      } else {
        // (A^T B^T): rarely needed; do it elementwise.
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p) {
              acc += ap[p * m + i] * bp[j * k + p];
            }
            cp[i * n + j] += acc;
          }
        }
      }
    }
  });
}

void Conv1D(const Tensor& input, const Tensor& weight, const Tensor* bias,
            int64_t dilation, Tensor* out) {
  ALT_CHECK_EQ(input.ndim(), 3);
  ALT_CHECK_EQ(weight.ndim(), 3);
  const int64_t batch = input.size(0);
  const int64_t seq = input.size(1);
  const int64_t cin = input.size(2);
  const int64_t cout = weight.size(0);
  const int64_t k = weight.size(1);
  ALT_CHECK_EQ(weight.size(2), cin);
  ALT_CHECK_EQ(out->size(0), batch);
  ALT_CHECK_EQ(out->size(1), seq);
  ALT_CHECK_EQ(out->size(2), cout);
  ALT_CHECK_GE(dilation, 1);

  const SimdLevel timer_level = ActiveSimdLevel();
  obs::ScopedTimerMs timer(
      timer_level == SimdLevel::kAvx512
          ? ALT_OBS_HISTOGRAM_HANDLE("tensor/conv1d/time_ms/avx512")
          : timer_level == SimdLevel::kAvx2
                ? ALT_OBS_HISTOGRAM_HANDLE("tensor/conv1d/time_ms/avx2")
                : ALT_OBS_HISTOGRAM_HANDLE("tensor/conv1d/time_ms/scalar"));

  // im2col + GEMM: each output row [t, :] is X2[t, :] * W^T where
  // X2[t, j*cin + ci] holds input[t + (j - half)*dilation, ci] under SAME
  // padding (zeros outside the sequence). The repacked weight Wt[p, co] is
  // shared read-only across the batch; the im2col buffer comes from the
  // worker thread's scratch arena (tracked, reused across calls) instead of
  // an untracked per-call thread_local vector.
  const int64_t half = (k - 1) / 2;
  const int64_t cols = k * cin;
  std::vector<float> wt(static_cast<size_t>(cols * cout));
  for (int64_t co = 0; co < cout; ++co) {
    const float* __restrict__ w = weight.data() + co * cols;
    for (int64_t p = 0; p < cols; ++p) {
      wt[static_cast<size_t>(p * cout + co)] = w[p];
    }
  }

  ParallelForWork(batch, kGemmWorkPerRow * seq * cols * cout,
                  [&](int64_t b0, int64_t b1) {
    ScratchFrame frame;
    float* x2 = frame.Floats(seq * cols);
    for (int64_t b = b0; b < b1; ++b) {
      // Zero-fill so the SAME-padding taps that skip out-of-range time
      // steps read zeros.
      std::fill(x2, x2 + seq * cols, 0.0f);
      for (int64_t t = 0; t < seq; ++t) {
        float* __restrict__ xrow = x2 + t * cols;
        for (int64_t j = 0; j < k; ++j) {
          const int64_t ti = t + (j - half) * dilation;
          if (ti < 0 || ti >= seq) continue;
          const float* __restrict__ irow = input.data() + (b * seq + ti) * cin;
          float* __restrict__ dst = xrow + j * cin;
          for (int64_t ci = 0; ci < cin; ++ci) dst[ci] = irow[ci];
        }
      }
      float* cp = out->data() + b * seq * cout;
      GemmImpl(x2, wt.data(), cp, seq, cols, cout,
               /*accumulate=*/false);
      if (bias != nullptr) {
        for (int64_t t = 0; t < seq; ++t) {
          float* __restrict__ orow = cp + t * cout;
          for (int64_t co = 0; co < cout; ++co) orow[co] += (*bias)[co];
        }
      }
    }
  });
}

void Conv1DBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_out, int64_t dilation,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias) {
  const int64_t batch = input.size(0);
  const int64_t seq = input.size(1);
  const int64_t cin = input.size(2);
  const int64_t cout = weight.size(0);
  const int64_t k = weight.size(1);
  const int64_t half = (k - 1) / 2;

  // Sequential: grad_weight/grad_bias accumulate across the whole batch and
  // grad_input rows overlap across taps, so naive loop parallelism would
  // race. Backward cost is dominated by the forward GEMMs elsewhere.
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < seq; ++t) {
      const float* grow = grad_out.data() + (b * seq + t) * cout;
      if (grad_bias != nullptr) {
        for (int64_t co = 0; co < cout; ++co) (*grad_bias)[co] += grow[co];
      }
      for (int64_t j = 0; j < k; ++j) {
        const int64_t ti = t + (j - half) * dilation;
        if (ti < 0 || ti >= seq) continue;
        const float* irow = input.data() + (b * seq + ti) * cin;
        float* girow = grad_input != nullptr
                           ? grad_input->data() + (b * seq + ti) * cin
                           : nullptr;
        for (int64_t co = 0; co < cout; ++co) {
          const float g = grow[co];
          const float* __restrict__ w = weight.data() + (co * k + j) * cin;
          if (girow != nullptr) {
            for (int64_t ci = 0; ci < cin; ++ci) girow[ci] += g * w[ci];
          }
          if (grad_weight != nullptr) {
            float* __restrict__ gw = grad_weight->data() + (co * k + j) * cin;
            for (int64_t ci = 0; ci < cin; ++ci) gw[ci] += g * irow[ci];
          }
        }
      }
    }
  }
}

void AvgPool1D(const Tensor& input, int64_t k, Tensor* out) {
  const int64_t batch = input.size(0);
  const int64_t seq = input.size(1);
  const int64_t c = input.size(2);
  const int64_t half = (k - 1) / 2;
  out->SetZero();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < seq; ++t) {
      float* orow = out->data() + (b * seq + t) * c;
      int64_t count = 0;
      for (int64_t j = 0; j < k; ++j) {
        const int64_t ti = t + j - half;
        if (ti < 0 || ti >= seq) continue;
        ++count;
        const float* irow = input.data() + (b * seq + ti) * c;
        for (int64_t ci = 0; ci < c; ++ci) orow[ci] += irow[ci];
      }
      ALT_CHECK_GT(count, 0);
      const float inv = 1.0f / static_cast<float>(count);
      for (int64_t ci = 0; ci < c; ++ci) orow[ci] *= inv;
    }
  }
}

void AvgPool1DBackward(const Tensor& grad_out, int64_t k, Tensor* grad_input) {
  const int64_t batch = grad_out.size(0);
  const int64_t seq = grad_out.size(1);
  const int64_t c = grad_out.size(2);
  const int64_t half = (k - 1) / 2;
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < seq; ++t) {
      int64_t count = 0;
      for (int64_t j = 0; j < k; ++j) {
        const int64_t ti = t + j - half;
        if (ti >= 0 && ti < seq) ++count;
      }
      const float inv = 1.0f / static_cast<float>(count);
      const float* grow = grad_out.data() + (b * seq + t) * c;
      for (int64_t j = 0; j < k; ++j) {
        const int64_t ti = t + j - half;
        if (ti < 0 || ti >= seq) continue;
        float* girow = grad_input->data() + (b * seq + ti) * c;
        for (int64_t ci = 0; ci < c; ++ci) girow[ci] += grow[ci] * inv;
      }
    }
  }
}

void MaxPool1D(const Tensor& input, int64_t k, Tensor* out,
               std::vector<int64_t>* argmax) {
  const int64_t batch = input.size(0);
  const int64_t seq = input.size(1);
  const int64_t c = input.size(2);
  const int64_t half = (k - 1) / 2;
  argmax->assign(static_cast<size_t>(out->numel()), -1);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < seq; ++t) {
      float* orow = out->data() + (b * seq + t) * c;
      int64_t* arow = argmax->data() + (b * seq + t) * c;
      for (int64_t ci = 0; ci < c; ++ci) {
        orow[ci] = -std::numeric_limits<float>::infinity();
      }
      for (int64_t j = 0; j < k; ++j) {
        const int64_t ti = t + j - half;
        if (ti < 0 || ti >= seq) continue;
        const float* irow = input.data() + (b * seq + ti) * c;
        for (int64_t ci = 0; ci < c; ++ci) {
          if (irow[ci] > orow[ci]) {
            orow[ci] = irow[ci];
            arow[ci] = ti;
          }
        }
      }
    }
  }
}

void MaxPool1DBackward(const Tensor& grad_out,
                       const std::vector<int64_t>& argmax,
                       Tensor* grad_input) {
  const int64_t batch = grad_out.size(0);
  const int64_t seq = grad_out.size(1);
  const int64_t c = grad_out.size(2);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < seq; ++t) {
      const float* grow = grad_out.data() + (b * seq + t) * c;
      const int64_t* arow = argmax.data() + (b * seq + t) * c;
      for (int64_t ci = 0; ci < c; ++ci) {
        const int64_t ti = arow[ci];
        if (ti < 0) continue;
        grad_input->data()[(b * seq + ti) * c + ci] += grow[ci];
      }
    }
  }
}

}  // namespace alt
