// AVX2+FMA micro-kernels behind the runtime dispatcher (cpu_features.h).
//
// This translation unit is the only one compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt), so no AVX2 instruction can leak into code that
// runs before dispatch: callers reach these functions only after
// ActiveSimdLevel() == kAvx2, which implies both compile-time and host
// support. On toolchains/architectures without AVX2 the file degrades to
// aborting stubs and Avx2CompiledIn() == false, keeping the link portable.
//
// Determinism: every accumulator pattern below is fixed by the (i, p, j)
// sub-block alone. Each C element is loaded once, accumulated with
// sequential-p FMAs, and stored once; lanes are independent elements, so the
// bits of C[i][j] never depend on which register tile (4-row, 1-row, or
// masked epilogue) covered it, nor on how ParallelFor partitioned the rows.
// Tails use masked loads/stores so no lane ever touches memory outside the
// sub-block.
//
// The TU is built -ffp-contract=off: GCC would otherwise fuse a
// _mm256_mul_ps feeding a _mm256_add_ps (plain vector expressions) into an
// FMA, and the exp/sigmoid/tanh lanes must round every product and sum as
// the scalar lane does. FMAs are written out (_mm256_fmadd_ps, std::fma in
// the scalar tails) wherever a kernel wants one.

#include "src/tensor/kernels.h"
#include "src/tensor/kernels_simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace alt {
namespace simd {

namespace {

/// Lane mask for the final j tail: lane l is active iff l < rem (1 <= rem <= 7).
inline __m256i TailMask(int64_t rem) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)), iota);
}

/// Fixed-order horizontal sum: (lane0+lane4)+(lane1+lane5) ... pairwise.
inline float HSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline double HSumD(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

inline int32_t HSumI32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
  return _mm_cvtsi128_si32(s);
}

template <bool kTransA>
inline float AElem(const float* a, int64_t lda, int64_t i, int64_t p) {
  return kTransA ? a[p * lda + i] : a[i * lda + p];
}

/// The register-tiled panel: 4 rows x 16 columns of C live in 8 ymm
/// accumulators across the whole [p_begin, p_end) reduction, so C is touched
/// exactly once per k block (the scalar panel re-streams C every k quad —
/// that difference is most of the AVX2 win). Row tails run one row at a
/// time with a wider 32-column tile (more b reuse per a broadcast, which is
/// the m=1 inference shape); column tails drop to one vector and finally a
/// masked vector.
template <bool kTransA>
void MicroPanelImpl(const float* __restrict__ a, int64_t lda,
                    const float* __restrict__ b, int64_t ldb,
                    float* __restrict__ c, int64_t ldc, int64_t i_begin,
                    int64_t i_end, int64_t p_begin, int64_t p_end,
                    int64_t j_begin, int64_t j_end) {
  int64_t i = i_begin;
  for (; i + 4 <= i_end; i += 4) {
    float* __restrict__ c0 = c + (i + 0) * ldc;
    float* __restrict__ c1 = c + (i + 1) * ldc;
    float* __restrict__ c2 = c + (i + 2) * ldc;
    float* __restrict__ c3 = c + (i + 3) * ldc;
    int64_t j = j_begin;
    for (; j + 16 <= j_end; j += 16) {
      __m256 acc00 = _mm256_loadu_ps(c0 + j);
      __m256 acc01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 acc10 = _mm256_loadu_ps(c1 + j);
      __m256 acc11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 acc20 = _mm256_loadu_ps(c2 + j);
      __m256 acc21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 acc30 = _mm256_loadu_ps(c3 + j);
      __m256 acc31 = _mm256_loadu_ps(c3 + j + 8);
      for (int64_t p = p_begin; p < p_end; ++p) {
        const float* __restrict__ bp = b + p * ldb + j;
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        __m256 av = _mm256_set1_ps(AElem<kTransA>(a, lda, i + 0, p));
        acc00 = _mm256_fmadd_ps(av, b0, acc00);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_set1_ps(AElem<kTransA>(a, lda, i + 1, p));
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_set1_ps(AElem<kTransA>(a, lda, i + 2, p));
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_set1_ps(AElem<kTransA>(a, lda, i + 3, p));
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
      }
      _mm256_storeu_ps(c0 + j, acc00);
      _mm256_storeu_ps(c0 + j + 8, acc01);
      _mm256_storeu_ps(c1 + j, acc10);
      _mm256_storeu_ps(c1 + j + 8, acc11);
      _mm256_storeu_ps(c2 + j, acc20);
      _mm256_storeu_ps(c2 + j + 8, acc21);
      _mm256_storeu_ps(c3 + j, acc30);
      _mm256_storeu_ps(c3 + j + 8, acc31);
    }
    for (; j + 8 <= j_end; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(c0 + j);
      __m256 acc1 = _mm256_loadu_ps(c1 + j);
      __m256 acc2 = _mm256_loadu_ps(c2 + j);
      __m256 acc3 = _mm256_loadu_ps(c3 + j);
      for (int64_t p = p_begin; p < p_end; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
        acc0 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 0, p)), bv, acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 1, p)), bv, acc1);
        acc2 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 2, p)), bv, acc2);
        acc3 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 3, p)), bv, acc3);
      }
      _mm256_storeu_ps(c0 + j, acc0);
      _mm256_storeu_ps(c1 + j, acc1);
      _mm256_storeu_ps(c2 + j, acc2);
      _mm256_storeu_ps(c3 + j, acc3);
    }
    if (j < j_end) {
      const __m256i mask = TailMask(j_end - j);
      __m256 acc0 = _mm256_maskload_ps(c0 + j, mask);
      __m256 acc1 = _mm256_maskload_ps(c1 + j, mask);
      __m256 acc2 = _mm256_maskload_ps(c2 + j, mask);
      __m256 acc3 = _mm256_maskload_ps(c3 + j, mask);
      for (int64_t p = p_begin; p < p_end; ++p) {
        const __m256 bv = _mm256_maskload_ps(b + p * ldb + j, mask);
        acc0 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 0, p)), bv, acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 1, p)), bv, acc1);
        acc2 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 2, p)), bv, acc2);
        acc3 = _mm256_fmadd_ps(
            _mm256_set1_ps(AElem<kTransA>(a, lda, i + 3, p)), bv, acc3);
      }
      _mm256_maskstore_ps(c0 + j, mask, acc0);
      _mm256_maskstore_ps(c1 + j, mask, acc1);
      _mm256_maskstore_ps(c2 + j, mask, acc2);
      _mm256_maskstore_ps(c3 + j, mask, acc3);
    }
  }
  for (; i < i_end; ++i) {
    float* __restrict__ ci = c + i * ldc;
    int64_t j = j_begin;
    for (; j + 32 <= j_end; j += 32) {
      __m256 acc0 = _mm256_loadu_ps(ci + j);
      __m256 acc1 = _mm256_loadu_ps(ci + j + 8);
      __m256 acc2 = _mm256_loadu_ps(ci + j + 16);
      __m256 acc3 = _mm256_loadu_ps(ci + j + 24);
      for (int64_t p = p_begin; p < p_end; ++p) {
        const float* __restrict__ bp = b + p * ldb + j;
        const __m256 av = _mm256_set1_ps(AElem<kTransA>(a, lda, i, p));
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 16), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 24), acc3);
      }
      _mm256_storeu_ps(ci + j, acc0);
      _mm256_storeu_ps(ci + j + 8, acc1);
      _mm256_storeu_ps(ci + j + 16, acc2);
      _mm256_storeu_ps(ci + j + 24, acc3);
    }
    for (; j + 8 <= j_end; j += 8) {
      __m256 acc = _mm256_loadu_ps(ci + j);
      for (int64_t p = p_begin; p < p_end; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(AElem<kTransA>(a, lda, i, p)),
                              _mm256_loadu_ps(b + p * ldb + j), acc);
      }
      _mm256_storeu_ps(ci + j, acc);
    }
    if (j < j_end) {
      const __m256i mask = TailMask(j_end - j);
      __m256 acc = _mm256_maskload_ps(ci + j, mask);
      for (int64_t p = p_begin; p < p_end; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(AElem<kTransA>(a, lda, i, p)),
                              _mm256_maskload_ps(b + p * ldb + j, mask), acc);
      }
      _mm256_maskstore_ps(ci + j, mask, acc);
    }
  }
}

}  // namespace

bool Avx2CompiledIn() { return true; }

void GemmMicroPanelAvx2(const float* a, int64_t lda, const float* b,
                        int64_t ldb, float* c, int64_t ldc, int64_t i_begin,
                        int64_t i_end, int64_t p_begin, int64_t p_end,
                        int64_t j_begin, int64_t j_end, bool trans_a) {
  if (trans_a) {
    MicroPanelImpl<true>(a, lda, b, ldb, c, ldc, i_begin, i_end, p_begin,
                         p_end, j_begin, j_end);
  } else {
    MicroPanelImpl<false>(a, lda, b, ldb, c, ldc, i_begin, i_end, p_begin,
                          p_end, j_begin, j_end);
  }
}

float DotAvx2(const float* a, const float* b, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t p = 0;
  for (; p + 16 <= n; p += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 8),
                           _mm256_loadu_ps(b + p + 8), acc1);
  }
  for (; p + 8 <= n; p += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p),
                           acc0);
  }
  float sum = HSum(_mm256_add_ps(acc0, acc1));
  for (; p < n; ++p) sum += a[p] * b[p];
  return sum;
}

void VecAxpyAvx2(float alpha, const float* x, float* y, int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i,
        _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void VecScaleAvx2(float alpha, float* y, int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(av, _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] *= alpha;
}

void VecReluAvx2(const float* x, float* y, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

float RowMaxAvx2(const float* x, int64_t n) {
  int64_t i = 0;
  float best = x[0];
  if (n >= 8) {
    __m256 acc = _mm256_loadu_ps(x);
    i = 8;
    for (; i + 8 <= n; i += 8) {
      acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
    }
    __m128 s = _mm_max_ps(_mm256_castps256_ps128(acc),
                          _mm256_extractf128_ps(acc, 1));
    s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
    best = _mm_cvtss_f32(s);
  }
  for (; i < n; ++i) best = best > x[i] ? best : x[i];
  return best;
}

double RowSumAvx2(const float* x, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double sum = HSumD(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += static_cast<double>(x[i]);
  return sum;
}

void RowMeanVarAvx2(const float* x, int64_t n, double* mean, double* var) {
  const double m = RowSumAvx2(x, n) / static_cast<double>(n);
  const __m256d mv = _mm256_set1_pd(m);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d d0 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), mv);
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), mv);
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double ss = HSumD(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - m;
    ss = std::fma(d, d, ss);
  }
  *mean = m;
  *var = ss / static_cast<double>(n);
}

void RowNormalizeAffineAvx2(const float* src, float mean, float istd,
                            const float* gamma, const float* beta,
                            float* xhat, float* dst, int64_t n) {
  const __m256 mv = _mm256_set1_ps(mean);
  const __m256 sv = _mm256_set1_ps(istd);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 xh =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(src + j), mv), sv);
    _mm256_storeu_ps(xhat + j, xh);
    _mm256_storeu_ps(
        dst + j,
        _mm256_fmadd_ps(xh, _mm256_loadu_ps(gamma + j),
                        _mm256_loadu_ps(beta + j)));
  }
  for (; j < n; ++j) {
    const float xh = (src[j] - mean) * istd;
    xhat[j] = xh;
    dst[j] = std::fma(xh, gamma[j], beta[j]);
  }
}

namespace {

/// exp of 8 lanes by the act:: recipe (kernels_simd.h), operation for
/// operation as the scalar lane in kernels.cc. min/max keep their operand
/// order (the second operand wins on NaN), so NaN passes the clamp.
inline __m256 ExpLanes(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(act::kExpHi), x);
  x = _mm256_max_ps(_mm256_set1_ps(act::kExpLo), x);
  const __m256 magic = _mm256_set1_ps(act::kRoundMagic);
  const __m256 t =
      _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(act::kLog2e)), magic);
  const __m256 n = _mm256_sub_ps(t, magic);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(act::kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(act::kLn2Lo)));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(act::kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(act::kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(act::kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(act::kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(act::kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(act::kExpP5));
  const __m256 y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r),
                                 _mm256_set1_ps(1.0f));
  const __m256i n_int =
      _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_castps_si256(magic));
  const __m256i scale =
      _mm256_slli_epi32(_mm256_add_epi32(n_int, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(scale));
}

inline __m256 SigmoidLanes(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpLanes(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 TanhLanes(__m256 x) {
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpLanes(_mm256_add_ps(ax, ax));
  const __m256 t = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  return _mm256_or_ps(t, _mm256_and_ps(x, sign_bit));
}

/// y = lanes(x) over [0, n), the tail as one masked vector.
template <typename Lanes>
inline void MapRow(const float* x, float* y, int64_t n, Lanes lanes) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, lanes(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask(n - i);
    _mm256_maskstore_ps(y + i, mask, lanes(_mm256_maskload_ps(x + i, mask)));
  }
}

}  // namespace

void RowExpAvx2(const float* x, float* y, int64_t n) {
  MapRow(x, y, n, ExpLanes);
}

void RowSigmoidAvx2(const float* x, float* y, int64_t n) {
  MapRow(x, y, n, SigmoidLanes);
}

void RowTanhAvx2(const float* x, float* y, int64_t n) {
  MapRow(x, y, n, TanhLanes);
}

namespace {

/// Loads and stores of one 8-lane block of a row: plain when the block is
/// full, masked (zero-filled loads) for a row's last, partial block.
struct RowBlock8 {
  bool full;
  __m256i mask;

  explicit RowBlock8(int64_t rem)
      : full(rem >= 8), mask(TailMask(rem < 8 ? rem : 7)) {}
  __m256 Load(const float* p) const {
    return full ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, mask);
  }
  void Store(float* p, __m256 v) const {
    if (full) {
      _mm256_storeu_ps(p, v);
    } else {
      _mm256_maskstore_ps(p, mask, v);
    }
  }
};

/// First pass of the forward over one 8-lane block of every row: the four
/// gate activations, written over the gates, and c (see the AVX-512 form).
template <bool kFirstStep>
void LstmGatesPass8(const LstmStepForwardArgs& s, int64_t j,
                    const RowBlock8& blk) {
  const int64_t hd = s.hidden;
  for (int64_t r = 0; r < s.rows; ++r) {
    float* gates = s.gates + r * s.gates_stride;
    __m256 a[4];
    for (int64_t q = 0; q < 4; ++q) {
      const int64_t k = q * hd + j;
      a[q] = blk.Load(gates + k);
      if (!kFirstStep) {
        a[q] = _mm256_add_ps(a[q], blk.Load(s.hw + r * 4 * hd + k));
      }
      a[q] = _mm256_add_ps(a[q], blk.Load(s.bias + k));
    }
    const __m256 i = SigmoidLanes(a[0]);
    const __m256 f = SigmoidLanes(a[1]);
    const __m256 g = TanhLanes(a[2]);
    const __m256 o = SigmoidLanes(a[3]);
    const int64_t k = r * hd + j;
    const __m256 cp =
        kFirstStep ? _mm256_setzero_ps() : blk.Load(s.c_prev + k);
    blk.Store(s.c + k,
              _mm256_add_ps(_mm256_mul_ps(f, cp), _mm256_mul_ps(i, g)));
    blk.Store(gates + j, i);
    blk.Store(gates + hd + j, f);
    blk.Store(gates + 2 * hd + j, g);
    blk.Store(gates + 3 * hd + j, o);
  }
}

}  // namespace

void LstmStepForwardAvx2(const LstmStepForwardArgs& s) {
  const int64_t hd = s.hidden;
  for (int64_t j = 0; j < hd; j += 8) {
    const RowBlock8 blk(hd - j);
    if (s.hw == nullptr) {
      LstmGatesPass8<true>(s, j, blk);
    } else {
      LstmGatesPass8<false>(s, j, blk);
    }
    for (int64_t r = 0; r < s.rows; ++r) {
      const int64_t k = r * hd + j;
      const __m256 tc = TanhLanes(blk.Load(s.c + k));
      const __m256 o = blk.Load(s.gates + r * s.gates_stride + 3 * hd + j);
      const __m256 h = _mm256_mul_ps(o, tc);
      if (s.tanh_c != nullptr) blk.Store(s.tanh_c + k, tc);
      blk.Store(s.h + k, h);
      blk.Store(s.out + r * s.out_stride + j, h);
    }
  }
}

void LstmStepBackwardAvx2(const LstmStepBackwardArgs& s) {
  const int64_t hd = s.hidden;
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  // s' = s·(1 − s), t' = 1 − t·t, and a dgate 0 + (a·b)·grad.
  const auto sigmoid_grad = [&](__m256 y) {
    return _mm256_mul_ps(y, _mm256_sub_ps(one, y));
  };
  const auto tanh_grad = [&](__m256 y) {
    return _mm256_sub_ps(one, _mm256_mul_ps(y, y));
  };
  const auto dgate = [&](__m256 a, __m256 b, __m256 grad) {
    return _mm256_add_ps(zero, _mm256_mul_ps(_mm256_mul_ps(a, b), grad));
  };
  for (int64_t j = 0; j < hd; j += 8) {
    const RowBlock8 blk(hd - j);
    // The bias gradient's running sums stay in registers across the rows.
    __m256 bias[4];
    for (int64_t q = 0; q < 4; ++q) {
      bias[q] =
          s.bias_grad != nullptr ? blk.Load(s.bias_grad + q * hd + j) : zero;
    }
    for (int64_t r = 0; r < s.rows; ++r) {
      float* gates = s.gates + r * s.gates_stride;
      float* dg = s.dgates + r * 4 * hd;
      const __m256 i = blk.Load(gates + j);
      const __m256 f = blk.Load(gates + hd + j);
      const __m256 g = blk.Load(gates + 2 * hd + j);
      const __m256 o = blk.Load(gates + 3 * hd + j);
      const int64_t k = r * hd + j;
      const __m256 tc = blk.Load(s.tanh_c + k);
      const __m256 dh = blk.Load(s.dh + k);
      const __m256 carry = s.carry ? blk.Load(s.dc + k) : zero;
      const __m256 dc = _mm256_add_ps(
          carry, _mm256_mul_ps(_mm256_mul_ps(dh, o), tanh_grad(tc)));
      const __m256 cp = s.c_prev != nullptr ? blk.Load(s.c_prev + k) : zero;
      blk.Store(s.dc + k, _mm256_add_ps(zero, _mm256_mul_ps(dc, f)));
      const __m256 d[4] = {dgate(dc, g, sigmoid_grad(i)),
                           dgate(dc, cp, sigmoid_grad(f)),
                           dgate(dc, i, tanh_grad(g)),
                           dgate(dh, tc, sigmoid_grad(o))};
      for (int64_t q = 0; q < 4; ++q) {
        blk.Store(dg + q * hd + j, d[q]);
        if (s.save) blk.Store(gates + q * hd + j, d[q]);
        bias[q] = _mm256_add_ps(bias[q], d[q]);
      }
    }
    if (s.bias_grad != nullptr) {
      for (int64_t q = 0; q < 4; ++q) {
        blk.Store(s.bias_grad + q * hd + j, bias[q]);
      }
    }
  }
}

namespace {

/// Sign-extends 32 int8 values into two 16-lane int16 vectors.
inline void Cvt32(const int8_t* p, __m256i* lo, __m256i* hi) {
  const __m256i v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  *lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v));
  *hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(v, 1));
}

}  // namespace

int32_t Int8DotAvx2(const int8_t* a, const int8_t* b, int64_t k) {
  __m256i acc = _mm256_setzero_si256();
  int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    __m256i a0, a1, b0, b1;
    Cvt32(a + p, &a0, &a1);
    Cvt32(b + p, &b0, &b1);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a1, b1));
  }
  for (; p + 16 <= k; p += 16) {
    const __m256i av = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)));
    const __m256i bv = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
  }
  int32_t sum = HSumI32(acc);
  for (; p < k; ++p) {
    sum += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return sum;
}

void Int8DotX4Avx2(const int8_t* a, const int8_t* b, int64_t ldb, int64_t k,
                   int32_t* out) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  const int8_t* b0 = b;
  const int8_t* b1 = b + ldb;
  const int8_t* b2 = b + 2 * ldb;
  const int8_t* b3 = b + 3 * ldb;
  int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    __m256i alo, ahi, lo, hi;
    Cvt32(a + p, &alo, &ahi);
    Cvt32(b0 + p, &lo, &hi);
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(alo, lo));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(ahi, hi));
    Cvt32(b1 + p, &lo, &hi);
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(alo, lo));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(ahi, hi));
    Cvt32(b2 + p, &lo, &hi);
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(alo, lo));
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(ahi, hi));
    Cvt32(b3 + p, &lo, &hi);
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(alo, lo));
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(ahi, hi));
  }
  out[0] = HSumI32(acc0);
  out[1] = HSumI32(acc1);
  out[2] = HSumI32(acc2);
  out[3] = HSumI32(acc3);
  for (; p < k; ++p) {
    const int32_t av = a[p];
    out[0] += av * static_cast<int32_t>(b0[p]);
    out[1] += av * static_cast<int32_t>(b1[p]);
    out[2] += av * static_cast<int32_t>(b2[p]);
    out[3] += av * static_cast<int32_t>(b3[p]);
  }
}

void Int8QuantizeRowAvx2(const float* x, int64_t k, int8_t* out,
                         float* scale_out) {
  // Pass 1: maxabs. max is order-independent, so the lane split cannot
  // change the result vs. the scalar loop.
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 mx = _mm256_setzero_ps();
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    mx = _mm256_max_ps(mx, _mm256_and_ps(_mm256_loadu_ps(x + p), absmask));
  }
  __m128 s =
      _mm_max_ps(_mm256_castps256_ps128(mx), _mm256_extractf128_ps(mx, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  float maxabs = _mm_cvtss_f32(s);
  for (; p < k; ++p) {
    const float a = std::fabs(x[p]);
    maxabs = maxabs > a ? maxabs : a;
  }
  *scale_out = maxabs / 127.0f;
  const float inv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
  // Pass 2: quantize. The multiply is the same IEEE product the scalar path
  // computes, and cvtps2dq rounds to nearest-even under the default MXCSR
  // mode — exactly what std::lrintf does under the default fenv — so the
  // int8 codes are bit-identical to the scalar arm. |x * inv| <= 127 + 1ulp
  // by construction, so the int32 conversion cannot overflow.
  const __m256 invv = _mm256_set1_ps(inv);
  const __m256i hi = _mm256_set1_epi32(127);
  const __m256i lo = _mm256_set1_epi32(-127);
  // Picks byte 0 of each dword within each 128-bit lane.
  const __m256i byte0 = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  p = 0;
  for (; p + 8 <= k; p += 8) {
    __m256i q =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + p), invv));
    q = _mm256_min_epi32(hi, _mm256_max_epi32(lo, q));
    const __m256i b = _mm256_shuffle_epi8(q, byte0);
    _mm_storel_epi64(
        reinterpret_cast<__m128i*>(out + p),
        _mm_unpacklo_epi32(_mm256_castsi256_si128(b),
                           _mm256_extracti128_si256(b, 1)));
  }
  for (; p < k; ++p) {
    const long q = std::lrintf(x[p] * inv);
    out[p] =
        static_cast<int8_t>(std::max<long>(-127, std::min<long>(127, q)));
  }
}

}  // namespace simd
}  // namespace alt

#else  // !(__AVX2__ && __FMA__)

#include "src/util/logging.h"

namespace alt {
namespace simd {

namespace {
[[noreturn]] void AbortUnavailable() {
  ALT_CHECK(false) << "AVX2 kernel called but not compiled in; "
                      "cpu_features dispatch is broken";
  __builtin_unreachable();
}
}  // namespace

bool Avx2CompiledIn() { return false; }

void GemmMicroPanelAvx2(const float*, int64_t, const float*, int64_t, float*,
                        int64_t, int64_t, int64_t, int64_t, int64_t, int64_t,
                        int64_t, bool) {
  AbortUnavailable();
}
float DotAvx2(const float*, const float*, int64_t) { AbortUnavailable(); }
void VecAxpyAvx2(float, const float*, float*, int64_t) { AbortUnavailable(); }
void VecScaleAvx2(float, float*, int64_t) { AbortUnavailable(); }
void VecReluAvx2(const float*, float*, int64_t) { AbortUnavailable(); }
float RowMaxAvx2(const float*, int64_t) { AbortUnavailable(); }
double RowSumAvx2(const float*, int64_t) { AbortUnavailable(); }
void RowMeanVarAvx2(const float*, int64_t, double*, double*) { AbortUnavailable(); }
void RowNormalizeAffineAvx2(const float*, float, float, const float*,
                            const float*, float*, float*, int64_t) {
  AbortUnavailable();
}
void RowExpAvx2(const float*, float*, int64_t) { AbortUnavailable(); }
void RowSigmoidAvx2(const float*, float*, int64_t) { AbortUnavailable(); }
void RowTanhAvx2(const float*, float*, int64_t) { AbortUnavailable(); }
void LstmStepForwardAvx2(const LstmStepForwardArgs&) { AbortUnavailable(); }
void LstmStepBackwardAvx2(const LstmStepBackwardArgs&) {
  AbortUnavailable();
}
int32_t Int8DotAvx2(const int8_t*, const int8_t*, int64_t) { AbortUnavailable(); }
void Int8DotX4Avx2(const int8_t*, const int8_t*, int64_t, int64_t, int32_t*) {
  AbortUnavailable();
}
void Int8QuantizeRowAvx2(const float*, int64_t, int8_t*, float*) {
  AbortUnavailable();
}

}  // namespace simd
}  // namespace alt

#endif  // __AVX2__ && __FMA__
