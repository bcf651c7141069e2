// AVX-512 micro-kernels behind the runtime dispatcher (cpu_features.h).
//
// Like kernels_avx2.cc, this is the only translation unit compiled with the
// AVX-512 flags (-mavx512f -mavx512bw -mavx512vl; see
// src/tensor/CMakeLists.txt), so 512-bit instructions cannot leak into code
// that runs before dispatch. Callers reach these functions only when
// ActiveSimdLevel() == kAvx512. On toolchains/architectures without AVX-512
// the file degrades to aborting stubs and Avx512CompiledIn() == false.
//
// The register tiles go up to 8 rows x 32 columns (16 zmm accumulators out
// of the 32 architectural registers), which keeps two b loads feeding
// sixteen FMAs per k step — broadcast/load pressure is what capped the AVX2
// tile. Column tails use mask registers ((1 << rem) - 1), so no lane ever
// touches memory outside the sub-block and there is no scalar epilogue to
// fall into.
//
// Determinism: identical contract to the AVX2 tier — each C element is
// loaded once, accumulated with sequential-p FMAs, stored once; the bits of
// C[i][j] depend only on (p_begin, p_end), never on which tile shape covered
// the element or how rows were partitioned across threads.
//
// Built -ffp-contract=off like kernels_avx2.cc: the exp/sigmoid/tanh lanes
// below return the scalar lane's bits only if no mul+add pair is fused.

#include "src/tensor/kernels.h"
#include "src/tensor/kernels_simd.h"
#include "src/util/logging.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>

namespace alt {
namespace simd {

namespace {

inline __mmask16 TailMask16(int64_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

/// Fixed-order horizontal sum: 256-bit halves first, then the AVX2 pairwise
/// pattern, so the grouping is pinned by this code and not by the compiler.
inline float HSum512(__m512 v) {
  // _mm512_extractf32x8_ps needs AVX512DQ; the f64x4 extract is plain F.
  __m256 half = _mm256_add_ps(
      _mm512_castps512_ps256(v),
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
  __m128 lo = _mm256_castps256_ps128(half);
  __m128 hi = _mm256_extractf128_ps(half, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline int32_t HSumI32x16(__m512i v) {
  __m256i half = _mm256_add_epi32(_mm512_castsi512_si256(v),
                                  _mm512_extracti64x4_epi64(v, 1));
  __m128i lo = _mm256_castsi256_si128(half);
  __m128i hi = _mm256_extracti128_si256(half, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
  return _mm_cvtsi128_si32(s);
}

template <bool kTransA>
inline float AElem(const float* a, int64_t lda, int64_t i, int64_t p) {
  return kTransA ? a[p * lda + i] : a[i * lda + p];
}

/// kRows x (16 * kVecs) register tile: kRows*kVecs zmm accumulators held
/// across the whole [p_begin, p_end) reduction. The main tile is 8x32
/// (16 accumulators); 4-row bands widen to 4x48 so more FMAs share each
/// broadcast. kRows*kVecs + kVecs + 1 must stay within the 32 zmm registers.
template <bool kTransA, int kRows, int kVecs>
inline void Tile(const float* __restrict__ a, int64_t lda,
                 const float* __restrict__ b, int64_t ldb,
                 float* __restrict__ c, int64_t ldc, int64_t i,
                 int64_t p_begin, int64_t p_end, int64_t j) {
  __m512 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = _mm512_loadu_ps(c + (i + r) * ldc + j + 16 * v);
    }
  }
  for (int64_t p = p_begin; p < p_end; ++p) {
    const float* __restrict__ bp = b + p * ldb + j;
    __m512 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) bv[v] = _mm512_loadu_ps(bp + 16 * v);
    for (int r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(AElem<kTransA>(a, lda, i + r, p));
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      _mm512_storeu_ps(c + (i + r) * ldc + j + 16 * v, acc[r][v]);
    }
  }
}

/// kRows x (<=16) masked tile for column tails; inactive lanes are never
/// loaded or stored.
template <bool kTransA, int kRows>
inline void TileMasked(const float* __restrict__ a, int64_t lda,
                       const float* __restrict__ b, int64_t ldb,
                       float* __restrict__ c, int64_t ldc, int64_t i,
                       int64_t p_begin, int64_t p_end, int64_t j,
                       __mmask16 mask) {
  __m512 acc[kRows];
  for (int r = 0; r < kRows; ++r) {
    acc[r] = _mm512_maskz_loadu_ps(mask, c + (i + r) * ldc + j);
  }
  for (int64_t p = p_begin; p < p_end; ++p) {
    const __m512 bv = _mm512_maskz_loadu_ps(mask, b + p * ldb + j);
    for (int r = 0; r < kRows; ++r) {
      acc[r] = _mm512_fmadd_ps(
          _mm512_set1_ps(AElem<kTransA>(a, lda, i + r, p)), bv, acc[r]);
    }
  }
  for (int r = 0; r < kRows; ++r) {
    _mm512_mask_storeu_ps(c + (i + r) * ldc + j, mask, acc[r]);
  }
}

template <bool kTransA, int kRows, int kVecs>
inline void RowBand(const float* __restrict__ a, int64_t lda,
                    const float* __restrict__ b, int64_t ldb,
                    float* __restrict__ c, int64_t ldc, int64_t i,
                    int64_t p_begin, int64_t p_end, int64_t j_begin,
                    int64_t j_end) {
  int64_t j = j_begin;
  for (; j + 16 * kVecs <= j_end; j += 16 * kVecs) {
    Tile<kTransA, kRows, kVecs>(a, lda, b, ldb, c, ldc, i, p_begin, p_end, j);
  }
  while (j < j_end) {
    const int64_t rem = std::min<int64_t>(16, j_end - j);
    TileMasked<kTransA, kRows>(a, lda, b, ldb, c, ldc, i, p_begin, p_end, j,
                               TailMask16(rem));
    j += rem;
  }
}

template <bool kTransA>
void MicroPanelImpl(const float* __restrict__ a, int64_t lda,
                    const float* __restrict__ b, int64_t ldb,
                    float* __restrict__ c, int64_t ldc, int64_t i_begin,
                    int64_t i_end, int64_t p_begin, int64_t p_end,
                    int64_t j_begin, int64_t j_end) {
  int64_t i = i_begin;
  for (; i + 8 <= i_end; i += 8) {
    RowBand<kTransA, 8, 2>(a, lda, b, ldb, c, ldc, i, p_begin, p_end, j_begin,
                           j_end);
  }
  for (; i + 4 <= i_end; i += 4) {
    RowBand<kTransA, 4, 3>(a, lda, b, ldb, c, ldc, i, p_begin, p_end, j_begin,
                           j_end);
  }
  for (; i + 2 <= i_end; i += 2) {
    RowBand<kTransA, 2, 4>(a, lda, b, ldb, c, ldc, i, p_begin, p_end, j_begin,
                           j_end);
  }
  for (; i < i_end; ++i) {
    RowBand<kTransA, 1, 4>(a, lda, b, ldb, c, ldc, i, p_begin, p_end, j_begin,
                           j_end);
  }
}

/// Sign-extends 64 int8 values into two 32-lane int16 vectors.
inline void Cvt64(const int8_t* p, __m512i* lo, __m512i* hi) {
  const __m512i v = _mm512_loadu_si512(p);
  *lo = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(v));
  *hi = _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(v, 1));
}

inline __m512i Cvt32(const int8_t* p) {
  return _mm512_cvtepi8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

}  // namespace

bool Avx512CompiledIn() { return true; }

void GemmMicroPanelAvx512(const float* a, int64_t lda, const float* b,
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

float DotAvx512(const float* a, const float* b, int64_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  int64_t p = 0;
  for (; p + 32 <= n; p += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + p), _mm512_loadu_ps(b + p),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + p + 16),
                           _mm512_loadu_ps(b + p + 16), acc1);
  }
  for (; p + 16 <= n; p += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + p), _mm512_loadu_ps(b + p),
                           acc0);
  }
  if (p < n) {
    const __mmask16 mask = TailMask16(n - p);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, a + p),
                           _mm512_maskz_loadu_ps(mask, b + p), acc1);
  }
  return HSum512(_mm512_add_ps(acc0, acc1));
}

namespace {

/// exp of 16 lanes by the act:: recipe, operation for operation as the
/// scalar lane in kernels.cc and ExpLanes in kernels_avx2.cc. Sign-bit
/// logic runs in the integer domain: the _ps logic ops need AVX512DQ.
inline __m512 ExpLanes16(__m512 x) {
  x = _mm512_min_ps(_mm512_set1_ps(act::kExpHi), x);
  x = _mm512_max_ps(_mm512_set1_ps(act::kExpLo), x);
  const __m512 magic = _mm512_set1_ps(act::kRoundMagic);
  const __m512 t =
      _mm512_add_ps(_mm512_mul_ps(x, _mm512_set1_ps(act::kLog2e)), magic);
  const __m512 n = _mm512_sub_ps(t, magic);
  __m512 r = _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(act::kLn2Hi)));
  r = _mm512_sub_ps(r, _mm512_mul_ps(n, _mm512_set1_ps(act::kLn2Lo)));
  const __m512 z = _mm512_mul_ps(r, r);
  __m512 p = _mm512_set1_ps(act::kExpP0);
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(act::kExpP1));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(act::kExpP2));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(act::kExpP3));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(act::kExpP4));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(act::kExpP5));
  const __m512 y = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(p, z), r),
                                 _mm512_set1_ps(1.0f));
  const __m512i n_int =
      _mm512_sub_epi32(_mm512_castps_si512(t), _mm512_castps_si512(magic));
  const __m512i scale =
      _mm512_slli_epi32(_mm512_add_epi32(n_int, _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(scale));
}

inline __m512 SigmoidLanes16(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 neg = _mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(x), _mm512_set1_epi32(INT32_MIN)));
  return _mm512_div_ps(one, _mm512_add_ps(one, ExpLanes16(neg)));
}

inline __m512 TanhLanes16(__m512 x) {
  const __m512i bits = _mm512_castps_si512(x);
  const __m512i sign_bit = _mm512_set1_epi32(INT32_MIN);
  const __m512 ax = _mm512_castsi512_ps(_mm512_andnot_si512(sign_bit, bits));
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 e = ExpLanes16(_mm512_add_ps(ax, ax));
  const __m512 t = _mm512_sub_ps(
      one, _mm512_div_ps(_mm512_set1_ps(2.0f), _mm512_add_ps(e, one)));
  return _mm512_castsi512_ps(_mm512_or_si512(
      _mm512_castps_si512(t), _mm512_and_si512(bits, sign_bit)));
}

/// y = lanes(x) over [0, n), the tail as one masked vector.
template <typename Lanes>
inline void MapRow16(const float* x, float* y, int64_t n, Lanes lanes) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, lanes(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(y + i, mask,
                          lanes(_mm512_maskz_loadu_ps(mask, x + i)));
  }
}

}  // namespace

void RowExpAvx512(const float* x, float* y, int64_t n) {
  MapRow16(x, y, n, ExpLanes16);
}

void RowSigmoidAvx512(const float* x, float* y, int64_t n) {
  MapRow16(x, y, n, SigmoidLanes16);
}

void RowTanhAvx512(const float* x, float* y, int64_t n) {
  MapRow16(x, y, n, TanhLanes16);
}

// The LSTM step kernels run each row's H elements as 16-lane vectors, the
// last one masked, so one vector covers a row of H <= 16. Loads are zero-
// masked (masked-off lanes compute on zeros and are never stored).

namespace {

/// First pass of the forward over one 16-lane block of every row: the four
/// gate activations, written over the gates, and c. A row's gates are
/// independent of one another and of other rows, and the pass has no
/// branch, so many exp chains are in flight at once.
template <bool kFirstStep>
void LstmGatesPass16(const LstmStepForwardArgs& s, int64_t j, __mmask16 m) {
  const int64_t hd = s.hidden;
  for (int64_t r = 0; r < s.rows; ++r) {
    float* gates = s.gates + r * s.gates_stride;
    __m512 a[4];
    for (int64_t q = 0; q < 4; ++q) {
      const int64_t k = q * hd + j;
      a[q] = _mm512_maskz_loadu_ps(m, gates + k);
      if (!kFirstStep) {
        a[q] = _mm512_add_ps(a[q],
                             _mm512_maskz_loadu_ps(m, s.hw + r * 4 * hd + k));
      }
      a[q] = _mm512_add_ps(a[q], _mm512_maskz_loadu_ps(m, s.bias + k));
    }
    const __m512 i = SigmoidLanes16(a[0]);
    const __m512 f = SigmoidLanes16(a[1]);
    const __m512 g = TanhLanes16(a[2]);
    const __m512 o = SigmoidLanes16(a[3]);
    const int64_t k = r * hd + j;
    const __m512 cp = kFirstStep ? _mm512_setzero_ps()
                                 : _mm512_maskz_loadu_ps(m, s.c_prev + k);
    _mm512_mask_storeu_ps(
        s.c + k, m, _mm512_add_ps(_mm512_mul_ps(f, cp), _mm512_mul_ps(i, g)));
    _mm512_mask_storeu_ps(gates + j, m, i);
    _mm512_mask_storeu_ps(gates + hd + j, m, f);
    _mm512_mask_storeu_ps(gates + 2 * hd + j, m, g);
    _mm512_mask_storeu_ps(gates + 3 * hd + j, m, o);
  }
}

}  // namespace

void LstmStepForwardAvx512(const LstmStepForwardArgs& s) {
  const int64_t hd = s.hidden;
  for (int64_t j = 0; j < hd; j += 16) {
    const __mmask16 m = TailMask16(std::min<int64_t>(16, hd - j));
    if (s.hw == nullptr) {
      LstmGatesPass16<true>(s, j, m);
    } else {
      LstmGatesPass16<false>(s, j, m);
    }
    // Second pass: tanh(c) and h = o·tanh(c), whose chains are independent
    // across rows.
    for (int64_t r = 0; r < s.rows; ++r) {
      const int64_t k = r * hd + j;
      const __m512 tc = TanhLanes16(_mm512_maskz_loadu_ps(m, s.c + k));
      const __m512 o = _mm512_maskz_loadu_ps(
          m, s.gates + r * s.gates_stride + 3 * hd + j);
      const __m512 h = _mm512_mul_ps(o, tc);
      if (s.tanh_c != nullptr) _mm512_mask_storeu_ps(s.tanh_c + k, m, tc);
      _mm512_mask_storeu_ps(s.h + k, m, h);
      _mm512_mask_storeu_ps(s.out + r * s.out_stride + j, m, h);
    }
  }
}

void LstmStepBackwardAvx512(const LstmStepBackwardArgs& s) {
  const int64_t hd = s.hidden;
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  // s' = s·(1 − s), t' = 1 − t·t, and a dgate 0 + (a·b)·grad.
  const auto sigmoid_grad = [&](__m512 y) {
    return _mm512_mul_ps(y, _mm512_sub_ps(one, y));
  };
  const auto tanh_grad = [&](__m512 y) {
    return _mm512_sub_ps(one, _mm512_mul_ps(y, y));
  };
  const auto dgate = [&](__m512 a, __m512 b, __m512 grad) {
    return _mm512_add_ps(zero, _mm512_mul_ps(_mm512_mul_ps(a, b), grad));
  };
  for (int64_t j = 0; j < hd; j += 16) {
    const __mmask16 m = TailMask16(std::min<int64_t>(16, hd - j));
    // The bias gradient's running sums stay in registers across the rows.
    __m512 bias[4];
    for (int64_t q = 0; q < 4; ++q) {
      bias[q] = s.bias_grad != nullptr
                    ? _mm512_maskz_loadu_ps(m, s.bias_grad + q * hd + j)
                    : zero;
    }
    for (int64_t r = 0; r < s.rows; ++r) {
      float* gates = s.gates + r * s.gates_stride;
      float* dg = s.dgates + r * 4 * hd;
      const __m512 i = _mm512_maskz_loadu_ps(m, gates + j);
      const __m512 f = _mm512_maskz_loadu_ps(m, gates + hd + j);
      const __m512 g = _mm512_maskz_loadu_ps(m, gates + 2 * hd + j);
      const __m512 o = _mm512_maskz_loadu_ps(m, gates + 3 * hd + j);
      const int64_t k = r * hd + j;
      const __m512 tc = _mm512_maskz_loadu_ps(m, s.tanh_c + k);
      const __m512 dh = _mm512_maskz_loadu_ps(m, s.dh + k);
      const __m512 carry =
          s.carry ? _mm512_maskz_loadu_ps(m, s.dc + k) : zero;
      const __m512 dc = _mm512_add_ps(
          carry, _mm512_mul_ps(_mm512_mul_ps(dh, o), tanh_grad(tc)));
      const __m512 cp = s.c_prev != nullptr
                            ? _mm512_maskz_loadu_ps(m, s.c_prev + k)
                            : zero;
      _mm512_mask_storeu_ps(s.dc + k, m,
                            _mm512_add_ps(zero, _mm512_mul_ps(dc, f)));
      const __m512 d[4] = {dgate(dc, g, sigmoid_grad(i)),
                           dgate(dc, cp, sigmoid_grad(f)),
                           dgate(dc, i, tanh_grad(g)),
                           dgate(dh, tc, sigmoid_grad(o))};
      for (int64_t q = 0; q < 4; ++q) {
        _mm512_mask_storeu_ps(dg + q * hd + j, m, d[q]);
        if (s.save) _mm512_mask_storeu_ps(gates + q * hd + j, m, d[q]);
        bias[q] = _mm512_add_ps(bias[q], d[q]);
      }
    }
    if (s.bias_grad != nullptr) {
      for (int64_t q = 0; q < 4; ++q) {
        _mm512_mask_storeu_ps(s.bias_grad + q * hd + j, m, bias[q]);
      }
    }
  }
}

int32_t Int8DotAvx512(const int8_t* a, const int8_t* b, int64_t k) {
  __m512i acc = _mm512_setzero_si512();
  int64_t p = 0;
  for (; p + 64 <= k; p += 64) {
    __m512i alo, ahi, blo, bhi;
    Cvt64(a + p, &alo, &ahi);
    Cvt64(b + p, &blo, &bhi);
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(alo, blo));
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(ahi, bhi));
  }
  for (; p + 32 <= k; p += 32) {
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(Cvt32(a + p), Cvt32(b + p)));
  }
  int32_t sum = HSumI32x16(acc);
  for (; p < k; ++p) {
    sum += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return sum;
}

void Int8DotX4Avx512(const int8_t* a, const int8_t* b, int64_t ldb, int64_t k,
                     int32_t* out) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  const int8_t* b0 = b;
  const int8_t* b1 = b + ldb;
  const int8_t* b2 = b + 2 * ldb;
  const int8_t* b3 = b + 3 * ldb;
  int64_t p = 0;
  for (; p + 64 <= k; p += 64) {
    __m512i alo, ahi, lo, hi;
    Cvt64(a + p, &alo, &ahi);
    Cvt64(b0 + p, &lo, &hi);
    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(alo, lo));
    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(ahi, hi));
    Cvt64(b1 + p, &lo, &hi);
    acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(alo, lo));
    acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(ahi, hi));
    Cvt64(b2 + p, &lo, &hi);
    acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(alo, lo));
    acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(ahi, hi));
    Cvt64(b3 + p, &lo, &hi);
    acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(alo, lo));
    acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(ahi, hi));
  }
  out[0] = HSumI32x16(acc0);
  out[1] = HSumI32x16(acc1);
  out[2] = HSumI32x16(acc2);
  out[3] = HSumI32x16(acc3);
  for (; p < k; ++p) {
    const int32_t av = a[p];
    out[0] += av * static_cast<int32_t>(b0[p]);
    out[1] += av * static_cast<int32_t>(b1[p]);
    out[2] += av * static_cast<int32_t>(b2[p]);
    out[3] += av * static_cast<int32_t>(b3[p]);
  }
}

void Int8QuantizeRowVnniAvx512(const float* x, int64_t k, int64_t k4,
                               uint8_t* out, float* scale_out) {
  // Pass 1: maxabs. max is order-independent, so the lane split cannot
  // change the result vs. the scalar/AVX2 loops. The sign-bit clear goes
  // through the integer domain: _mm512_and_ps needs AVX512DQ, which is not
  // in this TU's flag set.
  const __m512i absmask = _mm512_set1_epi32(0x7fffffff);
  __m512 mx = _mm512_setzero_ps();
  int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    mx = _mm512_max_ps(
        mx, _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(_mm512_loadu_ps(x + p)), absmask)));
  }
  if (p < k) {
    const __mmask16 mask = TailMask16(k - p);
    mx = _mm512_max_ps(
        mx, _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(_mm512_maskz_loadu_ps(mask, x + p)),
                absmask)));
  }
  const float maxabs = _mm512_reduce_max_ps(mx);
  *scale_out = maxabs / 127.0f;
  const float inv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
  // Pass 2: quantize, offset to u8 (q XOR 0x80 — exact in the truncated
  // low byte), and narrow with vpmovdb. Same IEEE multiply and
  // nearest-even conversion as the scalar lrintf path, so the codes are
  // bit-identical across quantizer implementations.
  const __m512 invv = _mm512_set1_ps(inv);
  const __m512i hi = _mm512_set1_epi32(127);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i off = _mm512_set1_epi32(0x80);
  p = 0;
  for (; p + 16 <= k; p += 16) {
    __m512i q =
        _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(x + p), invv));
    q = _mm512_xor_si512(_mm512_min_epi32(hi, _mm512_max_epi32(lo, q)), off);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + p),
                     _mm512_cvtepi32_epi8(q));
  }
  if (p < k) {
    const __mmask16 mask = TailMask16(k - p);
    __m512i q = _mm512_cvtps_epi32(
        _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, x + p), invv));
    q = _mm512_xor_si512(_mm512_min_epi32(hi, _mm512_max_epi32(lo, q)), off);
    _mm512_mask_cvtepi32_storeu_epi8(out + p, mask, q);
    p = k;
  }
  for (; p < k4; ++p) out[p] = 0x80;  // Neutral code: q = 0.
}

#if defined(__AVX512VNNI__)

bool Avx512VnniCompiledIn() { return true; }

namespace {

/// Offset-binary correction + dequantization for 16 columns of VNNI
/// accumulator: (sa * sw[j]) * float(acc_j - 128 * rs[j]). Both products
/// round per lane exactly like the scalar arm's
/// `sa * sw[j] * float(acc - 128 * rs[j])` (left-associated), so the fp32
/// bits match across paths.
inline __m512 DequantVnni(__m512i acc, __m512i rsv, __m512 sa512,
                          const float* sw) {
  const __m512i corr = _mm512_sub_epi32(acc, _mm512_slli_epi32(rsv, 7));
  const __m512 scale = _mm512_mul_ps(sa512, _mm512_loadu_ps(sw));
  return _mm512_mul_ps(scale, _mm512_cvtepi32_ps(corr));
}

}  // namespace

namespace {

/// Stores one row's worth of a 64-column accumulator block, dequantized.
inline void StoreDequant64(__m512i a0, __m512i a1, __m512i a2, __m512i a3,
                           float sa, const float* sw, const int32_t* rs,
                           float* crow) {
  const __m512 sa512 = _mm512_set1_ps(sa);
  _mm512_storeu_ps(crow, DequantVnni(a0, _mm512_loadu_si512(rs), sa512, sw));
  _mm512_storeu_ps(crow + 16,
                   DequantVnni(a1, _mm512_loadu_si512(rs + 16), sa512,
                               sw + 16));
  _mm512_storeu_ps(crow + 32,
                   DequantVnni(a2, _mm512_loadu_si512(rs + 32), sa512,
                               sw + 32));
  _mm512_storeu_ps(crow + 48,
                   DequantVnni(a3, _mm512_loadu_si512(rs + 48), sa512,
                               sw + 48));
}

}  // namespace

void Int8GemmVnniAvx512(const uint8_t* au, int64_t m, int64_t k4,
                        const int8_t* w_vnni, int64_t n, int64_t j_begin,
                        int64_t j_end, const float* sx, const float* sw,
                        const int32_t* row_sums, float* c) {
  // Each zmm lane is one output column's int32 accumulator; vpdpbusd folds
  // four u8*s8 products per lane per step, so there is no horizontal
  // reduction at all — the win over the madd kernels at serving-size k.
  // Rows go two at a time: eight independent accumulator chains hide the
  // ~5-cycle vpdpbusd latency (four chains leave the loop latency-bound at
  // under half throughput), and each weight load feeds both rows. The
  // +128 correction and the dequantizing store are fused so accumulators
  // go straight from registers to the fp32 output rows. j blocks are outer
  // so a block's weight slice (64 * k4 bytes) stays L1-resident across all
  // m rows.
  int64_t j = j_begin;
  for (; j + 64 <= j_end; j += 64) {
    const int32_t* rs = row_sums + j;
    int64_t i = 0;
    for (; i + 2 <= m; i += 2) {
      const uint8_t* a0 = au + i * k4;
      const uint8_t* a1 = a0 + k4;
      __m512i acc00 = _mm512_setzero_si512();
      __m512i acc01 = _mm512_setzero_si512();
      __m512i acc02 = _mm512_setzero_si512();
      __m512i acc03 = _mm512_setzero_si512();
      __m512i acc10 = _mm512_setzero_si512();
      __m512i acc11 = _mm512_setzero_si512();
      __m512i acc12 = _mm512_setzero_si512();
      __m512i acc13 = _mm512_setzero_si512();
      for (int64_t p4 = 0; p4 < k4 / 4; ++p4) {
        const __m512i av0 = _mm512_set1_epi32(
            *reinterpret_cast<const int*>(a0 + 4 * p4));
        const __m512i av1 = _mm512_set1_epi32(
            *reinterpret_cast<const int*>(a1 + 4 * p4));
        const int8_t* wp = w_vnni + (p4 * n + j) * 4;
        __m512i w0 = _mm512_loadu_si512(wp);
        __m512i w1 = _mm512_loadu_si512(wp + 64);
        __m512i w2 = _mm512_loadu_si512(wp + 128);
        __m512i w3 = _mm512_loadu_si512(wp + 192);
        // Pin the shared weight vectors to registers: without this, gcc
        // folds each load into a vpdpbusd memory operand and issues it
        // twice (once per row), pushing the loop from 6 to 10 load uops
        // per step and past the two-loads-per-cycle port budget.
        asm("" : "+v"(w0), "+v"(w1), "+v"(w2), "+v"(w3));
        acc00 = _mm512_dpbusd_epi32(acc00, av0, w0);
        acc10 = _mm512_dpbusd_epi32(acc10, av1, w0);
        acc01 = _mm512_dpbusd_epi32(acc01, av0, w1);
        acc11 = _mm512_dpbusd_epi32(acc11, av1, w1);
        acc02 = _mm512_dpbusd_epi32(acc02, av0, w2);
        acc12 = _mm512_dpbusd_epi32(acc12, av1, w2);
        acc03 = _mm512_dpbusd_epi32(acc03, av0, w3);
        acc13 = _mm512_dpbusd_epi32(acc13, av1, w3);
      }
      StoreDequant64(acc00, acc01, acc02, acc03, sx[i], sw + j, rs,
                     c + i * n + j);
      StoreDequant64(acc10, acc11, acc12, acc13, sx[i + 1], sw + j, rs,
                     c + (i + 1) * n + j);
    }
    if (i < m) {
      const uint8_t* a0 = au + i * k4;
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      for (int64_t p4 = 0; p4 < k4 / 4; ++p4) {
        const __m512i av = _mm512_set1_epi32(
            *reinterpret_cast<const int*>(a0 + 4 * p4));
        const int8_t* wp = w_vnni + (p4 * n + j) * 4;
        acc0 = _mm512_dpbusd_epi32(acc0, av, _mm512_loadu_si512(wp));
        acc1 = _mm512_dpbusd_epi32(acc1, av, _mm512_loadu_si512(wp + 64));
        acc2 = _mm512_dpbusd_epi32(acc2, av, _mm512_loadu_si512(wp + 128));
        acc3 = _mm512_dpbusd_epi32(acc3, av, _mm512_loadu_si512(wp + 192));
      }
      StoreDequant64(acc0, acc1, acc2, acc3, sx[i], sw + j, rs,
                     c + i * n + j);
    }
  }
  while (j < j_end) {
    const int64_t rem = std::min<int64_t>(16, j_end - j);
    const __mmask16 mask = TailMask16(rem);
    const __m512i rsv = _mm512_maskz_loadu_epi32(mask, row_sums + j);
    const __m512 swv = _mm512_maskz_loadu_ps(mask, sw + j);
    for (int64_t i = 0; i < m; ++i) {
      const uint8_t* a0 = au + i * k4;
      __m512i accv = _mm512_setzero_si512();
      for (int64_t p4 = 0; p4 < k4 / 4; ++p4) {
        const __m512i av = _mm512_set1_epi32(
            *reinterpret_cast<const int*>(a0 + 4 * p4));
        const __m512i wv = _mm512_maskz_loadu_epi32(
            mask, w_vnni + (p4 * n + j) * 4);
        accv = _mm512_dpbusd_epi32(accv, av, wv);
      }
      const __m512i corr =
          _mm512_sub_epi32(accv, _mm512_slli_epi32(rsv, 7));
      const __m512 scale = _mm512_mul_ps(_mm512_set1_ps(sx[i]), swv);
      _mm512_mask_storeu_ps(c + i * n + j, mask,
                            _mm512_mul_ps(scale, _mm512_cvtepi32_ps(corr)));
    }
    j += rem;
  }
}

#else  // !__AVX512VNNI__

bool Avx512VnniCompiledIn() { return false; }

void Int8GemmVnniAvx512(const uint8_t*, int64_t, int64_t, const int8_t*,
                        int64_t, int64_t, int64_t, const float*, const float*,
                        const int32_t*, float*) {
  ALT_CHECK(false) << "VNNI kernel called but not compiled in; "
                      "cpu_features dispatch is broken";
  __builtin_unreachable();
}

#endif  // __AVX512VNNI__

}  // namespace simd
}  // namespace alt

#else  // !(AVX-512 F+BW+VL)

#include "src/util/logging.h"

namespace alt {
namespace simd {

namespace {
[[noreturn]] void Unavailable512() {
  ALT_CHECK(false) << "AVX-512 kernel called but not compiled in; "
                      "cpu_features dispatch is broken";
  __builtin_unreachable();
}
}  // namespace

bool Avx512CompiledIn() { return false; }
bool Avx512VnniCompiledIn() { return false; }

void GemmMicroPanelAvx512(const float*, int64_t, const float*, int64_t,
                          float*, int64_t, int64_t, int64_t, int64_t, int64_t,
                          int64_t, int64_t, bool) {
  Unavailable512();
}
void Int8GemmVnniAvx512(const uint8_t*, int64_t, int64_t, const int8_t*,
                        int64_t, int64_t, int64_t, const float*, const float*,
                        const int32_t*, float*) {
  Unavailable512();
}
void Int8QuantizeRowVnniAvx512(const float*, int64_t, int64_t, uint8_t*,
                               float*) {
  Unavailable512();
}
float DotAvx512(const float*, const float*, int64_t) { Unavailable512(); }
void RowExpAvx512(const float*, float*, int64_t) { Unavailable512(); }
void RowSigmoidAvx512(const float*, float*, int64_t) { Unavailable512(); }
void RowTanhAvx512(const float*, float*, int64_t) { Unavailable512(); }
void LstmStepForwardAvx512(const LstmStepForwardArgs&) { Unavailable512(); }
void LstmStepBackwardAvx512(const LstmStepBackwardArgs&) { Unavailable512(); }
int32_t Int8DotAvx512(const int8_t*, const int8_t*, int64_t) {
  Unavailable512();
}
void Int8DotX4Avx512(const int8_t*, const int8_t*, int64_t, int64_t,
                     int32_t*) {
  Unavailable512();
}

}  // namespace simd
}  // namespace alt

#endif  // AVX-512 F+BW+VL
