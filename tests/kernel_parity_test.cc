// Parity suite for the blocked/parallel kernel layer: checks the optimized
// kernels in src/tensor/kernels.cc against the frozen naive baselines in
// kernels_naive.cc over randomized shapes (including degenerate and
// non-tile-multiple ones), asserts that every kernel is bit-identical
// across compute thread counts {1, 2, hardware}, and checks every SIMD
// dispatch level the host can run (scalar / AVX2 / AVX-512) against a
// double-precision reference plus int8 bit-identity across levels.

#include "src/tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/metrics.h"
#include "src/tensor/cpu_features.h"
#include "src/tensor/kernels_naive.h"
#include "src/tensor/quant.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

namespace alt {
namespace {

/// Restores the default thread configuration when a test exits.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetComputeThreads(0); }
};

std::vector<int> TestThreadCounts() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) hw = 1;
  std::vector<int> counts = {1, 2};
  if (hw != 1 && hw != 2) counts.push_back(hw);
  // One count above the hardware limit exercises the chunk-capping path.
  counts.push_back(hw + 3);
  return counts;
}

Tensor RandTensor(std::vector<int64_t> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(-2.0, 2.0));
  }
  return t;
}

/// Relative comparison: the blocked kernels use a different (but fixed)
/// reduction order than the naive baseline, so values agree to rounding.
void ExpectClose(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    const double g = got[i];
    const double w = want[i];
    const double tol = 1e-4 * std::max(1.0, std::fabs(w));
    ASSERT_NEAR(g, w, tol) << what << " at " << i;
  }
}

void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const char* what, int threads) {
  ASSERT_EQ(got.numel(), want.numel());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<size_t>(got.numel())))
      << what << " differs between 1 thread and " << threads << " threads";
}

// Shapes covering m/n/k == 1, sub-tile and non-tile-multiple cases
// (register tile kMR=4), plus both sides of the compute-pool cutoff: a
// GEMM splits into row panels only when each carries kMinParallelWork
// (2^22 scalar ops), so with k=128, n=256 a panel is 64 rows. {64, 128, 256}
// is exactly one panel and runs inline; {129, 128, 256} splits into three,
// the last one row, with m not a multiple of the row grain (32).
struct GemmShape {
  int64_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {1, 1, 1},      {1, 5, 3},       {7, 1, 9},    {5, 7, 1},
    {4, 4, 4},      {3, 9, 2},       {33, 17, 9},  {31, 32, 33},
    {64, 64, 64},   {65, 33, 129},   {97, 5, 7},   {128, 3, 1},
    {64, 128, 256}, {129, 128, 256},
};

TEST(KernelParityTest, GemmMatchesNaive) {
  ThreadOverrideGuard guard;
  Rng rng(11);
  for (const auto& s : kGemmShapes) {
    Tensor a = RandTensor({s.m, s.k}, &rng);
    Tensor b = RandTensor({s.k, s.n}, &rng);
    Tensor got({s.m, s.n});
    MatMul(a, b, &got);
    Tensor want({s.m, s.n});
    naive::Gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n, false);
    ExpectClose(got, want, "gemm");
  }
}

TEST(KernelParityTest, GemmAccumulateMatchesNaive) {
  ThreadOverrideGuard guard;
  Rng rng(12);
  for (const auto& s : kGemmShapes) {
    Tensor a = RandTensor({s.m, s.k}, &rng);
    Tensor b = RandTensor({s.k, s.n}, &rng);
    Tensor base = RandTensor({s.m, s.n}, &rng);
    Tensor got = base;
    MatMulAcc(a, b, &got);
    Tensor want = base;
    naive::Gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n, true);
    ExpectClose(got, want, "gemm_acc");
  }
}

TEST(KernelParityTest, GemmTransAMatchesNaive) {
  ThreadOverrideGuard guard;
  Rng rng(13);
  for (const auto& s : kGemmShapes) {
    Tensor a = RandTensor({s.k, s.m}, &rng);
    Tensor b = RandTensor({s.k, s.n}, &rng);
    Tensor got({s.m, s.n});
    MatMulTransAAcc(a, b, &got);
    Tensor want({s.m, s.n});
    naive::GemmTransA(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    ExpectClose(got, want, "gemm_trans_a");
  }
}

TEST(KernelParityTest, GemmTransBMatchesNaive) {
  ThreadOverrideGuard guard;
  Rng rng(14);
  for (const auto& s : kGemmShapes) {
    Tensor a = RandTensor({s.m, s.k}, &rng);
    Tensor b = RandTensor({s.n, s.k}, &rng);
    Tensor got({s.m, s.n});
    MatMulTransBAcc(a, b, &got);
    Tensor want({s.m, s.n});
    naive::GemmTransB(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    ExpectClose(got, want, "gemm_trans_b");
  }
}

TEST(KernelParityTest, GemmSparseInputMatchesNaive) {
  // The old kernels special-cased zero A entries; the blocked ones must not
  // change results on sparse inputs where that branch used to fire.
  ThreadOverrideGuard guard;
  Rng rng(15);
  Tensor a = RandTensor({37, 29}, &rng);
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (rng.Bernoulli(0.7)) a[i] = 0.0f;
  }
  Tensor b = RandTensor({29, 23}, &rng);
  Tensor got({37, 23});
  MatMul(a, b, &got);
  Tensor want({37, 23});
  naive::Gemm(a.data(), b.data(), want.data(), 37, 29, 23, false);
  ExpectClose(got, want, "gemm_sparse");
}

TEST(KernelParityTest, BatchedMatMulMatchesNaiveAllTransposes) {
  ThreadOverrideGuard guard;
  Rng rng(16);
  const int64_t batch = 5, m = 9, k = 6, n = 11;
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      Tensor a = trans_a ? RandTensor({batch, k, m}, &rng)
                         : RandTensor({batch, m, k}, &rng);
      Tensor b = trans_b ? RandTensor({batch, n, k}, &rng)
                         : RandTensor({batch, k, n}, &rng);
      for (bool accumulate : {false, true}) {
        Tensor base = RandTensor({batch, m, n}, &rng);
        Tensor got = base;
        BatchedMatMul(a, trans_a, b, trans_b, &got, accumulate);
        Tensor want = base;
        naive::BatchedMatMul(a, trans_a, b, trans_b, &want, accumulate);
        ExpectClose(got, want, "batched_matmul");
      }
    }
  }
}

TEST(KernelParityTest, Conv1DMatchesNaive) {
  ThreadOverrideGuard guard;
  Rng rng(17);
  for (int64_t kernel : {1, 3, 5}) {
    for (int64_t dilation : {1, 2}) {
      for (int64_t seq : {1, 7, 33}) {
        Tensor input = RandTensor({3, seq, 5}, &rng);
        Tensor weight = RandTensor({4, kernel, 5}, &rng);
        Tensor bias = RandTensor({4}, &rng);
        Tensor got({3, seq, 4});
        Conv1D(input, weight, &bias, dilation, &got);
        Tensor want({3, seq, 4});
        naive::Conv1D(input, weight, &bias, dilation, &want);
        ExpectClose(got, want, "conv1d");
      }
    }
  }
}

TEST(KernelParityTest, Conv1DNoBiasMatchesNaive) {
  ThreadOverrideGuard guard;
  Rng rng(18);
  Tensor input = RandTensor({2, 9, 3}, &rng);
  Tensor weight = RandTensor({5, 3, 3}, &rng);
  Tensor got({2, 9, 5});
  Conv1D(input, weight, nullptr, 1, &got);
  Tensor want({2, 9, 5});
  naive::Conv1D(input, weight, nullptr, 1, &want);
  ExpectClose(got, want, "conv1d_nobias");
}

// ---------------------------------------------------------------------------
// Bit-identical determinism across thread counts. The single-thread result is
// the reference; every other thread count must reproduce it byte for byte.

TEST(KernelParityTest, GemmBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(21);
  for (const auto& s : kGemmShapes) {
    Tensor a = RandTensor({s.m, s.k}, &rng);
    Tensor b = RandTensor({s.k, s.n}, &rng);
    SetComputeThreads(1);
    Tensor ref({s.m, s.n});
    MatMul(a, b, &ref);
    for (int threads : TestThreadCounts()) {
      SetComputeThreads(threads);
      Tensor got({s.m, s.n});
      MatMul(a, b, &got);
      ExpectBitIdentical(got, ref, "gemm", threads);
    }
  }
}

TEST(KernelParityTest, GemmTransVariantsBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(22);
  // Inline, and split into 96-row panels (the second: 96 + 33 rows).
  for (const GemmShape& s :
       {GemmShape{65, 37, 41}, GemmShape{129, 96, 256}}) {
    const int64_t m = s.m, k = s.k, n = s.n;
    Tensor at = RandTensor({k, m}, &rng);
    Tensor bt = RandTensor({n, k}, &rng);
    Tensor a = RandTensor({m, k}, &rng);
    Tensor b = RandTensor({k, n}, &rng);

    SetComputeThreads(1);
    Tensor ref_ta({m, n}), ref_tb({m, n});
    MatMulTransAAcc(at, b, &ref_ta);
    MatMulTransBAcc(a, bt, &ref_tb);
    for (int threads : TestThreadCounts()) {
      SetComputeThreads(threads);
      Tensor got_ta({m, n}), got_tb({m, n});
      MatMulTransAAcc(at, b, &got_ta);
      MatMulTransBAcc(a, bt, &got_tb);
      ExpectBitIdentical(got_ta, ref_ta, "gemm_trans_a", threads);
      ExpectBitIdentical(got_tb, ref_tb, "gemm_trans_b", threads);
    }
  }
}

TEST(KernelParityTest, BatchedMatMulBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(23);
  // A batch too small to split; 130 32x32x32 products, which split over the
  // batch in chunks of 64 (64 + 64 + 2); and one 200x128x256 product, which
  // splits over its rows inside the single batch chunk.
  struct BatchShape {
    int64_t batch, m, k, n;
  };
  const BatchShape shapes[] = {{7, 13, 9, 17}, {130, 32, 32, 32},
                               {1, 200, 128, 256}};
  for (const BatchShape& s : shapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        const int64_t batch = s.batch, m = s.m, k = s.k, n = s.n;
        Tensor a = trans_a ? RandTensor({batch, k, m}, &rng)
                           : RandTensor({batch, m, k}, &rng);
        Tensor b = trans_b ? RandTensor({batch, n, k}, &rng)
                           : RandTensor({batch, k, n}, &rng);
        SetComputeThreads(1);
        Tensor ref({batch, m, n});
        BatchedMatMul(a, trans_a, b, trans_b, &ref, false);
        for (int threads : TestThreadCounts()) {
          SetComputeThreads(threads);
          Tensor got({batch, m, n});
          BatchedMatMul(a, trans_a, b, trans_b, &got, false);
          ExpectBitIdentical(got, ref, "batched_matmul", threads);
        }
      }
    }
  }
}

TEST(KernelParityTest, Conv1DBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(24);
  // {6, 29, 7} -> 11 runs inline; 50 sequences of [64, 16] -> 32 with
  // kernel 3 carry 196608 ops each and split in chunks of 22 (22 + 22 + 6).
  struct ConvShape {
    int64_t batch, seq, cin, cout;
  };
  for (const ConvShape& s :
       {ConvShape{6, 29, 7, 11}, ConvShape{50, 64, 16, 32}}) {
    Tensor input = RandTensor({s.batch, s.seq, s.cin}, &rng);
    Tensor weight = RandTensor({s.cout, 3, s.cin}, &rng);
    Tensor bias = RandTensor({s.cout}, &rng);
    SetComputeThreads(1);
    Tensor ref({s.batch, s.seq, s.cout});
    Conv1D(input, weight, &bias, 1, &ref);
    for (int threads : TestThreadCounts()) {
      SetComputeThreads(threads);
      Tensor got({s.batch, s.seq, s.cout});
      Conv1D(input, weight, &bias, 1, &got);
      ExpectBitIdentical(got, ref, "conv1d", threads);
    }
  }
}

TEST(KernelParityTest, VecAxpyBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(25);
  // Two chunks of 2^21 elements (kMinParallelWork at 2 ops per element),
  // the second a 17-element tail: the split path, with n not a multiple of
  // the grain or of the 8-wide vector.
  const int64_t n = (int64_t{1} << 21) + 17;
  std::vector<float> x(static_cast<size_t>(n));
  std::vector<float> y0(static_cast<size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : y0) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

  SetComputeThreads(1);
  std::vector<float> ref = y0;
  VecAxpy(0.3f, x.data(), ref.data(), n);
  for (int threads : TestThreadCounts()) {
    SetComputeThreads(threads);
    std::vector<float> got = y0;
    VecAxpy(0.3f, x.data(), got.data(), n);
    ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                             sizeof(float) * static_cast<size_t>(n)))
        << "vec_axpy differs at " << threads << " threads";
  }
}

TEST(KernelParityTest, PoolHandOffFollowsWorkCutoff) {
  // The across-thread tests above cover split kernels only while their
  // large shapes really split; the model-sized shapes must stay inline.
  ThreadOverrideGuard guard;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (!registry.enabled()) GTEST_SKIP() << "ALT_OBS=off";
  SetComputeThreads(4);
  auto regions = [&registry](const std::function<void()>& fn) {
    const char* name = "util/parallel_for/regions_total";
    const int64_t before = registry.counter_value(name);
    fn();
    return registry.counter_value(name) - before;
  };
  Rng rng(27);
  auto gemm = [&](int64_t m, int64_t k, int64_t n) {
    Tensor a = RandTensor({m, k}, &rng);
    Tensor b = RandTensor({k, n}, &rng);
    Tensor c({m, n});
    return regions([&]() { MatMul(a, b, &c); });
  };
  EXPECT_EQ(gemm(1, 15, 60), 0);  // LSTM gate GEMMs (hidden 15)
  EXPECT_EQ(gemm(64, 15, 60), 0);
  EXPECT_EQ(gemm(64, 128, 256), 0);
  EXPECT_EQ(gemm(129, 128, 256), 1);
  auto bmm = [&](int64_t batch, int64_t m, int64_t k, int64_t n) {
    Tensor a = RandTensor({batch, m, k}, &rng);
    Tensor b = RandTensor({batch, k, n}, &rng);
    Tensor c({batch, m, n});
    return regions([&]() { BatchedMatMul(a, false, b, false, &c, false); });
  };
  EXPECT_EQ(bmm(7, 13, 9, 17), 0);
  EXPECT_EQ(bmm(130, 32, 32, 32), 1);
  EXPECT_EQ(bmm(1, 200, 128, 256), 1);  // the inner GEMM splits
  auto conv = [&](int64_t batch, int64_t seq, int64_t cin, int64_t cout) {
    Tensor input = RandTensor({batch, seq, cin}, &rng);
    Tensor weight = RandTensor({cout, 3, cin}, &rng);
    Tensor out({batch, seq, cout});
    return regions([&]() { Conv1D(input, weight, nullptr, 1, &out); });
  };
  EXPECT_EQ(conv(6, 29, 7, 11), 0);
  EXPECT_EQ(conv(50, 64, 16, 32), 1);
  auto axpy = [&](int64_t n) {
    std::vector<float> x(static_cast<size_t>(n), 1.0f);
    std::vector<float> y(static_cast<size_t>(n), 0.0f);
    return regions([&]() { VecAxpy(0.5f, x.data(), y.data(), n); });
  };
  EXPECT_EQ(axpy(100003), 0);
  EXPECT_EQ(axpy((int64_t{1} << 21) + 17), 1);
}

TEST(KernelParityTest, VecAxpyAndScaleValues) {
  ThreadOverrideGuard guard;
  std::vector<float> x = {1.0f, 2.0f, 3.0f};
  std::vector<float> y = {10.0f, 20.0f, 30.0f};
  VecAxpy(2.0f, x.data(), y.data(), 3);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
  VecScale(0.5f, y.data(), 3);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 18.0f);
}

TEST(KernelParityTest, AddInPlaceMatchesPlainAdd) {
  // Tensor::AddInPlace routes through VecAxpy(1.0f, ...); multiplying by
  // exactly 1.0f must reproduce a plain += bit for bit.
  ThreadOverrideGuard guard;
  Rng rng(26);
  Tensor a = RandTensor({513}, &rng);
  Tensor b = RandTensor({513}, &rng);
  Tensor want = a;
  for (int64_t i = 0; i < want.numel(); ++i) want[i] += b[i];
  Tensor got = a;
  got.AddInPlace(b);
  ExpectBitIdentical(got, want, "add_in_place", 1);
}

// ---------------------------------------------------------------------------
// SIMD dispatch parity. Every level the host can run must agree with a
// double-precision reference within the forward error bound of a length-k
// fp32 reduction; the int8 kernels must be bit-identical across all levels,
// thread counts, and the VNNI fast path.

/// Restores the dispatch level that was active at construction.
struct SimdLevelGuard {
  SimdLevel saved = ActiveSimdLevel();
  ~SimdLevelGuard() { SetSimdLevel(saved); }
};

/// Scalar always; AVX2 / AVX-512 when SetSimdLevel accepts them on this
/// host+build.
std::vector<SimdLevel> AvailableSimdLevels() {
  SimdLevelGuard guard;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SetSimdLevel(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (SetSimdLevel(SimdLevel::kAvx512)) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// Error bound for one output of a length-k fp32 dot with magnitude sum
/// `sum_abs`: a small multiple of gamma_k = k * eps covers any fixed
/// re-association (tiles, FMA) the backends use.
double DotTol(int64_t k, double sum_abs) {
  const double eps = static_cast<double>(std::numeric_limits<float>::epsilon());
  return 4.0 * static_cast<double>(k + 2) * eps * sum_abs + 1e-12;
}

// Every m/k/n covers a different lane/tail split for the 8- and 16-wide
// kernels: below one lane, one lane exactly, one past, and tile edges.
const int64_t kSimdDims[] = {1, 3, 7, 8, 9, 31, 33};

TEST(SimdParityTest, GemmAllVariantsMatchDoubleReferenceAtEveryLevel) {
  ThreadOverrideGuard tguard;
  SimdLevelGuard sguard;
  SetComputeThreads(2);
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  Rng rng(41);
  for (int64_t m : kSimdDims) {
    for (int64_t k : kSimdDims) {
      for (int64_t n : kSimdDims) {
        Tensor a = RandTensor({m, k}, &rng);
        Tensor b = RandTensor({k, n}, &rng);
        Tensor at({k, m});
        Tensor bt({n, k});
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
        }
        for (int64_t p = 0; p < k; ++p) {
          for (int64_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
        }
        std::vector<double> ref(static_cast<size_t>(m * n), 0.0);
        std::vector<double> mag(static_cast<size_t>(m * n), 0.0);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t p = 0; p < k; ++p) {
            const double av = a[i * k + p];
            for (int64_t j = 0; j < n; ++j) {
              ref[i * n + j] += av * b[p * n + j];
              mag[i * n + j] += std::fabs(av * b[p * n + j]);
            }
          }
        }
        for (SimdLevel level : levels) {
          ASSERT_TRUE(SetSimdLevel(level));
          Tensor c({m, n});
          MatMul(a, b, &c);
          Tensor cta = Tensor::Zeros({m, n});
          MatMulTransAAcc(at, b, &cta);
          Tensor ctb = Tensor::Zeros({m, n});
          MatMulTransBAcc(a, bt, &ctb);
          for (int64_t i = 0; i < m * n; ++i) {
            const double tol = DotTol(k, mag[i]);
            ASSERT_NEAR(c[i], ref[i], tol)
                << "gemm " << SimdLevelName(level) << " m=" << m << " k=" << k
                << " n=" << n << " at " << i;
            ASSERT_NEAR(cta[i], ref[i], tol)
                << "gemm_trans_a " << SimdLevelName(level) << " m=" << m
                << " k=" << k << " n=" << n << " at " << i;
            ASSERT_NEAR(ctb[i], ref[i], tol)
                << "gemm_trans_b " << SimdLevelName(level) << " m=" << m
                << " k=" << k << " n=" << n << " at " << i;
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, RowPrimitivesUnalignedMatchScalarAtEveryLevel) {
  // The row kernels take raw pointers with no alignment contract; offsetting
  // by 1/3 floats forces every vector load down the unaligned path. The
  // scalar level is the reference; RowMax, VecRelu and RowScale must match
  // it exactly, the reductions to double and the affine loop to rounding.
  SimdLevelGuard sguard;
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  Rng rng(42);
  for (int64_t n : {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100, 1027}) {
    for (int64_t offset : {0, 1, 3}) {
      const size_t len = static_cast<size_t>(n + offset);
      std::vector<float> xbuf(len), gbuf(len), bbuf(len);
      for (auto& v : xbuf) v = static_cast<float>(rng.Uniform(-2.0, 2.0));
      for (auto& v : gbuf) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      for (auto& v : bbuf) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      const float* x = xbuf.data() + offset;
      const float* gamma = gbuf.data() + offset;
      const float* beta = bbuf.data() + offset;

      // Scalar-level reference for every primitive.
      ASSERT_TRUE(SetSimdLevel(SimdLevel::kScalar));
      std::vector<float> relu_ref(static_cast<size_t>(n));
      VecRelu(x, relu_ref.data(), n);
      const float max_ref = RowMax(x, n);
      const double sum_ref = RowSumDouble(x, n);
      double mean_ref = 0.0, var_ref = 0.0;
      RowMeanVar(x, n, &mean_ref, &var_ref);
      const float istd_ref =
          1.0f / std::sqrt(static_cast<float>(var_ref) + 1e-5f);
      std::vector<float> xhat_ref(static_cast<size_t>(n));
      std::vector<float> norm_ref(static_cast<size_t>(n));
      RowNormalizeAffine(x, static_cast<float>(mean_ref), istd_ref, gamma,
                         beta, xhat_ref.data(), norm_ref.data(), n);
      std::vector<float> axpy_ref(xbuf.begin() + offset, xbuf.end());
      VecAxpy(0.37f, x, axpy_ref.data(), n);
      std::vector<float> scale_ref(xbuf.begin() + offset, xbuf.end());
      RowScale(1.7f, scale_ref.data(), n);

      for (SimdLevel level : levels) {
        ASSERT_TRUE(SetSimdLevel(level));
        const char* lname = SimdLevelName(level);
        std::vector<float> relu(static_cast<size_t>(n), -1.0f);
        VecRelu(x, relu.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(relu[i], relu_ref[i]) << "vec_relu " << lname;
        }
        ASSERT_EQ(RowMax(x, n), max_ref) << "row_max " << lname << " n=" << n;
        ASSERT_NEAR(RowSumDouble(x, n), sum_ref,
                    1e-12 * (1.0 + std::fabs(sum_ref)))
            << "row_sum " << lname << " n=" << n;
        double mean = 0.0, var = 0.0;
        RowMeanVar(x, n, &mean, &var);
        ASSERT_NEAR(mean, mean_ref, 1e-12 * (1.0 + std::fabs(mean_ref)))
            << "row_mean " << lname << " n=" << n;
        ASSERT_NEAR(var, var_ref, 1e-10 * (1.0 + std::fabs(var_ref)))
            << "row_var " << lname << " n=" << n;
        std::vector<float> xhat(static_cast<size_t>(n), -1.0f);
        std::vector<float> norm(static_cast<size_t>(n), -1.0f);
        RowNormalizeAffine(x, static_cast<float>(mean_ref), istd_ref, gamma,
                           beta, xhat.data(), norm.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_NEAR(xhat[i], xhat_ref[i],
                      1e-6 * (1.0 + std::fabs(xhat_ref[i])))
              << "row_norm_xhat " << lname << " n=" << n << " at " << i;
          ASSERT_NEAR(norm[i], norm_ref[i],
                      1e-6 * (1.0 + std::fabs(norm_ref[i])))
              << "row_norm " << lname << " n=" << n << " at " << i;
        }
        std::vector<float> axpy(xbuf.begin() + offset, xbuf.end());
        VecAxpy(0.37f, x, axpy.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_NEAR(axpy[i], axpy_ref[i], 1e-6 * (1.0 + std::fabs(axpy_ref[i])))
              << "vec_axpy " << lname << " n=" << n << " at " << i;
        }
        std::vector<float> scale(xbuf.begin() + offset, xbuf.end());
        RowScale(1.7f, scale.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(scale[i], scale_ref[i])
              << "row_scale " << lname << " n=" << n << " at " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Activation rows (RowExp / RowSigmoid / RowTanh) promise more than the other
// fp32 kernels: the same bits at every SIMD level, for every length, offset
// and chunking, because each element is computed alone by one fixed
// sequence of IEEE operations.

using RowFn = void (*)(const float*, float*, int64_t);

struct ActivationKernel {
  const char* name;
  RowFn fn;
};

const ActivationKernel kActivationKernels[] = {
    {"row_exp", RowExp}, {"row_sigmoid", RowSigmoid}, {"row_tanh", RowTanh}};

/// Inputs for the activation rows: the special values first, then finite
/// values across and beyond the exp clamp [-87.3, 88.3].
std::vector<float> ActivationInputs(int64_t n, Rng* rng) {
  const float special[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           88.3f,
                           -87.3f,
                           100.0f,
                           -100.0f,
                           1e-30f,
                           -1e-30f,
                           std::numeric_limits<float>::max(),
                           -std::numeric_limits<float>::max(),
                           0.5f,
                           -44.5f};
  std::vector<float> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] =
        i < 16 ? special[i] : static_cast<float>(rng->Uniform(-120.0, 120.0));
  }
  return x;
}

TEST(SimdParityTest, ActivationRowsBitIdenticalAcrossLevelsLengthsAndOffsets) {
  SimdLevelGuard sguard;
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  Rng rng(46);
  for (int64_t n = 0; n <= 67; ++n) {
    for (int64_t offset : {0, 1, 3}) {
      const std::vector<float> xs = ActivationInputs(n, &rng);
      std::vector<float> xbuf(static_cast<size_t>(n + offset));
      std::copy(xs.begin(), xs.end(), xbuf.begin() + offset);
      const float* x = xbuf.data() + offset;
      for (const ActivationKernel& k : kActivationKernels) {
        ASSERT_TRUE(SetSimdLevel(SimdLevel::kScalar));
        std::vector<float> ref(static_cast<size_t>(n));
        k.fn(x, ref.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          // NaN in gives NaN out; nothing else does.
          ASSERT_EQ(std::isnan(ref[i]), std::isnan(x[i]))
              << k.name << " of " << x[i];
        }
        for (SimdLevel level : levels) {
          ASSERT_TRUE(SetSimdLevel(level));
          // Out of place, one call.
          std::vector<float> ybuf(static_cast<size_t>(n + offset), -7.0f);
          k.fn(x, ybuf.data() + offset, n);
          ASSERT_TRUE(n == 0 ||
                      std::memcmp(ybuf.data() + offset, ref.data(),
                                  sizeof(float) * static_cast<size_t>(n)) == 0)
              << k.name << " " << SimdLevelName(level) << " n=" << n
              << " offset=" << offset;
          for (int64_t i = 0; i < offset; ++i) ASSERT_EQ(ybuf[i], -7.0f);
          // In place, split at every point: an element's bits do not
          // depend on whether it sits in a full vector or a tail.
          for (int64_t cut = 0; cut <= n; ++cut) {
            std::vector<float> inplace(xbuf.begin() + offset, xbuf.end());
            k.fn(inplace.data(), inplace.data(), cut);
            k.fn(inplace.data() + cut, inplace.data() + cut, n - cut);
            ASSERT_TRUE(n == 0 ||
                        std::memcmp(inplace.data(), ref.data(),
                                    sizeof(float) * static_cast<size_t>(n)) ==
                            0)
                << k.name << " " << SimdLevelName(level) << " n=" << n
                << " cut=" << cut;
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, ActivationRowsBitIdenticalAcrossThreadCounts) {
  // A caller chunks a long range over the compute pool (ag::Sigmoid etc.
  // through ParallelForWork); any chunking must give the one-call bits.
  ThreadOverrideGuard tguard;
  SimdLevelGuard sguard;
  Rng rng(47);
  const int64_t n = 4099;
  const std::vector<float> x = ActivationInputs(n, &rng);
  for (const ActivationKernel& k : kActivationKernels) {
    ASSERT_TRUE(SetSimdLevel(SimdLevel::kScalar));
    std::vector<float> ref(static_cast<size_t>(n));
    k.fn(x.data(), ref.data(), n);
    for (SimdLevel level : AvailableSimdLevels()) {
      ASSERT_TRUE(SetSimdLevel(level));
      for (int threads : TestThreadCounts()) {
        SetComputeThreads(threads);
        for (int64_t grain : {1, 7, 100, 1024}) {
          std::vector<float> got(static_cast<size_t>(n), -7.0f);
          ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
            k.fn(x.data() + lo, got.data() + lo, hi - lo);
          });
          ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                                   sizeof(float) * static_cast<size_t>(n)))
              << k.name << " " << SimdLevelName(level)
              << " threads=" << threads << " grain=" << grain;
        }
      }
    }
  }
}

TEST(SimdParityTest, ActivationRowsMatchDoubleReference) {
  // Measured (the same at every level, as the bits are): sigmoid 8.9e-8
  // and tanh 1.09e-7 absolute on [-20, 20], exp 7.9e-8 relative on
  // [-80, 80]. The bounds leave headroom for nothing but rounding.
  SimdLevelGuard sguard;
  const int64_t n = 200001;
  std::vector<float> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] =
        -20.0f + 40.0f * static_cast<float>(i) / static_cast<float>(n - 1);
  }
  std::vector<float> xe(x.size());
  for (size_t i = 0; i < x.size(); ++i) xe[i] = 4.0f * x[i];
  std::vector<float> sig(x.size()), th(x.size()), ex(x.size());
  for (SimdLevel level : AvailableSimdLevels()) {
    ASSERT_TRUE(SetSimdLevel(level));
    RowSigmoid(x.data(), sig.data(), n);
    RowTanh(x.data(), th.data(), n);
    RowExp(xe.data(), ex.data(), n);
    double sig_err = 0.0, tanh_err = 0.0, exp_rel = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double v = x[i];
      sig_err = std::max(sig_err, std::fabs(sig[i] - 1.0 / (1.0 + std::exp(-v))));
      tanh_err = std::max(tanh_err, std::fabs(th[i] - std::tanh(v)));
      const double e = std::exp(static_cast<double>(xe[i]));
      exp_rel = std::max(exp_rel, std::fabs(ex[i] - e) / e);
    }
    EXPECT_LT(sig_err, 1.0e-7) << SimdLevelName(level);
    EXPECT_LT(tanh_err, 1.2e-7) << SimdLevelName(level);
    EXPECT_LT(exp_rel, 1.2e-7) << SimdLevelName(level);
  }
}

TEST(SimdParityTest, ActivationRowsLimits) {
  SimdLevelGuard sguard;
  const float inf = std::numeric_limits<float>::infinity();
  const float x[] = {0.0f, -0.0f, inf, -inf, 200.0f, -200.0f};
  float e[6], s[6], t[6];
  for (SimdLevel level : AvailableSimdLevels()) {
    ASSERT_TRUE(SetSimdLevel(level));
    RowExp(x, e, 6);
    RowSigmoid(x, s, 6);
    RowTanh(x, t, 6);
    EXPECT_EQ(e[0], 1.0f);
    EXPECT_EQ(e[1], 1.0f);
    // Clamped: finite at +inf, tiny but positive at -inf.
    EXPECT_TRUE(std::isfinite(e[2]));
    EXPECT_GT(e[2], 1e38f);
    EXPECT_GT(e[3], 0.0f);
    EXPECT_LT(e[3], 1.3e-38f);
    EXPECT_EQ(s[0], 0.5f);
    EXPECT_EQ(s[2], 1.0f);
    EXPECT_EQ(s[4], 1.0f);
    EXPECT_GE(s[3], 0.0f);
    EXPECT_LT(s[3], 1e-38f);
    EXPECT_EQ(t[0], 0.0f);
    EXPECT_FALSE(std::signbit(t[0]));
    EXPECT_TRUE(std::signbit(t[1]));
    EXPECT_EQ(t[2], 1.0f);
    EXPECT_EQ(t[3], -1.0f);
    EXPECT_EQ(t[4], 1.0f);
    EXPECT_EQ(t[5], -1.0f);
  }
}

// ---------------------------------------------------------------------------
// LSTM step kernels (LstmStepForward / LstmStepBackward): the same bits at
// every SIMD level, and no write outside the rows they were given.

const int64_t kStepHidden[] = {1, 7, 8, 15, 16, 17, 33};
const int64_t kStepRows[] = {1, 3, 16, 64};
constexpr float kSentinel = -12345.0f;
/// Floats between a row's gates (or outputs) and the next row's: the op
/// reads gates at stride T·4H, so a kernel sees strided rows with gaps.
constexpr int64_t kRowGap = 5;
/// Floats after each packed operand, to catch a store past its end.
constexpr int64_t kPad = 16;

float StepSpecial(Rng* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float max = std::numeric_limits<float>::max();
  const float special[] = {0.0f,   -0.0f,  inf,    -inf,   nan,
                           -nan,   88.3f,  -87.3f, 100.0f, -100.0f,
                           1e-30f, max,    -max};
  return special[rng->UniformInt(0, 12)];
}

struct StepOperand {
  std::vector<float>* buf;
  int64_t stride;  // floats between rows
  int64_t width;   // H or 4H
};

/// Finite values past the exp clamp in every operand's rows, then a
/// special value (±0, ±inf, ±NaN, the clamp bounds and beyond) in one of
/// the operands of every other element. One per element at most: when two
/// NaNs of different sign meet in one operation, x86 returns the first
/// operand's, and which one that is is the compiler's choice of operand
/// order, so no kernel can promise those bits.
void FillStepOperands(const std::vector<StepOperand>& ops, int64_t rows,
                      int64_t h, Rng* rng) {
  for (const StepOperand& op : ops) {
    std::fill(op.buf->begin(), op.buf->end(), kSentinel);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t k = 0; k < op.width; ++k) {
        (*op.buf)[static_cast<size_t>(r * op.stride + k)] =
            static_cast<float>(rng->Uniform(-120.0, 120.0));
      }
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < h; ++j) {
      if (rng->Bernoulli(0.5)) continue;
      // An operand of element (r, j): a gate column of a 4H-wide one.
      const StepOperand& op =
          ops[static_cast<size_t>(rng->UniformInt(0, ops.size() - 1))];
      const int64_t q = op.width == h ? 0 : rng->UniformInt(0, 3);
      (*op.buf)[static_cast<size_t>(r * op.stride + q * h + j)] =
          StepSpecial(rng);
    }
  }
}

std::vector<float> StepBuffer(int64_t rows, int64_t stride) {
  return std::vector<float>(static_cast<size_t>(rows * stride + kPad),
                            kSentinel);
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * got.size()))
      << what;
}

/// The same bits, except that a NaN only has to meet a NaN: the bias
/// gradient sums every row's dgates, so NaNs of different sign from two
/// rows can meet in one addition, and then the compiler's operand order
/// picks the sign.
void ExpectSameBitsOrNaN(const std::vector<float>& got,
                         const std::vector<float>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << what << " at " << i;
    } else {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                std::bit_cast<uint32_t>(want[i]))
          << what << " at " << i;
    }
  }
}

/// Every float of `buf` outside rows x width at `stride` still holds the
/// sentinel.
void ExpectUntouchedOutside(const std::vector<float>& buf, int64_t rows,
                            int64_t stride, int64_t width,
                            const std::string& what) {
  for (size_t i = 0; i < buf.size(); ++i) {
    const int64_t r = static_cast<int64_t>(i) / stride;
    const int64_t k = static_cast<int64_t>(i) % stride;
    if (r < rows && k < width) continue;
    ASSERT_EQ(std::bit_cast<uint32_t>(buf[i]),
              std::bit_cast<uint32_t>(kSentinel))
        << what << " wrote float " << i;
  }
}

TEST(SimdParityTest, LstmStepForwardBitIdenticalAcrossLevels) {
  SimdLevelGuard sguard;
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  Rng rng(48);
  for (int64_t h : kStepHidden) {
    const int64_t g4 = 4 * h;
    const int64_t gstride = g4 + kRowGap;
    const int64_t ostride = h + kRowGap;
    for (int64_t rows : kStepRows) {
      for (bool first_step : {true, false}) {
        // record: tanh(c) stored, as when the op records a backward;
        // otherwise c overwrites c_prev in place and tanh(c) is not
        // stored, as in inference.
        for (bool record : {true, false}) {
          std::vector<float> gates_in = StepBuffer(rows, gstride);
          std::vector<float> hw = StepBuffer(rows, g4);
          std::vector<float> c_prev_in = StepBuffer(rows, h);
          FillStepOperands({{&gates_in, gstride, g4}, {&hw, g4, g4},
                            {&c_prev_in, h, h}},
                           rows, h, &rng);
          std::vector<float> bias(static_cast<size_t>(g4));
          for (float& b : bias) b = static_cast<float>(rng.Uniform(-3, 3));
          const std::string what =
              "h=" + std::to_string(h) + " rows=" + std::to_string(rows) +
              (first_step ? " t=0" : " t>0") +
              (record ? " record" : " inference");
          std::vector<std::vector<float>> ref;
          for (SimdLevel level : levels) {
            ASSERT_TRUE(SetSimdLevel(level));
            std::vector<float> gates = gates_in;
            std::vector<float> c_prev = c_prev_in;
            std::vector<float> c = StepBuffer(rows, h);
            std::vector<float> tanh_c = StepBuffer(rows, h);
            std::vector<float> hs = StepBuffer(rows, h);
            std::vector<float> out = StepBuffer(rows, ostride);
            LstmStepForwardArgs s;
            s.rows = rows;
            s.hidden = h;
            s.gates = gates.data();
            s.gates_stride = gstride;
            s.hw = first_step ? nullptr : hw.data();
            s.bias = bias.data();
            s.c_prev = first_step ? nullptr : c_prev.data();
            s.c = record ? c.data() : c_prev.data();
            s.tanh_c = record ? tanh_c.data() : nullptr;
            s.h = hs.data();
            s.out = out.data();
            s.out_stride = ostride;
            LstmStepForward(s);
            const std::string at = what + " " + SimdLevelName(level);
            ExpectUntouchedOutside(gates, rows, gstride, g4, at + " gates");
            ExpectUntouchedOutside(out, rows, ostride, h, at + " out");
            for (const std::vector<float>* v : {&c, &c_prev, &tanh_c, &hs}) {
              ExpectUntouchedOutside(*v, rows, h, h, at + " [rows, H]");
            }
            if (!record) ExpectUntouchedOutside(tanh_c, 0, h, h, at + " tanh_c");
            const std::vector<std::vector<float>> got = {gates, c,  c_prev,
                                                         tanh_c, hs, out};
            if (level == SimdLevel::kScalar) {
              ref = got;
              continue;
            }
            for (size_t i = 0; i < got.size(); ++i) {
              ExpectSameBits(got[i], ref[i],
                             at + " output " + std::to_string(i));
            }
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, LstmStepBackwardBitIdenticalAcrossLevels) {
  SimdLevelGuard sguard;
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  Rng rng(49);
  for (int64_t h : kStepHidden) {
    const int64_t g4 = 4 * h;
    const int64_t gstride = g4 + kRowGap;
    for (int64_t rows : kStepRows) {
      for (bool first_step : {true, false}) {
        for (bool save : {true, false}) {
          for (bool bias_grad : {true, false}) {
            std::vector<float> gates_in = StepBuffer(rows, gstride);
            std::vector<float> tanh_c = StepBuffer(rows, h);
            std::vector<float> c_prev = StepBuffer(rows, h);
            std::vector<float> dh = StepBuffer(rows, h);
            std::vector<float> dc_in = StepBuffer(rows, h);
            FillStepOperands({{&gates_in, gstride, g4},
                              {&tanh_c, h, h},
                              {&c_prev, h, h},
                              {&dh, h, h},
                              {&dc_in, h, h}},
                             rows, h, &rng);
            std::vector<float> bgrad_in(static_cast<size_t>(g4 + kPad),
                                        kSentinel);
            for (int64_t k = 0; k < g4; ++k) {
              bgrad_in[static_cast<size_t>(k)] =
                  static_cast<float>(rng.Uniform(-3, 3));
            }
            // The last step (t = T-1) has no carry and, when T = 1, no
            // c_{t-1} either; a middle step has both.
            const std::string what =
                "h=" + std::to_string(h) + " rows=" + std::to_string(rows) +
                (first_step ? " t=T-1=0" : " 0<t<T-1") +
                (save ? " save" : "") + (bias_grad ? " bias" : "");
            std::vector<std::vector<float>> ref;
            for (SimdLevel level : levels) {
              ASSERT_TRUE(SetSimdLevel(level));
              std::vector<float> gates = gates_in;
              std::vector<float> dc = dc_in;
              std::vector<float> dgates = StepBuffer(rows, g4);
              std::vector<float> bgrad = bgrad_in;
              LstmStepBackwardArgs s;
              s.rows = rows;
              s.hidden = h;
              s.gates = gates.data();
              s.gates_stride = gstride;
              s.save = save;
              s.tanh_c = tanh_c.data();
              s.c_prev = first_step ? nullptr : c_prev.data();
              s.dh = dh.data();
              s.dc = dc.data();
              s.carry = !first_step;
              s.dgates = dgates.data();
              s.bias_grad = bias_grad ? bgrad.data() : nullptr;
              LstmStepBackward(s);
              const std::string at = what + " " + SimdLevelName(level);
              ExpectUntouchedOutside(gates, rows, gstride, g4, at + " gates");
              ExpectUntouchedOutside(dc, rows, h, h, at + " dc");
              ExpectUntouchedOutside(dgates, rows, g4, g4, at + " dgates");
              ExpectUntouchedOutside(bgrad, 1, g4 + kPad, g4, at + " bias");
              if (save) {
                // The dgates land over the activations, row by row.
                for (int64_t r = 0; r < rows; ++r) {
                  ASSERT_EQ(0, std::memcmp(gates.data() + r * gstride,
                                           dgates.data() + r * g4,
                                           sizeof(float) * g4))
                      << at << " row " << r;
                }
              } else {
                ExpectSameBits(gates, gates_in, at + " gates, not saved");
              }
              if (!bias_grad) ExpectSameBits(bgrad, bgrad_in, at + " bias");
              const std::vector<std::vector<float>> got = {gates, dc, dgates,
                                                           bgrad};
              if (level == SimdLevel::kScalar) {
                ref = got;
                continue;
              }
              for (size_t i = 0; i < 3; ++i) {
                ExpectSameBits(got[i], ref[i],
                               at + " output " + std::to_string(i));
              }
              ExpectSameBitsOrNaN(bgrad, ref[3], at + " bias gradient");
            }
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, Int8MatMulBitIdenticalAcrossLevelsAndThreads) {
  // Exact int32 accumulation: the int8 GEMM result must not depend on the
  // SIMD level (scalar / madd / VNNI fast path), the column partition, or
  // the thread count — byte-for-byte.
  ThreadOverrideGuard tguard;
  SimdLevelGuard sguard;
  Rng rng(43);
  struct Shape {
    int64_t m, k, n;
  };
  const Shape shapes[] = {
      {1, 1, 1}, {1, 64, 64}, {7, 33, 31}, {9, 127, 65}, {64, 256, 64}};
  for (const auto& s : shapes) {
    Tensor w = RandTensor({s.k, s.n}, &rng);
    Tensor x = RandTensor({s.m, s.k}, &rng);
    const quant::QuantizedMatrix q = quant::QuantizeWeight(w);
    ASSERT_TRUE(SetSimdLevel(SimdLevel::kScalar));
    SetComputeThreads(1);
    std::vector<float> ref(static_cast<size_t>(s.m * s.n));
    quant::Int8MatMul(x.data(), s.m, q, ref.data());
    for (SimdLevel level : AvailableSimdLevels()) {
      ASSERT_TRUE(SetSimdLevel(level));
      for (int threads : {1, 2, 5}) {
        SetComputeThreads(threads);
        std::vector<float> got(static_cast<size_t>(s.m * s.n), -1.0f);
        quant::Int8MatMul(x.data(), s.m, q, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                                 sizeof(float) * got.size()))
            << "int8 gemm " << SimdLevelName(level) << " threads=" << threads
            << " m=" << s.m << " k=" << s.k << " n=" << s.n;
      }
    }
  }
}

TEST(SimdParityTest, QuantizeRowsBitIdenticalAcrossLevels) {
  SimdLevelGuard sguard;
  Rng rng(44);
  const int64_t m = 9, k = 133;
  Tensor x = RandTensor({m, k}, &rng);
  x[5] = 0.0f;  // Exercise an exact-zero entry.
  ASSERT_TRUE(SetSimdLevel(SimdLevel::kScalar));
  std::vector<int8_t> qref(static_cast<size_t>(m * k));
  std::vector<float> sref(static_cast<size_t>(m));
  quant::QuantizeRows(x.data(), m, k, qref.data(), sref.data());
  for (SimdLevel level : AvailableSimdLevels()) {
    ASSERT_TRUE(SetSimdLevel(level));
    std::vector<int8_t> qgot(static_cast<size_t>(m * k), 99);
    std::vector<float> sgot(static_cast<size_t>(m), -1.0f);
    quant::QuantizeRows(x.data(), m, k, qgot.data(), sgot.data());
    ASSERT_EQ(0, std::memcmp(qgot.data(), qref.data(), qgot.size()))
        << "quantize_rows values " << SimdLevelName(level);
    ASSERT_EQ(0, std::memcmp(sgot.data(), sref.data(),
                             sizeof(float) * sgot.size()))
        << "quantize_rows scales " << SimdLevelName(level);
  }
}

TEST(SimdParityTest, Int8WeightRoundTripWithinHalfScale) {
  Rng rng(45);
  const int64_t k = 37, n = 29;
  Tensor w = RandTensor({k, n}, &rng);
  for (int64_t i = 0; i < k; ++i) w[i * n + 4] = 0.0f;  // All-zero column.
  const quant::QuantizedMatrix q = quant::QuantizeWeight(w);
  ASSERT_EQ(q.rows, n);
  ASSERT_EQ(q.cols, k);
  const Tensor deq = quant::DequantizeWeight(q);
  EXPECT_EQ(q.scales[4], 0.0f);
  for (int64_t j = 0; j < n; ++j) {
    // Symmetric round-to-nearest: per-element error is at most half the
    // column's quantization step (slop covers the fp32 scale division).
    const double bound = 0.5 * q.scales[j] * (1.0 + 1e-5) + 1e-12;
    for (int64_t i = 0; i < k; ++i) {
      ASSERT_LE(std::fabs(static_cast<double>(w[i * n + j]) - deq[i * n + j]),
                bound)
          << "round-trip col " << j << " row " << i;
    }
  }
  const float max_scale = *std::max_element(q.scales.begin(), q.scales.end());
  EXPECT_LE(quant::MaxRoundTripError(w, q), 0.5 * max_scale * (1.0 + 1e-5));
}

}  // namespace
}  // namespace alt
