// Micro-benchmark for the dense compute-kernel layer (src/tensor/kernels.cc).
//
// Measures GFLOP/s of the blocked/parallel GEMM, batched matmul, and Conv1D
// kernels against the frozen pre-optimization baselines in kernels_naive.cc,
// at 1 thread and at the configured thread count, and writes the results as
// machine-readable JSON (default: BENCH_kernels.json in the current
// directory). The JSON is consumed by tooling that tracks the kernel-layer
// perf trajectory across PRs.
//
// Every entry records the SIMD level ("isa") it ran at. The serving-shape
// section runs the GEMMs a 64-row model Predict runs (the LSTM gate GEMM
// and the profile/head Linear layers, hidden size 15) forced to the scalar
// tier, at the active tier and through the int8 quantized path, deriving
// simd_gemm_speedup_vs_scalar_serving and int8_gemm_speedup_vs_fp32_simd
// (worst case over those shapes). The model-shape section times the LSTM
// gate GEMM at 1 and N threads and the fused lstm_layer op (inference
// forward, and forward+backward). The crossover sweep times GEMMs around
// alt::kMinParallelWork inline against split into 32-row panels on the
// compute pool, the measurement that sets that constant.
//
// Flags:
//   --smoke       fast mode for CI: tiny rep counts, still checks parity.
//   --out=PATH    output JSON path (default BENCH_kernels.json).
//   --threads=N   "N-thread" configuration (default: alt::ComputeThreads()).
//   --min_time=S  seconds of repetitions per measurement (default 0.25).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/autograd/ops.h"
#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/tensor/cpu_features.h"
#include "src/tensor/kernels.h"
#include "src/tensor/kernels_naive.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

namespace alt {
namespace {

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

double Checksum(const std::vector<float>& v) {
  double s = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    s += static_cast<double>(v[i]) * static_cast<double>((i % 7) + 1);
  }
  return s;
}

double Checksum(const Tensor& t) {
  double s = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    s += static_cast<double>(t[i]) * static_cast<double>((i % 7) + 1);
  }
  return s;
}

/// Runs `fn` repeatedly for at least `min_time` seconds (at least once) and
/// returns the best per-call seconds observed. Best-of is less noisy than
/// mean on shared machines.
double TimeBest(double min_time, const std::function<void()>& fn) {
  double best = 1e30;
  double total = 0.0;
  const double outer_start = bench::MonotonicSeconds();
  do {
    const double start = bench::MonotonicSeconds();
    fn();
    const double t = bench::MonotonicSeconds() - start;
    if (t < best) best = t;
    total = bench::MonotonicSeconds() - outer_start;
  } while (total < min_time);
  return best;
}

struct BenchResult {
  std::string name;
  std::string shape;
  std::string isa;  ///< SIMD level active while measuring.
  int threads = 1;
  double gflops = 0.0;
  double seconds = 0.0;
  double checksum = 0.0;
};

class Reporter {
 public:
  void Add(BenchResult r) {
    if (r.isa.empty()) r.isa = ActiveSimdName();
    std::printf("%-28s %-20s threads=%-2d isa=%-7s %8.2f GFLOP/s\n",
                r.name.c_str(), r.shape.c_str(), r.threads, r.isa.c_str(),
                r.gflops);
    std::fflush(stdout);
    results_.push_back(std::move(r));
  }

  const BenchResult* Find(const std::string& name, int threads) const {
    for (const auto& r : results_) {
      if (r.name == name && r.threads == threads) return &r;
    }
    return nullptr;
  }

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  std::vector<BenchResult> results_;
};

/// GEMM flavor under test; `naive` selects the frozen baseline kernel.
struct GemmVariant {
  std::string name;
  bool naive = false;
  bool trans_a = false;
  bool trans_b = false;
};

BenchResult BenchGemm(const GemmVariant& variant, int64_t m, int64_t k,
                      int64_t n, int threads, double min_time, Rng* rng) {
  const std::vector<float> a = RandomVec(m * k, rng);
  const std::vector<float> b = RandomVec(k * n, rng);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);

  // The trans variants accumulate, so reset C before each call to keep the
  // result (and the checksum) independent of the repetition count.
  std::vector<int64_t> ashape = variant.trans_a
                                    ? std::vector<int64_t>{k, m}
                                    : std::vector<int64_t>{m, k};
  std::vector<int64_t> bshape = variant.trans_b
                                    ? std::vector<int64_t>{n, k}
                                    : std::vector<int64_t>{k, n};
  Tensor ta = Tensor::FromVector(ashape, a);
  Tensor tb = Tensor::FromVector(bshape, b);
  Tensor tc({m, n});

  auto run = [&]() {
    if (variant.naive) {
      naive::Gemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false);
    } else if (variant.trans_a) {
      tc.Fill(0.0f);
      MatMulTransAAcc(ta, tb, &tc);
    } else if (variant.trans_b) {
      tc.Fill(0.0f);
      MatMulTransBAcc(ta, tb, &tc);
    } else {
      MatMul(ta, tb, &tc);
    }
  };

  SetComputeThreads(threads);
  BenchResult r;
  r.seconds = TimeBest(min_time, run);
  SetComputeThreads(0);

  r.name = variant.name;
  r.shape = std::to_string(m) + "x" + std::to_string(k) + "x" +
            std::to_string(n);
  r.threads = threads;
  r.gflops = 2.0 * static_cast<double>(m) * k * n / r.seconds * 1e-9;
  r.checksum = variant.naive ? Checksum(c) : Checksum(tc);
  return r;
}

BenchResult BenchBatched(int64_t batch, int64_t m, int64_t k, int64_t n,
                         int threads, double min_time, Rng* rng) {
  Tensor a = Tensor::FromVector({batch, m, k}, RandomVec(batch * m * k, rng));
  Tensor b = Tensor::FromVector({batch, k, n}, RandomVec(batch * k * n, rng));
  Tensor c({batch, m, n});

  SetComputeThreads(threads);
  BenchResult r;
  r.seconds = TimeBest(min_time, [&]() {
    BatchedMatMul(a, false, b, false, &c, /*accumulate=*/false);
  });
  SetComputeThreads(0);

  r.name = "batched_matmul";
  r.shape = std::to_string(batch) + "x" + std::to_string(m) + "x" +
            std::to_string(k) + "x" + std::to_string(n);
  r.threads = threads;
  r.gflops = 2.0 * static_cast<double>(batch) * m * k * n / r.seconds * 1e-9;
  r.checksum = Checksum(c);
  return r;
}

BenchResult BenchConv(bool use_naive, int64_t batch, int64_t seq, int64_t cin,
                      int64_t cout, int64_t ksize, int threads,
                      double min_time, Rng* rng) {
  Tensor x = Tensor::FromVector({batch, seq, cin},
                                RandomVec(batch * seq * cin, rng));
  Tensor w = Tensor::FromVector({cout, ksize, cin},
                                RandomVec(cout * ksize * cin, rng));
  Tensor bias = Tensor::FromVector({cout}, RandomVec(cout, rng));
  Tensor out({batch, seq, cout});

  SetComputeThreads(threads);
  BenchResult r;
  r.seconds = TimeBest(min_time, [&]() {
    if (use_naive) {
      naive::Conv1D(x, w, &bias, /*dilation=*/1, &out);
    } else {
      Conv1D(x, w, &bias, /*dilation=*/1, &out);
    }
  });
  SetComputeThreads(0);

  r.name = use_naive ? "conv1d_naive" : "conv1d";
  r.shape = std::to_string(batch) + "x" + std::to_string(seq) + "x" +
            std::to_string(cin) + "->" + std::to_string(cout) + "(k" +
            std::to_string(ksize) + ")";
  r.threads = threads;
  r.gflops =
      2.0 * static_cast<double>(batch) * seq * cout * ksize * cin /
      r.seconds * 1e-9;
  r.checksum = Checksum(out);
  return r;
}

/// The int8 quantized serving GEMM (weight quantized once up front,
/// activations quantized per call, exactly like the Linear serving path).
/// GFLOP/s counts the fp32-equivalent 2*m*k*n so the number is directly
/// comparable to the fp32 entries at the same shape.
BenchResult BenchInt8Gemm(int64_t m, int64_t k, int64_t n, int threads,
                          double min_time, Rng* rng) {
  const std::vector<float> x = RandomVec(m * k, rng);
  const Tensor w = Tensor::FromVector({k, n}, RandomVec(k * n, rng));
  const quant::QuantizedMatrix qw = quant::QuantizeWeight(w);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);

  SetComputeThreads(threads);
  BenchResult r;
  r.seconds = TimeBest(min_time, [&]() {
    quant::Int8MatMul(x.data(), m, qw, c.data());
  });
  SetComputeThreads(0);

  r.name = "gemm_serving_int8";
  r.shape = std::to_string(m) + "x" + std::to_string(k) + "x" +
            std::to_string(n);
  r.threads = threads;
  r.gflops = 2.0 * static_cast<double>(m) * k * n / r.seconds * 1e-9;
  r.checksum = Checksum(c);
  return r;
}

/// One GEMM inline on the calling thread (threads=1) against the same
/// product cut into 32-row panels, the kernel's finest row grain, that the
/// compute pool runs at `threads` threads. The panels of A and C are cut
/// before timing, so the split run does the kernel's arithmetic plus only
/// the pool hand-off.
void BenchCrossover(int64_t m, int64_t k, int64_t n, int threads,
                    double min_time, Rng* rng, Reporter* rep) {
  constexpr int64_t kPanel = 32;
  const Tensor a = Tensor::FromVector({m, k}, RandomVec(m * k, rng));
  const Tensor b = Tensor::FromVector({k, n}, RandomVec(k * n, rng));
  Tensor c({m, n});
  std::vector<Tensor> a_panels;
  std::vector<Tensor> c_panels;
  for (int64_t i0 = 0; i0 < m; i0 += kPanel) {
    const int64_t rows = std::min(kPanel, m - i0);
    Tensor panel({rows, k});
    std::copy(a.data() + i0 * k, a.data() + (i0 + rows) * k, panel.data());
    a_panels.push_back(std::move(panel));
    c_panels.emplace_back(std::vector<int64_t>{rows, n});
  }
  const std::string shape =
      std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
  const double flop = 2.0 * static_cast<double>(m) * k * n;

  SetComputeThreads(1);
  BenchResult inline_r;
  inline_r.seconds = TimeBest(min_time, [&]() { MatMul(a, b, &c); });
  inline_r.name = "gemm_crossover_inline";
  inline_r.shape = shape;
  inline_r.threads = 1;
  inline_r.gflops = flop / inline_r.seconds * 1e-9;
  inline_r.checksum = Checksum(c);

  SetComputeThreads(threads);
  BenchResult split_r;
  const int64_t panels = static_cast<int64_t>(a_panels.size());
  split_r.seconds = TimeBest(min_time, [&]() {
    ParallelFor(0, panels, 1, [&](int64_t p0, int64_t p1) {
      for (int64_t p = p0; p < p1; ++p) {
        MatMul(a_panels[static_cast<size_t>(p)], b,
               &c_panels[static_cast<size_t>(p)]);
      }
    });
  });
  SetComputeThreads(0);
  split_r.name = "gemm_crossover_split32";
  split_r.shape = shape;
  split_r.threads = threads;
  split_r.gflops = flop / split_r.seconds * 1e-9;
  double checksum = 0.0;
  for (const Tensor& panel : c_panels) checksum += Checksum(panel);
  split_r.checksum = checksum;
  rep->Add(inline_r);
  rep->Add(split_r);
}

/// The fused LSTM layer at a model's shape (input = hidden = h, `seq`
/// steps): the inference forward under an InferenceGuard, or a recorded
/// forward plus backward into x and the weights. GFLOP/s counts
/// ag::LstmLayerFlops for the forward and three times that for
/// forward+backward (backward runs twice the forward's GEMMs).
BenchResult BenchLstmLayer(bool backward, int64_t batch, int64_t seq,
                           int64_t h, int threads, double min_time,
                           Rng* rng) {
  ag::Variable x = ag::Variable::Parameter(
      Tensor::FromVector({batch, seq, h}, RandomVec(batch * seq * h, rng)));
  ag::Variable w_x = ag::Variable::Parameter(
      Tensor::FromVector({h, 4 * h}, RandomVec(4 * h * h, rng)));
  ag::Variable w_h = ag::Variable::Parameter(
      Tensor::FromVector({h, 4 * h}, RandomVec(4 * h * h, rng)));
  ag::Variable bias = ag::Variable::Parameter(
      Tensor::FromVector({4 * h}, RandomVec(4 * h, rng)));
  Tensor out;
  SetComputeThreads(threads);
  BenchResult r;
  r.seconds = TimeBest(min_time, [&]() {
    if (backward) {
      ag::Variable y = ag::LstmLayer(x, w_x, w_h, bias);
      ag::SumAll(y).Backward();
      out = y.value();
    } else {
      ag::InferenceGuard no_graph;
      out = ag::LstmLayer(x, w_x, w_h, bias).value();
    }
  });
  SetComputeThreads(0);
  r.name = backward ? "lstm_layer_fwd_bwd" : "lstm_layer_fwd";
  r.shape = std::to_string(batch) + "x" + std::to_string(seq) + "x" +
            std::to_string(h);
  r.threads = threads;
  const double fwd_flop =
      static_cast<double>(batch) * ag::LstmLayerFlops(h, h, seq);
  r.gflops = (backward ? 3.0 : 1.0) * fwd_flop / r.seconds * 1e-9;
  r.checksum = Checksum(out);
  return r;
}

BenchResult BenchAxpy(int64_t n, int threads, double min_time, Rng* rng) {
  const std::vector<float> x = RandomVec(n, rng);
  std::vector<float> y = RandomVec(n, rng);

  SetComputeThreads(threads);
  BenchResult r;
  // alpha == 0 keeps y fixed across repetitions (y += 0*x), so the measured
  // work is identical every call.
  r.seconds = TimeBest(min_time, [&]() {
    VecAxpy(0.0f, x.data(), y.data(), n);
  });
  SetComputeThreads(0);

  r.name = "vec_axpy";
  r.shape = std::to_string(n);
  r.threads = threads;
  r.gflops = 2.0 * static_cast<double>(n) / r.seconds * 1e-9;
  r.checksum = Checksum(y);
  return r;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_kernels.json");
  const int max_threads = static_cast<int>(
      flags.GetInt("threads", ComputeThreads()));
  const double min_time = flags.GetDouble("min_time", smoke ? 0.01 : 0.25);

  Rng rng(2023);
  Reporter rep;

  // --- GEMM: frozen naive baseline, then the blocked kernel at 1/N threads.
  const int64_t headline = smoke ? 64 : 256;
  rep.Add(BenchGemm({"gemm_naive", /*naive=*/true}, headline, headline,
                    headline, 1, min_time, &rng));
  std::vector<int64_t> gemm_sizes = smoke ? std::vector<int64_t>{64}
                                          : std::vector<int64_t>{64, 128, 256};
  for (int64_t s : gemm_sizes) {
    rep.Add(BenchGemm({"gemm_blocked"}, s, s, s, 1, min_time, &rng));
    if (max_threads > 1) {
      rep.Add(BenchGemm({"gemm_blocked"}, s, s, s, max_threads, min_time,
                        &rng));
    }
  }
  rep.Add(BenchGemm({"gemm_trans_a", false, /*trans_a=*/true}, headline,
                    headline, headline, max_threads, min_time, &rng));
  rep.Add(BenchGemm({"gemm_trans_b", false, false, /*trans_b=*/true},
                    headline, headline, headline, max_threads, min_time,
                    &rng));

  // --- Batched matmul (attention-shaped): batch scaling is the parallel axis.
  const int64_t bm = smoke ? 16 : 64;
  rep.Add(BenchBatched(8, bm, 32, bm, 1, min_time, &rng));
  if (max_threads > 1) {
    rep.Add(BenchBatched(8, bm, 32, bm, max_threads, min_time, &rng));
  }

  // --- Conv1D: direct naive loop vs im2col+GEMM.
  const int64_t seq = smoke ? 32 : 128;
  rep.Add(BenchConv(/*use_naive=*/true, 8, seq, 32, 32, 3, 1, min_time,
                    &rng));
  rep.Add(BenchConv(/*use_naive=*/false, 8, seq, 32, 32, 3, max_threads,
                    min_time, &rng));

  // --- Axpy (memory bound; sanity number for the elementwise paths).
  rep.Add(BenchAxpy(smoke ? (1 << 16) : (1 << 22), max_threads, min_time,
                    &rng));

  // --- Model shapes (hidden 15, sequence 16): the LSTM gate GEMM x_t·W_x
  // (and h·W_h) for a 1-row and a 64-row Predict, and the fused LSTM layer.
  for (int64_t rows : {int64_t{1}, int64_t{64}}) {
    rep.Add(BenchGemm({"gemm_lstm_gate"}, rows, 15, 60, 1, min_time, &rng));
    if (max_threads > 1) {
      rep.Add(BenchGemm({"gemm_lstm_gate"}, rows, 15, 60, max_threads,
                        min_time, &rng));
    }
  }
  for (bool backward : {false, true}) {
    for (int64_t batch : {int64_t{1}, int64_t{64}}) {
      rep.Add(BenchLstmLayer(backward, batch, 16, 15, max_threads, min_time,
                             &rng));
    }
  }

  // --- Inline vs compute-pool crossover, ordered by FLOPs. The gate GEMM
  // is far below it; 128^3 and 256x64x128 (4.2 MFLOP) sit at it.
  struct CrossoverShape {
    int64_t m, k, n;
  };
  const std::vector<CrossoverShape> crossover_shapes =
      smoke ? std::vector<CrossoverShape>{{64, 15, 60}, {128, 128, 128}}
            : std::vector<CrossoverShape>{
                  {64, 15, 60},    {64, 64, 64},     {128, 64, 128},
                  {128, 128, 128}, {256, 64, 128},   {256, 128, 128},
                  {256, 256, 128}, {256, 256, 256}};
  if (max_threads > 1) {
    for (const auto& s : crossover_shapes) {
      BenchCrossover(s.m, s.k, s.n, max_threads, min_time, &rng, &rep);
    }
  }

  // --- SIMD dispatch at the GEMM shapes a 64-row Predict runs: the LSTM
  // gate GEMM (fp32 in every deploy: int8 quantizes only Linear layers),
  // the profile MLP's first Linear and the head's first Linear. Each is
  // forced to the scalar tier, run at the host's active tier, and run
  // through the int8 quantized serving path.
  struct ServingShape {
    int64_t m, k, n;
  };
  const ServingShape serving_shapes[] = {
      {64, 15, 60}, {64, 16, 32}, {64, 31, 16}};
  std::vector<double> simd_speedups, int8_speedups;
  const SimdLevel active_level = ActiveSimdLevel();
  for (const auto& s : serving_shapes) {
    SetSimdLevel(SimdLevel::kScalar);
    BenchResult scalar_r = BenchGemm({"gemm_serving_scalar"}, s.m, s.k, s.n,
                                     1, min_time, &rng);
    scalar_r.isa = "scalar";
    rep.Add(scalar_r);
    SetSimdLevel(active_level);
    BenchResult simd_r = BenchGemm({"gemm_serving_simd"}, s.m, s.k, s.n, 1,
                                   min_time, &rng);
    rep.Add(simd_r);
    BenchResult int8_r = BenchInt8Gemm(s.m, s.k, s.n, 1, min_time, &rng);
    rep.Add(int8_r);
    if (scalar_r.gflops > 0.0) {
      simd_speedups.push_back(simd_r.gflops / scalar_r.gflops);
    }
    if (simd_r.gflops > 0.0) {
      int8_speedups.push_back(int8_r.gflops / simd_r.gflops);
    }
  }

  // --- Parity guard: the numbers above are only meaningful if the optimized
  // kernels still compute a GEMM. Compare against the naive kernel once.
  {
    const int64_t s = 64;
    const std::vector<float> a = RandomVec(s * s, &rng);
    const std::vector<float> b = RandomVec(s * s, &rng);
    std::vector<float> want(static_cast<size_t>(s * s), 0.0f);
    naive::Gemm(a.data(), b.data(), want.data(), s, s, s, false);
    Tensor tc({s, s});
    MatMul(Tensor::FromVector({s, s}, a), Tensor::FromVector({s, s}, b), &tc);
    double max_rel = 0.0;
    for (int64_t i = 0; i < tc.numel(); ++i) {
      const double diff = std::fabs(static_cast<double>(tc[i]) -
                                    want[static_cast<size_t>(i)]);
      const double mag =
          std::max(1.0, std::fabs(static_cast<double>(
                            want[static_cast<size_t>(i)])));
      max_rel = std::max(max_rel, diff / mag);
    }
    ALT_CHECK_LT(max_rel, 1e-4) << "blocked GEMM diverged from reference";
  }

  // --- Derived headline metrics.
  Json derived = Json::Object{};
  const BenchResult* naive_g = rep.Find("gemm_naive", 1);
  const BenchResult* blocked_1t =
      rep.Find("gemm_blocked", 1);
  if (naive_g && blocked_1t && naive_g->gflops > 0.0) {
    derived["gemm_speedup_vs_naive_1t"] =
        blocked_1t->gflops / naive_g->gflops;
  }
  const BenchResult* blocked_nt = rep.Find("gemm_blocked", max_threads);
  if (blocked_1t && blocked_nt && max_threads > 1 &&
      blocked_1t->gflops > 0.0) {
    derived["gemm_thread_scaling"] = blocked_nt->gflops / blocked_1t->gflops;
  }
  const BenchResult* batch_1t = rep.Find("batched_matmul", 1);
  const BenchResult* batch_nt = rep.Find("batched_matmul", max_threads);
  if (batch_1t && batch_nt && max_threads > 1 && batch_1t->gflops > 0.0) {
    derived["batched_thread_scaling"] = batch_nt->gflops / batch_1t->gflops;
  }
  const BenchResult* conv_naive = rep.Find("conv1d_naive", 1);
  const BenchResult* conv_new = rep.Find("conv1d", max_threads);
  if (conv_naive && conv_new && conv_naive->gflops > 0.0) {
    derived["conv1d_speedup_vs_naive"] = conv_new->gflops / conv_naive->gflops;
  }
  // Worst case over the serving shapes: the conservative number for both
  // dispatch-tier claims (SIMD over forced-scalar, int8 over fp32 SIMD).
  if (!simd_speedups.empty()) {
    derived["simd_gemm_speedup_vs_scalar_serving"] =
        *std::min_element(simd_speedups.begin(), simd_speedups.end());
  }
  if (!int8_speedups.empty()) {
    derived["int8_gemm_speedup_vs_fp32_simd"] =
        *std::min_element(int8_speedups.begin(), int8_speedups.end());
  }
  // The smallest swept GEMM (in MFLOP) from which the pool split beats
  // running inline at every larger swept size; absent if it never does.
  double crossover_mflop = -1.0;
  for (auto it = crossover_shapes.rbegin(); it != crossover_shapes.rend();
       ++it) {
    const std::string shape = std::to_string(it->m) + "x" +
                              std::to_string(it->k) + "x" +
                              std::to_string(it->n);
    const BenchResult* in = nullptr;
    const BenchResult* split = nullptr;
    for (const auto& r : rep.results()) {
      if (r.shape != shape) continue;
      if (r.name == "gemm_crossover_inline") in = &r;
      if (r.name == "gemm_crossover_split32") split = &r;
    }
    if (in == nullptr || split == nullptr || split->seconds >= in->seconds) {
      break;
    }
    crossover_mflop = 2.0 * static_cast<double>(it->m) * it->k * it->n * 1e-6;
  }
  if (crossover_mflop > 0.0) {
    derived["gemm_split_wins_from_mflop"] = crossover_mflop;
  }
  derived["min_parallel_work_mflop"] =
      static_cast<double>(kMinParallelWork) * 1e-6;

  Json::Array results;
  for (const auto& r : rep.results()) {
    Json entry = Json::Object{};
    entry["name"] = r.name;
    entry["shape"] = r.shape;
    entry["isa"] = r.isa;
    entry["threads"] = r.threads;
    entry["gflops"] = r.gflops;
    entry["seconds_per_call"] = r.seconds;
    entry["checksum"] = r.checksum;
    results.push_back(entry);
  }

  Json doc = Json::Object{};
  doc["bench"] = "kernels";
  doc["smoke"] = smoke;
  doc["isa"] = ActiveSimdName();
  doc["compute_threads"] = max_threads;
  doc["min_time_s"] = min_time;
  doc["results"] = results;
  doc["derived"] = derived;
  // Observability snapshot of the run itself (kernel call counts + time
  // histograms recorded by the instrumented kernels; empty when ALT_OBS=off).
  doc["obs"] = obs::MetricsRegistry::Global().ToJson();
  // Tensor-memory accounting of the run (live/peak bytes, alloc counts;
  // zeros when ALT_OBS=off).
  doc["memory"] = obs::MemoryTracker::Global().ToJson();

  std::ofstream out(out_path);
  ALT_CHECK(out.good()) << "cannot open " << out_path;
  out << doc.DumpPretty() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (derived.contains("gemm_speedup_vs_naive_1t")) {
    std::printf("gemm speedup vs naive (1 thread): %.2fx\n",
                derived.at("gemm_speedup_vs_naive_1t").as_number());
  }
  if (derived.contains("simd_gemm_speedup_vs_scalar_serving")) {
    std::printf("simd gemm speedup vs scalar (serving shapes, worst): "
                "%.2fx\n",
                derived.at("simd_gemm_speedup_vs_scalar_serving").as_number());
  }
  if (derived.contains("int8_gemm_speedup_vs_fp32_simd")) {
    std::printf("int8 gemm speedup vs fp32 %s (serving shapes, worst): "
                "%.2fx\n",
                ActiveSimdName(),
                derived.at("int8_gemm_speedup_vs_fp32_simd").as_number());
  }
  return 0;
}

}  // namespace
}  // namespace alt

int main(int argc, char** argv) { return alt::Main(argc, argv); }
