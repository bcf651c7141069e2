#include <cstring>
#include <sstream>
#include <vector>

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/nn/attention.h"
#include "src/nn/conv.h"
#include "src/nn/embedding.h"
#include "src/nn/layer_norm.h"
#include "src/nn/linear.h"
#include "src/nn/lstm.h"
#include "src/nn/mlp.h"
#include "src/nn/serialize.h"
#include "src/nn/transformer.h"
#include "src/tensor/cpu_features.h"
#include "src/util/parallel_for.h"

namespace alt {
namespace nn {
namespace {

TEST(LinearTest, ForwardShape2DAnd3D) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  ag::Variable x2 = ag::Variable::Constant(Tensor::Randn({5, 4}, &rng));
  EXPECT_EQ(layer.Forward(x2).value().shape(), (std::vector<int64_t>{5, 3}));
  ag::Variable x3 = ag::Variable::Constant(Tensor::Randn({2, 6, 4}, &rng));
  EXPECT_EQ(layer.Forward(x3).value().shape(),
            (std::vector<int64_t>{2, 6, 3}));
}

TEST(LinearTest, ParameterCountAndFlops) {
  Rng rng(2);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.NumParameters(), 4 * 3 + 3);
  EXPECT_EQ(layer.Flops(10), 10 * (2 * 4 * 3) + 10 * 3);
  Linear no_bias(4, 3, &rng, /*use_bias=*/false);
  EXPECT_EQ(no_bias.NumParameters(), 12);
}

TEST(MlpTest, StackedShapeAndNames) {
  Rng rng(3);
  Mlp mlp({8, 16, 4}, Activation::kRelu, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 8}, &rng));
  EXPECT_EQ(mlp.Forward(x).value().shape(), (std::vector<int64_t>{2, 4}));
  auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "0.weight");
  EXPECT_EQ(named[3].first, "1.bias");
}

TEST(EmbeddingTest, LookupShape) {
  Rng rng(4);
  Embedding emb(10, 6, &rng);
  ag::Variable e = emb.Forward({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(e.value().shape(), (std::vector<int64_t>{2, 3, 6}));
}

TEST(PositionalEmbeddingTest, AddsPositionInfo) {
  Rng rng(5);
  PositionalEmbedding pos(8, 4, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Zeros({2, 5, 4}));
  Tensor out = pos.Forward(x).value();
  // With zero input, output equals position table rows, equal across batch.
  for (int64_t t = 0; t < 5; ++t) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(out.at(0, t, j), out.at(1, t, j));
    }
  }
  // Distinct positions get distinct embeddings (random init).
  EXPECT_NE(out.at(0, 0, 0), out.at(0, 1, 0));
}

TEST(LstmTest, OutputShapeAndFlops) {
  Rng rng(6);
  Lstm lstm(5, 7, 2, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({3, 4, 5}, &rng));
  EXPECT_EQ(lstm.Forward(x).value().shape(),
            (std::vector<int64_t>{3, 4, 7}));
  EXPECT_GT(lstm.Flops(4), 0);
  EXPECT_EQ(lstm.num_layers(), 2);
}

TEST(LstmTest, ParameterNamesAreHierarchical) {
  Rng rng(7);
  Lstm lstm(3, 4, 2, &rng);
  auto named = lstm.NamedParameters();
  ASSERT_EQ(named.size(), 6u);
  EXPECT_EQ(named[0].first, "0.w_x");
  EXPECT_EQ(named[5].first, "1.bias");
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(8);
  LstmLayer layer(3, 4, &rng);
  auto named = layer.NamedParameters();
  const Tensor& bias = named[2].second->value();
  EXPECT_EQ(named[2].first, "bias");
  for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(bias[j], 0.0f);
  for (int64_t j = 4; j < 8; ++j) EXPECT_EQ(bias[j], 1.0f);
}

/// One LSTM layer composed per timestep from elementary ops: the reference
/// the fused ag::LstmLayer op must match bit for bit.
ag::Variable ComposedLstmLayer(const ag::Variable& x, const ag::Variable& w_x,
                               const ag::Variable& w_h,
                               const ag::Variable& bias) {
  const int64_t batch = x.value().size(0);
  const int64_t seq = x.value().size(1);
  const int64_t h = w_h.value().size(0);
  ag::Variable h_prev = ag::Variable::Constant(Tensor::Zeros({batch, h}));
  ag::Variable c_prev = ag::Variable::Constant(Tensor::Zeros({batch, h}));
  std::vector<ag::Variable> outputs;
  for (int64_t t = 0; t < seq; ++t) {
    ag::Variable x_t = ag::SelectTime(x, t);
    ag::Variable gates = ag::AddBias(
        ag::Add(ag::MatMul(x_t, w_x), ag::MatMul(h_prev, w_h)), bias);
    ag::Variable i_g = ag::Sigmoid(ag::SliceLastDim(gates, 0, h));
    ag::Variable f_g = ag::Sigmoid(ag::SliceLastDim(gates, h, h));
    ag::Variable g_g = ag::Tanh(ag::SliceLastDim(gates, 2 * h, h));
    ag::Variable o_g = ag::Sigmoid(ag::SliceLastDim(gates, 3 * h, h));
    ag::Variable c_t = ag::Add(ag::Mul(f_g, c_prev), ag::Mul(i_g, g_g));
    ag::Variable h_t = ag::Mul(o_g, ag::Tanh(c_t));
    outputs.push_back(h_t);
    h_prev = h_t;
    c_prev = c_t;
  }
  return ag::StackTime(outputs);
}

using LstmFn = ag::Variable (*)(const ag::Variable&, const ag::Variable&,
                                const ag::Variable&, const ag::Variable&);

/// Output and every gradient of a two-layer stack run twice, each time
/// through a fresh graph: the second backward accumulates into the first's
/// gradients. Layer 1's output also feeds the loss directly, so its
/// gradient sums two consumers, as a residual or NAS mixed op does.
std::vector<Tensor> RunTwoLayerStack(LstmFn layer, const Tensor& x0,
                                     const std::vector<Tensor>& weights,
                                     const Tensor& coeff1,
                                     const Tensor& coeff2) {
  ag::Variable x = ag::Variable::Parameter(x0);
  std::vector<ag::Variable> w;
  for (const Tensor& t : weights) w.push_back(ag::Variable::Parameter(t));
  Tensor out;
  for (int pass = 0; pass < 2; ++pass) {
    ag::Variable y1 = layer(x, w[0], w[1], w[2]);
    ag::Variable y2 = layer(y1, w[3], w[4], w[5]);
    ag::Variable loss =
        ag::Add(ag::SumAll(ag::Mul(y2, ag::Variable::Constant(coeff2))),
                ag::SumAll(ag::Mul(y1, ag::Variable::Constant(coeff1))));
    loss.Backward();
    out = y2.value();
  }
  std::vector<Tensor> results = {out, x.grad()};
  for (const ag::Variable& v : w) results.push_back(v.grad());
  return results;
}

TEST(LstmTest, FusedLayerBitIdenticalToComposition) {
  const SimdLevel saved_level = ActiveSimdLevel();
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SetSimdLevel(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (SetSimdLevel(SimdLevel::kAvx512)) levels.push_back(SimdLevel::kAvx512);
  const char* names[] = {"out", "dx", "dw_x1", "dw_h1", "dbias1",
                         "dw_x2", "dw_h2", "dbias2"};
  const int64_t in = 6;
  const int64_t h = 15;
  for (SimdLevel level : levels) {
    ASSERT_TRUE(SetSimdLevel(level));
    for (int threads : {1, 4}) {
      SetComputeThreads(threads);
      for (int64_t batch : {1, 3, 64}) {
        for (int64_t seq : {1, 16}) {
          Rng rng(static_cast<uint64_t>(1000 + batch * 31 + seq));
          LstmLayer l1(in, h, &rng);
          LstmLayer l2(h, h, &rng);
          std::vector<Tensor> weights;
          for (LstmLayer* l : {&l1, &l2}) {
            for (auto& [name, v] : l->NamedParameters()) {
              // Perturb the init so no bias entry is an exact 0 or 1.
              Tensor t = v->value();
              for (int64_t i = 0; i < t.numel(); ++i) {
                t[i] += static_cast<float>(rng.Uniform(-0.3, 0.3));
              }
              weights.push_back(t);
            }
          }
          const Tensor x0 = Tensor::Randn({batch, seq, in}, &rng);
          const Tensor coeff1 = Tensor::Randn({batch, seq, h}, &rng);
          const Tensor coeff2 = Tensor::Randn({batch, seq, h}, &rng);
          const std::vector<Tensor> want = RunTwoLayerStack(
              &ComposedLstmLayer, x0, weights, coeff1, coeff2);
          const std::vector<Tensor> got = RunTwoLayerStack(
              &ag::LstmLayer, x0, weights, coeff1, coeff2);
          ASSERT_EQ(got.size(), want.size());
          for (size_t r = 0; r < got.size(); ++r) {
            ASSERT_TRUE(got[r].SameShape(want[r])) << names[r];
            EXPECT_EQ(0, std::memcmp(got[r].data(), want[r].data(),
                                     sizeof(float) * static_cast<size_t>(
                                                         got[r].numel())))
                << names[r] << " differs: level=" << SimdLevelName(level)
                << " threads=" << threads << " B=" << batch << " T=" << seq;
          }
        }
      }
    }
  }
  SetComputeThreads(0);
  SetSimdLevel(saved_level);
}

TEST(LstmTest, FusedNodeStampsNameAndFlops) {
  Rng rng(12);
  LstmLayer layer(6, 15, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({3, 16, 6}, &rng));
  ag::Variable y = layer.Forward(x);
  EXPECT_STREQ(y.node()->op_name, "lstm_layer");
  EXPECT_EQ(y.node()->flops, 3 * layer.Flops(16));
  ASSERT_EQ(y.node()->parents.size(), 4u);
  EXPECT_TRUE(y.requires_grad());
}

TEST(LstmTest, InferenceGuardKeepsValuesAndDropsGraph) {
  Rng rng(13);
  Lstm lstm(6, 15, 3, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({5, 16, 6}, &rng));
  const Tensor recorded = lstm.Forward(x).value();
  ag::Variable guarded;
  {
    ag::InferenceGuard no_graph;
    guarded = lstm.Forward(x);
  }
  EXPECT_FALSE(guarded.requires_grad());
  EXPECT_TRUE(guarded.node()->parents.empty());
  EXPECT_FALSE(guarded.node()->backward_fn);
  ASSERT_TRUE(guarded.value().SameShape(recorded));
  EXPECT_EQ(0, std::memcmp(guarded.value().data(), recorded.data(),
                           sizeof(float) *
                               static_cast<size_t>(recorded.numel())));
}

TEST(AttentionTest, OutputShapePreserved) {
  Rng rng(9);
  MultiHeadSelfAttention mha(6, 3, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 5, 6}, &rng));
  EXPECT_EQ(mha.Forward(x).value().shape(),
            (std::vector<int64_t>{2, 5, 6}));
}

TEST(AttentionTest, PermutationEquivariance) {
  // Self-attention without positional encoding is permutation-equivariant:
  // permuting input timesteps permutes output timesteps identically.
  Rng rng(10);
  MultiHeadSelfAttention mha(4, 2, &rng);
  Tensor x = Tensor::Randn({1, 3, 4}, &rng);
  Tensor xp({1, 3, 4});
  const int64_t perm[3] = {2, 0, 1};
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t j = 0; j < 4; ++j) xp.at(0, t, j) = x.at(0, perm[t], j);
  }
  Tensor y = mha.Forward(ag::Variable::Constant(x)).value();
  Tensor yp = mha.Forward(ag::Variable::Constant(xp)).value();
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(yp.at(0, t, j), y.at(0, perm[t], j), 1e-4f);
    }
  }
}

TEST(TransformerTest, EncoderShapeAndChildren) {
  Rng rng(11);
  TransformerEncoder encoder(6, 3, 12, 2, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 4, 6}, &rng));
  EXPECT_EQ(encoder.Forward(x).value().shape(),
            (std::vector<int64_t>{2, 4, 6}));
  EXPECT_EQ(encoder.num_layers(), 2);
  EXPECT_GT(encoder.Flops(4), 0);
}

TEST(ConvLayerTest, ShapeAndFlops) {
  Rng rng(12);
  Conv1DLayer conv(3, 5, 3, 1, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 6, 3}, &rng));
  EXPECT_EQ(conv.Forward(x).value().shape(),
            (std::vector<int64_t>{2, 6, 5}));
  EXPECT_EQ(conv.Flops(6), 6 * (2 * 3 * 3 * 5 + 5));
}

TEST(LayerNormTest, NormalizesLastDim) {
  Rng rng(13);
  LayerNorm norm(8);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({4, 8}, &rng, 3.0f));
  Tensor y = norm.Forward(x).value();
  for (int64_t r = 0; r < 4; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t j = 0; j < 8; ++j) mean += y.at(r, j);
    mean /= 8.0;
    for (int64_t j = 0; j < 8; ++j) {
      var += (y.at(r, j) - mean) * (y.at(r, j) - mean);
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(14);
  Mlp mlp({4, 4, 2}, Activation::kRelu, &rng);
  mlp.SetTraining(false);
  EXPECT_FALSE(mlp.training());
}

TEST(ModuleTest, CopyParametersFromMatchingModule) {
  Rng rng_a(15);
  Rng rng_b(16);
  Mlp a({4, 3, 2}, Activation::kTanh, &rng_a);
  Mlp b({4, 3, 2}, Activation::kTanh, &rng_b);
  ASSERT_TRUE(b.CopyParametersFrom(&a).ok());
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].second->value().numel(); ++j) {
      EXPECT_EQ(pa[i].second->value()[j], pb[i].second->value()[j]);
    }
  }
}

TEST(ModuleTest, CopyParametersShapeMismatchFails) {
  Rng rng(17);
  Mlp a({4, 3, 2}, Activation::kTanh, &rng);
  Mlp b({4, 5, 2}, Activation::kTanh, &rng);
  EXPECT_FALSE(b.CopyParametersFrom(&a).ok());
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng_a(18);
  Rng rng_b(19);
  Lstm a(3, 4, 2, &rng_a);
  Lstm b(3, 4, 2, &rng_b);
  std::stringstream buffer;
  ASSERT_TRUE(SaveWeights(&a, &buffer).ok());
  ASSERT_TRUE(LoadWeights(&b, &buffer).ok());
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].second->value().numel(); ++j) {
      EXPECT_EQ(pa[i].second->value()[j], pb[i].second->value()[j]);
    }
  }
}

TEST(SerializeTest, LoadIntoWrongArchitectureFails) {
  Rng rng(20);
  Lstm a(3, 4, 2, &rng);
  Lstm wrong_depth(3, 4, 1, &rng);
  Mlp wrong_kind({3, 4}, Activation::kRelu, &rng);
  std::stringstream buffer;
  ASSERT_TRUE(SaveWeights(&a, &buffer).ok());
  EXPECT_FALSE(LoadWeights(&wrong_depth, &buffer).ok());
  buffer.clear();
  buffer.seekg(0);
  EXPECT_FALSE(LoadWeights(&wrong_kind, &buffer).ok());
}

TEST(SerializeTest, CorruptStreamRejected) {
  Rng rng(21);
  Mlp m({2, 2}, Activation::kNone, &rng);
  std::stringstream buffer("not a weights file");
  EXPECT_FALSE(LoadWeights(&m, &buffer).ok());
}

}  // namespace
}  // namespace nn
}  // namespace alt
