#include "src/autograd/ops.h"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "gtest/gtest.h"
#include "src/autograd/variable.h"

namespace alt {
namespace ag {
namespace {

TEST(VariableTest, ParameterRequiresGrad) {
  Variable p = Variable::Parameter(Tensor::Scalar(1.0f));
  EXPECT_TRUE(p.requires_grad());
  Variable c = Variable::Constant(Tensor::Scalar(1.0f));
  EXPECT_FALSE(c.requires_grad());
}

TEST(VariableTest, SimpleBackward) {
  // L = sum(a * b) with a=[1,2], b=[3,4] -> dL/da = b, dL/db = a.
  Variable a = Variable::Parameter(Tensor::FromVector({2}, {1, 2}));
  Variable b = Variable::Parameter(Tensor::FromVector({2}, {3, 4}));
  Variable loss = SumAll(Mul(a, b));
  EXPECT_FLOAT_EQ(loss.value()[0], 11.0f);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[1], 2.0f);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  Variable a = Variable::Parameter(Tensor::Scalar(2.0f));
  Variable loss1 = SumAll(ScalarMul(a, 3.0f));
  loss1.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  Variable loss2 = SumAll(ScalarMul(a, 3.0f));
  loss2.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(VariableTest, DiamondGraphAccumulatesBothPaths) {
  // L = sum(a + a) -> dL/da = 2.
  Variable a = Variable::Parameter(Tensor::Scalar(5.0f));
  Variable loss = SumAll(Add(a, a));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(VariableTest, DeepChainBackward) {
  Variable a = Variable::Parameter(Tensor::Scalar(1.0f));
  Variable h = a;
  for (int i = 0; i < 20; ++i) h = ScalarMul(h, 1.1f);
  Variable loss = SumAll(h);
  loss.Backward();
  EXPECT_NEAR(a.grad()[0], std::pow(1.1f, 20.0f), 1e-3f);
}

TEST(OpsTest, AddSubMulValues) {
  Variable a = Variable::Constant(Tensor::FromVector({2}, {1, 2}));
  Variable b = Variable::Constant(Tensor::FromVector({2}, {3, 5}));
  EXPECT_FLOAT_EQ(Add(a, b).value()[1], 7.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).value()[0], -2.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).value()[1], 10.0f);
  EXPECT_FLOAT_EQ(Neg(a).value()[0], -1.0f);
  EXPECT_FLOAT_EQ(ScalarAdd(a, 10.0f).value()[0], 11.0f);
}

TEST(OpsTest, AddBiasBroadcasts) {
  Variable x = Variable::Constant(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  Variable b = Variable::Constant(Tensor::FromVector({2}, {10, 20}));
  Tensor out = AddBias(x, b).value();
  EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 24.0f);
}

TEST(OpsTest, MatMulValue) {
  Variable a = Variable::Constant(Tensor::FromVector({1, 2}, {1, 2}));
  Variable b = Variable::Constant(Tensor::FromVector({2, 1}, {3, 4}));
  EXPECT_FLOAT_EQ(MatMul(a, b).value()[0], 11.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Variable x = Variable::Constant(Tensor::Randn({3, 5}, &rng));
  Tensor y = SoftmaxLastDim(x).value();
  for (int64_t r = 0; r < 3; ++r) {
    float total = 0.0f;
    for (int64_t j = 0; j < 5; ++j) {
      const float v = y.at(r, j);
      EXPECT_GT(v, 0.0f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Variable x =
      Variable::Constant(Tensor::FromVector({1, 3}, {1000, 1001, 1002}));
  Tensor y = SoftmaxLastDim(x).value();
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_LT(y[0], y[1]);
  EXPECT_LT(y[1], y[2]);
}

TEST(OpsTest, SliceAndConcatRoundTrip) {
  Variable x = Variable::Constant(
      Tensor::FromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8}));
  Variable left = SliceLastDim(x, 0, 2);
  Variable right = SliceLastDim(x, 2, 2);
  Variable back = ConcatLastDim({left, right});
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(back.value()[i], x.value()[i]);
  }
}

TEST(OpsTest, SelectTimeAndStackTimeRoundTrip) {
  Rng rng(2);
  Variable x = Variable::Constant(Tensor::Randn({2, 3, 4}, &rng));
  std::vector<Variable> slices;
  for (int64_t t = 0; t < 3; ++t) slices.push_back(SelectTime(x, t));
  Variable back = StackTime(slices);
  for (int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(back.value()[i], x.value()[i]);
  }
}

TEST(OpsTest, MeanTimeValue) {
  Variable x = Variable::Constant(
      Tensor::FromVector({1, 2, 2}, {1, 2, 3, 4}));
  Tensor y = MeanTime(x).value();
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.0f);
}

TEST(OpsTest, DetachBlocksGradient) {
  Variable a = Variable::Parameter(Tensor::Scalar(2.0f));
  Variable loss = SumAll(Mul(Detach(a), a));  // d/da = detach(a) = 2.
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(OpsTest, IndexSelectPicksElement) {
  Variable v = Variable::Parameter(Tensor::FromVector({3}, {5, 6, 7}));
  Variable s = IndexSelect(v, 1);
  EXPECT_FLOAT_EQ(s.value()[0], 6.0f);
  SumAll(s).Backward();
  EXPECT_FLOAT_EQ(v.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(v.grad()[1], 1.0f);
  EXPECT_FLOAT_EQ(v.grad()[2], 0.0f);
}

TEST(OpsTest, EmbeddingLookupGathersRows) {
  Variable w = Variable::Parameter(
      Tensor::FromVector({3, 2}, {0, 1, 10, 11, 20, 21}));
  Variable e = EmbeddingLookup(w, {2, 0, 1, 1}, 2, 2);
  EXPECT_FLOAT_EQ(e.value().at(0, 0, 0), 20.0f);
  EXPECT_FLOAT_EQ(e.value().at(0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(e.value().at(1, 0, 0), 10.0f);
  SumAll(e).Backward();
  // id 1 used twice -> grad 2 per element.
  EXPECT_FLOAT_EQ(w.grad().at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(w.grad().at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(w.grad().at(2, 1), 1.0f);
}

TEST(OpsTest, BCEWithLogitsMatchesManual) {
  Variable z = Variable::Constant(Tensor::FromVector({2}, {0.0f, 2.0f}));
  Variable y = Variable::Constant(Tensor::FromVector({2}, {1.0f, 0.0f}));
  const float l0 = std::log(2.0f);                       // -log(sigmoid(0))
  const float l1 = 2.0f + std::log1p(std::exp(-2.0f));   // -log(1-sigmoid(2))
  EXPECT_NEAR(BCEWithLogits(z, y).value()[0], (l0 + l1) / 2.0f, 1e-5f);
}

TEST(OpsTest, BCEWithLogitsExtremeLogitsAreFinite) {
  Variable z = Variable::Constant(Tensor::FromVector({2}, {100.0f, -100.0f}));
  Variable y = Variable::Constant(Tensor::FromVector({2}, {1.0f, 0.0f}));
  const float loss = BCEWithLogits(z, y).value()[0];
  EXPECT_FALSE(std::isnan(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-5f);
}

TEST(OpsTest, DropoutEvalIsIdentity) {
  Rng rng(3);
  Variable x = Variable::Constant(Tensor::Randn({4, 4}, &rng));
  Variable y = Dropout(x, 0.5f, &rng, /*training=*/false);
  for (int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_EQ(y.value()[i], x.value()[i]);
  }
}

TEST(OpsTest, DropoutTrainingZeroesAndScales) {
  Rng rng(4);
  Variable x = Variable::Constant(Tensor::Ones({1000}));
  Variable y = Dropout(x, 0.5f, &rng, /*training=*/true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.value().numel(); ++i) {
    const float v = y.value()[i];
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6f);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 350);
  EXPECT_LT(zeros, 650);
}

TEST(OpsTest, ActivationValues) {
  Variable x = Variable::Constant(Tensor::FromVector({3}, {-1, 0, 1}));
  EXPECT_FLOAT_EQ(Relu(x).value()[0], 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).value()[2], 1.0f);
  EXPECT_NEAR(Sigmoid(x).value()[1], 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(x).value()[2], std::tanh(1.0f), 1e-6f);
  EXPECT_NEAR(Gelu(x).value()[1], 0.0f, 1e-6f);
  EXPECT_NEAR(Gelu(x).value()[2], 0.8413447f, 1e-4f);
}

TEST(OpsTest, ConstantGraphSkipsBackward) {
  Variable a = Variable::Constant(Tensor::Scalar(1.0f));
  Variable loss = SumAll(ScalarMul(a, 2.0f));
  EXPECT_FALSE(loss.requires_grad());
  loss.Backward();  // Must be a no-op, not a crash.
}

TEST(InferenceGuardTest, GuardedResultHasNoGraphAndBackwardIsNoOp) {
  Variable w = Variable::Parameter(Tensor::FromVector({2}, {1.5f, -2.0f}));
  Variable loss;
  {
    InferenceGuard no_graph;
    EXPECT_TRUE(InferenceGuard::active());
    loss = SumAll(Mul(w, w));
  }
  EXPECT_FALSE(InferenceGuard::active());
  EXPECT_FLOAT_EQ(loss.value()[0], 6.25f);
  EXPECT_FALSE(loss.requires_grad());
  EXPECT_TRUE(loss.node()->parents.empty());
  EXPECT_FALSE(loss.node()->backward_fn);
  EXPECT_STREQ(loss.node()->op_name, "sum_all");
  loss.Backward();
  EXPECT_FALSE(w.has_grad());

  // Outside the guard the same expression records again.
  Variable recorded = SumAll(Mul(w, w));
  EXPECT_TRUE(recorded.requires_grad());
  EXPECT_EQ(recorded.node()->parents.size(), 1u);
  recorded.Backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 3.0f);
}

TEST(InferenceGuardTest, ScopesNestAndRestoreOnUnwind) {
  EXPECT_FALSE(InferenceGuard::active());
  {
    InferenceGuard outer;
    {
      InferenceGuard inner;
      EXPECT_TRUE(InferenceGuard::active());
    }
    EXPECT_TRUE(InferenceGuard::active());  // inner restored outer's state
  }
  EXPECT_FALSE(InferenceGuard::active());
  try {
    InferenceGuard guard;
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(InferenceGuard::active());
  Variable w = Variable::Parameter(Tensor::Scalar(2.0f));
  EXPECT_TRUE(ScalarMul(w, 3.0f).requires_grad());
}

TEST(InferenceGuardTest, GuardOnOneThreadLeavesOthersRecording) {
  // Both threads build graphs at the same time; only the guarded one drops
  // them. The flag is thread-local, so TSan sees no shared state here.
  Variable w =
      Variable::Parameter(Tensor::FromVector({3}, {1.0f, 2.0f, 3.0f}));
  std::atomic<int> ready{0};
  std::atomic<int> guarded_with_parents{0};
  std::atomic<int> recorded_without_parents{0};
  constexpr int kIters = 200;
  auto wait_for_both = [&ready]() {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
  };
  std::thread guarded([&]() {
    InferenceGuard no_graph;
    wait_for_both();
    for (int i = 0; i < kIters; ++i) {
      Variable y = Tanh(ScalarMul(w, 0.5f));
      if (!y.node()->parents.empty() || y.requires_grad()) {
        guarded_with_parents.fetch_add(1);
      }
    }
  });
  std::thread recording([&]() {
    wait_for_both();
    for (int i = 0; i < kIters; ++i) {
      Variable y = Tanh(ScalarMul(w, 0.5f));
      if (y.node()->parents.size() != 1 || !y.requires_grad()) {
        recorded_without_parents.fetch_add(1);
      }
    }
  });
  guarded.join();
  recording.join();
  EXPECT_EQ(guarded_with_parents.load(), 0);
  EXPECT_EQ(recorded_without_parents.load(), 0);
  EXPECT_FALSE(InferenceGuard::active());
}

}  // namespace
}  // namespace ag
}  // namespace alt
