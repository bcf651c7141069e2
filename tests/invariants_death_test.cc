// Death tests documenting the library's hard invariants: shape and index
// violations are programmer errors and abort via ALT_CHECK rather than
// corrupting state. (Recoverable conditions use Status/Result instead.)

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/data/dataset.h"
#include "src/hpo/search_space.h"
#include "src/tensor/tensor.h"
#include "src/util/logging.h"

namespace alt {
namespace {

using OpsDeathTest = ::testing::Test;

TEST(TensorDeathTest, ShapeMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({3, 2});
  EXPECT_DEATH(a.AddInPlace(b), "Check failed");
  EXPECT_DEATH(a.Axpy(1.0f, b), "Check failed");
}

TEST(TensorDeathTest, BadReshapeAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  EXPECT_DEATH(a.Reshape({4, 2}), "Check failed");
}

TEST(TensorDeathTest, WrongRankIndexingAborts) {
  Tensor a = Tensor::Zeros({6});
  EXPECT_DEATH(a.at(0, 0), "Check failed");
  Tensor b = Tensor::Zeros({2, 3});
  EXPECT_DEATH(b.at(0, 0, 0), "Check failed");
}

TEST(OpsDeathTest, MismatchedOperandsAbort) {
  ag::Variable a = ag::Variable::Constant(Tensor::Zeros({2}));
  ag::Variable b = ag::Variable::Constant(Tensor::Zeros({3}));
  EXPECT_DEATH(ag::Add(a, b), "");
  EXPECT_DEATH(ag::Mul(a, b), "");
}

TEST(OpsDeathTest, MatMulInnerDimMismatchAborts) {
  ag::Variable a = ag::Variable::Constant(Tensor::Zeros({2, 3}));
  ag::Variable b = ag::Variable::Constant(Tensor::Zeros({4, 2}));
  EXPECT_DEATH(ag::MatMul(a, b), "Check failed");
}

TEST(OpsDeathTest, BackwardFromNonScalarAborts) {
  ag::Variable a = ag::Variable::Parameter(Tensor::Zeros({2, 2}));
  ag::Variable y = ag::ScalarMul(a, 2.0f);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(OpsDeathTest, SecondBackwardThroughAFreedGraphAborts) {
  // Outside a tensor recycling scope the first sweep frees each op's saved
  // tensors; a second one must not run on what is left.
  ag::Variable w = ag::Variable::Parameter(Tensor::FromVector({2}, {1, 2}));
  ag::Variable loss = ag::SumAll(ag::Mul(w, w));
  loss.Backward();
  EXPECT_DEATH(loss.Backward(), "backward already ran");
}

TEST(OpsDeathTest, EmbeddingOutOfVocabAborts) {
  ag::Variable w = ag::Variable::Parameter(Tensor::Zeros({4, 2}));
  EXPECT_DEATH(ag::EmbeddingLookup(w, {0, 9}, 1, 2), "Check failed");
}

TEST(OpsDeathTest, SliceOutOfRangeAborts) {
  ag::Variable a = ag::Variable::Constant(Tensor::Zeros({2, 3}));
  EXPECT_DEATH(ag::SliceLastDim(a, 2, 2), "Check failed");
  EXPECT_DEATH(ag::SelectTime(a, 0), "Check failed");  // Needs rank 3.
}

TEST(DatasetDeathTest, SubsetIndexOutOfRangeAborts) {
  data::ScenarioData d;
  d.profile_dim = 1;
  d.seq_len = 1;
  d.profiles = Tensor::Zeros({2, 1});
  d.behaviors = {0, 0};
  d.labels = {0.0f, 1.0f};
  EXPECT_DEATH(d.Subset({5}), "Check failed");
}

#if ALT_DCHECK_ENABLED
// Accessor guards on undefined Variables are ALT_DCHECKs: active in debug
// and sanitizer builds (-DALT_DCHECKS=ON), compiled out of plain Release.
TEST(VariableDeathTest, UndefinedAccessAborts) {
  ag::Variable v;
  EXPECT_DEATH(v.value(), "undefined");
  EXPECT_DEATH(v.mutable_value(), "undefined");
  EXPECT_DEATH(v.grad(), "undefined");
  EXPECT_DEATH(v.mutable_grad(), "undefined");
  EXPECT_DEATH(v.requires_grad(), "undefined");
  EXPECT_DEATH(v.has_grad(), "undefined");
  EXPECT_DEATH(v.ZeroGrad(), "undefined");
}
#endif  // ALT_DCHECK_ENABLED

TEST(HpoDeathTest, TypedAccessorsCheckTypes) {
  hpo::TrialConfig config = {{"x", 0.5}};
  EXPECT_DEATH(hpo::GetInt(config, "x"), "not an int");
  EXPECT_DEATH(hpo::GetDouble(config, "missing"), "missing param");
}

}  // namespace
}  // namespace alt
