#include <cmath>

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/data/synthetic.h"
#include "src/nas/arch.h"
#include "src/nas/derived_encoder.h"
#include "src/nas/nas_search.h"
#include "src/nas/supernet.h"
#include "src/obs/metrics.h"
#include "src/opt/optimizer.h"

namespace alt {
namespace nas {
namespace {

// ---------------------------------------------------------------------------
// OpSpec / Architecture
// ---------------------------------------------------------------------------

TEST(OpSpecTest, StringRoundTrip) {
  for (const OpSpec& op : DefaultOpCandidates()) {
    auto parsed = OpSpec::FromString(op.ToString());
    ASSERT_TRUE(parsed.ok()) << op.ToString();
    EXPECT_TRUE(parsed.value() == op);
  }
  EXPECT_FALSE(OpSpec::FromString("magic").ok());
  EXPECT_FALSE(OpSpec::FromString("convX").ok());
  EXPECT_FALSE(OpSpec::FromString("conv").ok());
}

TEST(OpSpecTest, DefaultCandidatesMatchPaper) {
  // Sec. V-A3: convs {1,3,5,7} standard plus dilated {3,5,7} (kernel-1
  // dilated == kernel-1 standard), avg/max pool 3, LSTM, self-attention.
  auto ops = DefaultOpCandidates();
  EXPECT_EQ(ops.size(), 11u);
  EXPECT_EQ(ops.back().type, OpType::kAttention);
}

TEST(OpSpecTest, FlopsGrowWithKernel) {
  const int64_t t = 16;
  const int64_t d = 15;
  int64_t prev = 0;
  for (int64_t k : {1, 3, 5, 7}) {
    OpSpec op{OpType::kConv, k};
    EXPECT_GT(op.Flops(t, d), prev);
    prev = op.Flops(t, d);
  }
  // Pooling is far cheaper than any conv.
  EXPECT_LT((OpSpec{OpType::kAvgPool, 3}).Flops(t, d),
            (OpSpec{OpType::kConv, 1}).Flops(t, d));
  // LSTM and attention are the heavy global ops.
  EXPECT_GT((OpSpec{OpType::kLstm, 0}).Flops(t, d),
            (OpSpec{OpType::kConv, 3}).Flops(t, d));
}

Architecture SmallArch(int64_t dim = 6) {
  Architecture arch;
  arch.dim = dim;
  arch.layers.push_back({0, {OpType::kConv, 3}, {false}});
  arch.layers.push_back({1, {OpType::kLstm, 0}, {true, false}});
  arch.layers.push_back({0, {OpType::kMaxPool, 3}, {false, true, false}});
  return arch;
}

TEST(ArchitectureTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(SmallArch().Validate().ok());
}

TEST(ArchitectureTest, ValidateRejectsBadInput) {
  Architecture arch = SmallArch();
  arch.layers[1].input = 2;  // Forward reference.
  EXPECT_FALSE(arch.Validate().ok());
  arch = SmallArch();
  arch.layers[2].residuals = {true};  // Wrong mask size.
  EXPECT_FALSE(arch.Validate().ok());
  Architecture empty;
  EXPECT_FALSE(empty.Validate().ok());
}

TEST(ArchitectureTest, JsonRoundTrip) {
  Architecture arch = SmallArch();
  auto parsed = Architecture::FromJson(arch.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().dim, arch.dim);
  ASSERT_EQ(parsed.value().num_layers(), 3);
  EXPECT_TRUE(parsed.value().layers[1].op == arch.layers[1].op);
  EXPECT_EQ(parsed.value().layers[2].residuals, arch.layers[2].residuals);
  EXPECT_EQ(parsed.value().layers[1].input, 1);
}

TEST(ArchitectureTest, FlopsAccountsForResiduals) {
  Architecture with_res = SmallArch();
  Architecture no_res = SmallArch();
  no_res.layers[1].residuals = {false, false};
  no_res.layers[2].residuals = {false, false, false};
  EXPECT_GT(with_res.Flops(16), no_res.Flops(16));
}

TEST(ArchitectureTest, ToStringMentionsOpsAndResiduals) {
  const std::string s = SmallArch().ToString();
  EXPECT_NE(s.find("conv3"), std::string::npos);
  EXPECT_NE(s.find("lstm"), std::string::npos);
  EXPECT_NE(s.find("residual"), std::string::npos);
  EXPECT_NE(s.find("attentive sum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DerivedNasEncoder
// ---------------------------------------------------------------------------

TEST(DerivedEncoderTest, EncodePreservesShape) {
  Rng rng(1);
  DerivedNasEncoder encoder(SmallArch(6), &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 5, 6}, &rng));
  EXPECT_EQ(encoder.Encode(x).value().shape(),
            (std::vector<int64_t>{2, 5, 6}));
  EXPECT_EQ(encoder.Flops(5), SmallArch(6).Flops(5));
}

TEST(DerivedEncoderTest, GradientsReachAllOpsAndAttn) {
  Rng rng(2);
  DerivedNasEncoder encoder(SmallArch(6), &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 4, 6}, &rng));
  ag::Variable loss = ag::SumAll(ag::Mul(encoder.Encode(x),
                                         encoder.Encode(x)));
  encoder.ZeroGrad();
  loss.Backward();
  int64_t nonzero_params = 0;
  for (ag::Variable* p : encoder.Parameters()) {
    if (p->has_grad() && p->grad().SquaredNorm() > 0.0) ++nonzero_params;
  }
  EXPECT_GT(nonzero_params, 2);
}

// ---------------------------------------------------------------------------
// SupernetEncoder
// ---------------------------------------------------------------------------

SupernetOptions SmallSupernetOptions() {
  SupernetOptions options;
  options.num_layers = 3;
  return options;
}

TEST(SupernetTest, EncodeShapeTrainAndEval) {
  Rng rng(3);
  SupernetEncoder supernet(6, SmallSupernetOptions(), 7, &rng);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({2, 4, 6}, &rng));
  supernet.SetTraining(true);
  EXPECT_EQ(supernet.Encode(x).value().shape(),
            (std::vector<int64_t>{2, 4, 6}));
  supernet.SetTraining(false);
  EXPECT_EQ(supernet.Encode(x).value().shape(),
            (std::vector<int64_t>{2, 4, 6}));
}

TEST(SupernetTest, EvalEncodeIsDeterministic) {
  Rng rng(4);
  SupernetEncoder supernet(6, SmallSupernetOptions(), 9, &rng);
  supernet.SetTraining(false);
  ag::Variable x = ag::Variable::Constant(Tensor::Randn({1, 4, 6}, &rng));
  Tensor y1 = supernet.Encode(x).value();
  Tensor y2 = supernet.Encode(x).value();
  for (int64_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(SupernetTest, ArchAndWeightParamsPartitionAll) {
  Rng rng(5);
  SupernetEncoder supernet(6, SmallSupernetOptions(), 11, &rng);
  auto arch = supernet.ArchParameters();
  auto weights = supernet.WeightParameters();
  auto all = supernet.Parameters();
  EXPECT_EQ(arch.size() + weights.size(), all.size());
  for (ag::Variable* a : arch) {
    EXPECT_EQ(std::count(weights.begin(), weights.end(), a), 0);
  }
  // 3 layers: input+op per layer (6) + residual gates 1+2+3 (6) = 12.
  EXPECT_EQ(arch.size(), 12u);
}

TEST(SupernetTest, FlopsLossInUnitIntervalAndDifferentiable) {
  Rng rng(6);
  SupernetEncoder supernet(6, SmallSupernetOptions(), 13, &rng);
  ag::Variable loss = supernet.FlopsLoss(8);
  EXPECT_GT(loss.value()[0], 0.0f);
  EXPECT_LT(loss.value()[0], 1.0f);
  supernet.ZeroGrad();
  loss.Backward();
  double arch_grad_norm = 0.0;
  for (ag::Variable* p : supernet.ArchParameters()) {
    if (p->has_grad()) arch_grad_norm += p->grad().SquaredNorm();
  }
  EXPECT_GT(arch_grad_norm, 0.0);
}

TEST(SupernetTest, FlopsLossPushesTowardCheapOps) {
  // Minimizing the FLOPs loss alone must drive the argmax op of each layer
  // to the cheapest candidate (pooling).
  Rng rng(7);
  SupernetEncoder supernet(6, SmallSupernetOptions(), 15, &rng);
  opt::Adam optimizer(supernet.ArchParameters(), 0.05f);
  for (int step = 0; step < 200; ++step) {
    optimizer.ZeroGrad();
    supernet.FlopsLoss(8).Backward();
    optimizer.Step();
  }
  auto arch = supernet.Derive(0, 8);
  ASSERT_TRUE(arch.ok());
  for (const LayerSpec& layer : arch.value().layers) {
    EXPECT_TRUE(layer.op.type == OpType::kAvgPool ||
                layer.op.type == OpType::kMaxPool)
        << layer.op.ToString();
    for (bool r : layer.residuals) EXPECT_FALSE(r);
  }
}

TEST(SupernetTest, DeriveUnconstrainedPicksArgmax) {
  Rng rng(8);
  SupernetEncoder supernet(6, SmallSupernetOptions(), 17, &rng);
  // Bias layer 0's op logits hard toward the last candidate (attention).
  supernet.ArchParameters()[1]->mutable_value().Fill(0.0f);
  supernet.ArchParameters()[1]->mutable_value()[10] = 10.0f;
  auto arch = supernet.Derive(0, 8);
  ASSERT_TRUE(arch.ok());
  EXPECT_EQ(arch.value().layers[0].op.type, OpType::kAttention);
}

class DeriveBudgetTest : public ::testing::TestWithParam<int> {};

TEST_P(DeriveBudgetTest, RespectsFlopsBudget) {
  Rng rng(static_cast<uint64_t>(100 + GetParam()));
  SupernetOptions options = SmallSupernetOptions();
  SupernetEncoder supernet(6, options, 19 + GetParam(), &rng);
  // Randomize arch logits so the unconstrained argmax is arbitrary.
  Rng logits_rng(static_cast<uint64_t>(GetParam()));
  for (ag::Variable* p : supernet.ArchParameters()) {
    p->mutable_value() =
        Tensor::Randn(p->value().shape(), &logits_rng, 2.0f);
  }
  const int64_t seq_len = 8;
  auto unconstrained = supernet.Derive(0, seq_len);
  ASSERT_TRUE(unconstrained.ok());
  // Budget: 60% of the unconstrained architecture's FLOPs.
  const int64_t budget =
      static_cast<int64_t>(unconstrained.value().Flops(seq_len) * 0.6);
  auto constrained = supernet.Derive(budget, seq_len);
  if (constrained.ok()) {
    EXPECT_LE(constrained.value().Flops(seq_len), budget)
        << constrained.value().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeriveBudgetTest, ::testing::Range(0, 10));

TEST(SupernetTest, DeriveBudgetBelowOverheadFails) {
  Rng rng(9);
  SupernetEncoder supernet(6, SmallSupernetOptions(), 21, &rng);
  EXPECT_FALSE(supernet.Derive(1, 8).ok());
}

// ---------------------------------------------------------------------------
// SearchLightModel + BuildModel
// ---------------------------------------------------------------------------

data::ScenarioData TinyScenario() {
  data::SyntheticConfig config;
  config.num_scenarios = 1;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {220};
  config.seed = 31;
  return data::SyntheticGenerator(config).GenerateScenario(0);
}

models::ModelConfig TinyLightConfig() {
  models::ModelConfig c = models::ModelConfig::Light(
      models::EncoderKind::kLstm, 6, 8, 12);
  c.hidden_dim = 6;
  c.num_heads = 3;
  c.profile_hidden = {8};
  c.head_hidden = {8};
  return c;
}

TEST(NasSearchTest, EndToEndProducesBudgetedModel) {
  data::ScenarioData train_data = TinyScenario();
  NasSearchOptions options;
  options.supernet.num_layers = 2;
  options.search_epochs = 1;
  options.batch_size = 32;
  options.final_train.epochs = 1;
  // A generous budget (predefined light LSTM encoder FLOPs).
  Rng rng(41);
  auto light_ref = models::BuildBaseModel(TinyLightConfig(), &rng);
  options.flops_budget =
      light_ref.value()->behavior_encoder()->Flops(8);
  NasSearchReport report;
  auto model =
      SearchLightModel(TinyLightConfig(), train_data, options, &report);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model.value()->config().encoder, models::EncoderKind::kNas);
  EXPECT_LE(report.encoder_flops, options.flops_budget);
  EXPECT_EQ(report.arch.num_layers(), 2);
  // The model must produce sane predictions.
  data::Batch batch = MakeFullBatch(train_data);
  auto probs = model.value()->PredictProbs(batch);
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(NasSearchTest, ArchitectureStepStartsWithTheWeightStepsLiveBytes) {
  // Each step's weight half-step drops its batch and graph before the
  // architecture half-step builds its own. The gauge holds the last step's
  // live-bytes difference between the two half-steps' starts.
  data::ScenarioData train_data = TinyScenario();
  NasSearchOptions options;
  options.supernet.num_layers = 2;
  options.search_epochs = 2;
  options.batch_size = 32;
  options.final_train.epochs = 1;
  obs::Gauge* carry = obs::MetricsRegistry::Global().gauge(
      "nas/nas_search/weight_step_carry_bytes");
  carry->Set(-1.0);
  ASSERT_TRUE(
      SearchLightModel(TinyLightConfig(), train_data, options, nullptr).ok());
  EXPECT_EQ(carry->value(), 0.0);
}

TEST(NasSearchTest, BuildModelRoundTripsNasConfig) {
  Rng rng(42);
  models::ModelConfig config = TinyLightConfig();
  config.encoder = models::EncoderKind::kNas;
  config.nas_arch = SmallArch(config.hidden_dim).ToJson();
  auto model = BuildModel(config, &rng);
  ASSERT_TRUE(model.ok());
  auto clone = CloneModel(model.value().get(), &rng);
  ASSERT_TRUE(clone.ok());
  data::Batch batch = MakeFullBatch(TinyScenario());
  auto p1 = model.value()->PredictProbs(batch);
  auto p2 = clone.value()->PredictProbs(batch);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
}

TEST(NasSearchTest, BuildModelRejectsMissingArch) {
  Rng rng(43);
  models::ModelConfig config = TinyLightConfig();
  config.encoder = models::EncoderKind::kNas;
  EXPECT_FALSE(BuildModel(config, &rng).ok());
  config.nas_arch = SmallArch(99).ToJson();  // Wrong dim.
  EXPECT_FALSE(BuildModel(config, &rng).ok());
}

TEST(NasSearchTest, TooFewSamplesRejected) {
  data::ScenarioData tiny;
  tiny.profile_dim = 6;
  tiny.seq_len = 8;
  NasSearchOptions options;
  EXPECT_FALSE(
      SearchLightModel(TinyLightConfig(), tiny, options, nullptr).ok());
}

}  // namespace
}  // namespace nas
}  // namespace alt
