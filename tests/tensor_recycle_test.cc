// Tensor storage recycling (obs::ScopedTensorRecycling): which buffers a
// scope keeps, when it lets them go, the bound on what it holds, and that
// a fixed-shape training run, distilled or not, reuses every large buffer
// after its first step.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/synthetic.h"
#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/tensor/tensor.h"
#include "src/train/trainer.h"
#include "src/util/rng.h"

namespace alt {
namespace {

using obs::MemoryTracker;
using obs::ScopedTensorRecycling;

/// Floats in one page-sized buffer, the smallest a scope keeps.
constexpr int64_t kPageFloats =
    static_cast<int64_t>(obs::kRecycleMinBytes / sizeof(float));

/// Deltas of the tracker's recycling counters since construction.
struct RecycleDelta {
  MemoryTracker& tracker = MemoryTracker::Global();
  int64_t hits0 = tracker.recycle_hits();
  int64_t misses0 = tracker.recycle_misses();
  int64_t kept0 = tracker.recycled_bytes();
  int64_t hits() const { return tracker.recycle_hits() - hits0; }
  int64_t misses() const { return tracker.recycle_misses() - misses0; }
  int64_t kept() const { return tracker.recycled_bytes() - kept0; }
};

class TensorRecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!MemoryTracker::Global().enabled()) {
      GTEST_SKIP() << "the recycling counters need the memory tracker";
    }
  }
};

TEST_F(TensorRecycleTest, FreedBufferComesBackZeroedForTheSameSize) {
  RecycleDelta delta;
  ScopedTensorRecycling scope;
  ASSERT_TRUE(ScopedTensorRecycling::active());
  const float* first = nullptr;
  {
    Tensor t({2, kPageFloats});
    t.Fill(7.0f);
    first = t.data();
  }
  EXPECT_EQ(delta.kept(), 2 * kPageFloats * 4);
  Tensor again({kPageFloats, 2});
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(delta.hits(), 1);
  EXPECT_EQ(delta.misses(), 1);  // The first tensor's own request.
  EXPECT_EQ(delta.kept(), 0);
  for (int64_t i = 0; i < again.numel(); ++i) ASSERT_EQ(again[i], 0.0f);
}

TEST_F(TensorRecycleTest, MissReleasesEveryKeptBufferAndTheScopeTheRest) {
  RecycleDelta delta;
  {
    ScopedTensorRecycling outer;
    {
      ScopedTensorRecycling inner;
      {
        Tensor a({kPageFloats});
        Tensor b({2 * kPageFloats});
        Tensor c({2 * kPageFloats});
      }
      EXPECT_EQ(delta.misses(), 3);
      EXPECT_EQ(delta.kept(), 5 * kPageFloats * 4);
      // No kept buffer has 3 pages: every kept one goes back to the heap.
      Tensor d({3 * kPageFloats});
      EXPECT_EQ(delta.misses(), 4);
      EXPECT_EQ(delta.kept(), 0);
    }
    // d is kept, and closing a nested scope releases nothing.
    EXPECT_EQ(delta.kept(), 3 * kPageFloats * 4);
    EXPECT_TRUE(ScopedTensorRecycling::active());
  }
  EXPECT_EQ(delta.kept(), 0);
  EXPECT_FALSE(ScopedTensorRecycling::active());
  EXPECT_EQ(delta.hits(), 0);
}

TEST_F(TensorRecycleTest, OutsideAScopeOrBelowAPageBuffersGoToTheHeap) {
  RecycleDelta delta;
  ASSERT_FALSE(ScopedTensorRecycling::active());
  for (int i = 0; i < 3; ++i) Tensor t({4 * kPageFloats});
  EXPECT_EQ(delta.kept(), 0);
  EXPECT_EQ(delta.hits(), 0);
  EXPECT_EQ(delta.misses(), 0);
  ScopedTensorRecycling scope;
  for (int i = 0; i < 3; ++i) Tensor t({kPageFloats - 1});
  EXPECT_EQ(delta.kept(), 0);
  EXPECT_EQ(delta.hits(), 0);
  EXPECT_EQ(delta.misses(), 0);
}

TEST_F(TensorRecycleTest, KeptPlusLiveNeverExceedsTheScopesLivePeak) {
  RecycleDelta delta;
  Rng rng(2024);
  const int64_t sizes[] = {kPageFloats, 2 * kPageFloats, 3 * kPageFloats,
                           5 * kPageFloats, 8 * kPageFloats};
  int64_t live = 0;
  int64_t peak = 0;
  int64_t hits_seen = 0;
  {
    ScopedTensorRecycling scope;
    std::vector<Tensor> held;
    for (int op = 0; op < 4000; ++op) {
      // Steps of a loop: mostly sizes the loop used before, growing and
      // shrinking the live set in bursts.
      const bool alloc = held.empty() || rng.Uniform(0.0, 1.0) < 0.55;
      if (alloc) {
        const int64_t n = sizes[rng.UniformInt(0, 4)];
        held.emplace_back(std::vector<int64_t>{n});
        live += n * 4;
      } else {
        const size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
        live -= held[victim].numel() * 4;
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      peak = std::max(peak, live);
      ASSERT_LE(delta.kept() + live, peak) << "after op " << op;
    }
    hits_seen = delta.hits();
  }
  EXPECT_GT(hits_seen, 100);
  EXPECT_GT(delta.misses(), 0);
  EXPECT_EQ(delta.kept(), 0);
}

TEST_F(TensorRecycleTest, ScopesArePerThread) {
  // Three threads recycle in their own scopes and hand one buffer each to
  // the main thread, which frees it outside any scope.
  std::vector<Tensor> handed(3);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < handed.size(); ++i) {
    threads.emplace_back([&handed, i]() {
      ScopedTensorRecycling scope;
      const float* first = nullptr;
      for (int step = 0; step < 20; ++step) {
        Tensor a({kPageFloats * static_cast<int64_t>(i + 1)});
        if (step == 0) first = a.data();
        EXPECT_EQ(a.data(), first);
        a.Fill(static_cast<float>(step));
      }
      handed[i] = Tensor({kPageFloats});
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(ScopedTensorRecycling::active());
  handed.clear();
}

TEST_F(TensorRecycleTest, CountersAreExported) {
  {
    ScopedTensorRecycling scope;
    for (int i = 0; i < 4; ++i) Tensor t({3 * kPageFloats});
  }
  MemoryTracker& tracker = MemoryTracker::Global();
  obs::MetricsRegistry registry;
  tracker.PublishTo(&registry);
  EXPECT_EQ(registry.gauge_value("memory/tensor/recycled_bytes"),
            static_cast<double>(tracker.recycled_bytes_peak()));
  EXPECT_GE(tracker.recycled_bytes_peak(), 3 * kPageFloats * 4);
  EXPECT_EQ(registry.gauge_value("memory/tensor/recycle_hits_total"),
            static_cast<double>(tracker.recycle_hits()));
  EXPECT_GE(tracker.recycle_hits(), 3);
  EXPECT_EQ(registry.gauge_value("memory/tensor/recycle_misses_total"),
            static_cast<double>(tracker.recycle_misses()));
  EXPECT_GE(tracker.recycle_misses(), 1);
}

data::SyntheticConfig FixedShapeData(int64_t samples) {
  data::SyntheticConfig config;
  config.num_scenarios = 1;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {samples};
  config.seed = 5;
  return config;
}

/// Requests of a page or more that a TrainModel run served from the heap.
/// With `distill_delta` > 0 the student is distilled (Eq. 5) from a
/// soft-label column that a BERT teacher, whose tensors have other sizes
/// than the LSTM student's, scored before the run.
int64_t TrainingMisses(int64_t steps, int64_t epochs,
                       float distill_delta = 0.0f) {
  constexpr int64_t kBatch = 32;
  data::SyntheticGenerator gen(FixedShapeData(steps * kBatch));
  data::ScenarioData train_data = gen.GenerateScenario(0);
  models::ModelConfig config =
      models::ModelConfig::Heavy(models::EncoderKind::kLstm, 6, 8, 12);
  config.encoder_layers = 2;
  Rng rng(1);
  auto model = models::BuildBaseModel(config, &rng);
  EXPECT_TRUE(model.ok());
  if (distill_delta > 0.0f) {
    models::ModelConfig teacher_config = config;
    teacher_config.encoder = models::EncoderKind::kBert;
    auto teacher = models::BuildBaseModel(teacher_config, &rng);
    EXPECT_TRUE(teacher.ok());
    train_data.soft_labels =
        train::Predict(teacher.value().get(), train_data, 64);
  }
  train::TrainOptions options;
  options.epochs = epochs;
  options.batch_size = kBatch;
  RecycleDelta delta;
  EXPECT_TRUE(train::TrainModel(model.value().get(), train_data, options,
                                distill_delta)
                  .ok());
  EXPECT_EQ(delta.kept(), 0);
  return delta.misses();
}

TEST_F(TensorRecycleTest, FixedShapeTrainingTakesNoFreshBufferAfterItsFirstStep) {
  // The first run in a process also grows the thread's scratch arena.
  TrainingMisses(1, 1);
  // A distilled student reads its soft labels from the batch, so it
  // recycles as hard-label training does.
  for (float distill_delta : {0.0f, 1.0f}) {
    const int64_t first_step = TrainingMisses(1, 1, distill_delta);
    EXPECT_GT(first_step, 0);
    EXPECT_EQ(TrainingMisses(4, 2, distill_delta), first_step)
        << "distill_delta " << distill_delta;
  }
}

#if defined(__SANITIZE_ADDRESS__)
TEST_F(TensorRecycleTest, KeptBufferIsPoisonedUntilReused) {
  auto read_after_free = []() {
    ScopedTensorRecycling scope;
    const float* stale = nullptr;
    {
      Tensor t({kPageFloats});
      stale = t.data();
    }
    volatile float v = stale[3];
    (void)v;
  };
  EXPECT_DEATH(read_after_free(), "AddressSanitizer: use-after-poison");
}
#endif

}  // namespace
}  // namespace alt
