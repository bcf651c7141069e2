#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "src/data/dataset.h"
#include "src/data/metrics.h"

namespace alt {
namespace data {
namespace {

/// Row i's soft label in a toy scenario that carries the column.
float ToySoftLabel(int64_t i) { return 0.05f * static_cast<float>(i) + 0.02f; }

/// Row i has profile (10i, 10i + 1, ...), events i % 5 and label 1 for even
/// i; with `soft_labels`, also the soft label ToySoftLabel(i).
ScenarioData MakeToyScenario(int64_t n, bool soft_labels = false) {
  constexpr int64_t p_dim = 3;
  constexpr int64_t t_len = 4;
  ScenarioData d;
  d.scenario_id = 7;
  d.profile_dim = p_dim;
  d.seq_len = t_len;
  d.profiles = Tensor({n, p_dim});
  d.behaviors.resize(static_cast<size_t>(n * t_len));
  d.labels.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < p_dim; ++j) {
      d.profiles.at(i, j) = static_cast<float>(i * 10 + j);
    }
    for (int64_t t = 0; t < t_len; ++t) {
      d.behaviors[static_cast<size_t>(i * t_len + t)] = i % 5;
    }
    d.labels[static_cast<size_t>(i)] = (i % 2 == 0) ? 1.0f : 0.0f;
    if (soft_labels) d.soft_labels.push_back(ToySoftLabel(i));
  }
  return d;
}

TEST(DatasetTest, SubsetCopiesRows) {
  for (bool soft : {false, true}) {
    ScenarioData d = MakeToyScenario(6, soft);
    ScenarioData s = d.Subset({1, 3});
    EXPECT_EQ(s.num_samples(), 2);
    EXPECT_EQ(s.profiles.at(0, 0), 10.0f);
    EXPECT_EQ(s.profiles.at(1, 0), 30.0f);
    EXPECT_EQ(s.behaviors[0], 1);
    EXPECT_EQ(s.labels[1], 0.0f);
    EXPECT_EQ(s.scenario_id, 7);
    const std::vector<float> want =
        soft ? std::vector<float>{ToySoftLabel(1), ToySoftLabel(3)}
             : std::vector<float>();
    EXPECT_EQ(s.soft_labels, want);
  }
}

TEST(DatasetTest, MakeBatchMaterializesRows) {
  for (bool soft : {false, true}) {
    ScenarioData d = MakeToyScenario(5, soft);
    Batch b = MakeBatch(d, {4, 0});
    EXPECT_EQ(b.batch_size, 2);
    EXPECT_EQ(b.profiles.at(0, 1), 41.0f);
    EXPECT_EQ(b.labels.at(0, 0), 1.0f);
    EXPECT_EQ(b.behaviors[0], 4);
    if (soft) {
      ASSERT_TRUE(b.soft_labels.SameShape(b.labels));
      EXPECT_EQ(b.soft_labels.at(0, 0), ToySoftLabel(4));
      EXPECT_EQ(b.soft_labels.at(1, 0), ToySoftLabel(0));
    } else {
      EXPECT_EQ(b.soft_labels.numel(), 0);
    }
  }
}

TEST(DatasetTest, SplitTrainTestPartitionsAll) {
  for (bool soft : {false, true}) {
    ScenarioData d = MakeToyScenario(10, soft);
    Rng rng(1);
    auto [train, test] = SplitTrainTest(d, 0.2, &rng);
    EXPECT_EQ(train.num_samples(), 8);
    EXPECT_EQ(test.num_samples(), 2);
    // Union of first profile column must equal originals, and each row keeps
    // its own label and soft label.
    std::multiset<float> values;
    for (const ScenarioData* part : {&train, &test}) {
      EXPECT_EQ(part->soft_labels.size(),
                soft ? static_cast<size_t>(part->num_samples()) : 0u);
      for (int64_t r = 0; r < part->num_samples(); ++r) {
        const float first = part->profiles.at(r, 0);
        values.insert(first);
        const int64_t i = static_cast<int64_t>(first) / 10;
        EXPECT_EQ(part->labels[static_cast<size_t>(r)],
                  i % 2 == 0 ? 1.0f : 0.0f);
        if (soft) {
          EXPECT_EQ(part->soft_labels[static_cast<size_t>(r)],
                    ToySoftLabel(i));
        }
      }
    }
    EXPECT_EQ(values.size(), 10u);
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(values.count(static_cast<float>(i * 10)), 1u);
    }
  }
}

TEST(DatasetTest, SplitIsDeterministicPerSeed) {
  ScenarioData d = MakeToyScenario(20);
  Rng rng1(5);
  Rng rng2(5);
  auto [a_train, a_test] = SplitTrainTest(d, 0.3, &rng1);
  auto [b_train, b_test] = SplitTrainTest(d, 0.3, &rng2);
  for (int64_t i = 0; i < a_train.num_samples(); ++i) {
    EXPECT_EQ(a_train.profiles.at(i, 0), b_train.profiles.at(i, 0));
  }
}

TEST(DatasetTest, ConcatScenariosStacksRows) {
  ScenarioData a = MakeToyScenario(3);
  ScenarioData b = MakeToyScenario(2);
  ScenarioData pooled = ConcatScenarios({a, b});
  EXPECT_EQ(pooled.num_samples(), 5);
  EXPECT_EQ(pooled.profiles.at(3, 0), 0.0f);  // First row of b.
  EXPECT_EQ(pooled.scenario_id, -1);
}

TEST(DatasetTest, ShuffledBatchIndicesCoverAllOnce) {
  Rng rng(3);
  auto batches = ShuffledBatchIndices(23, 5, &rng);
  EXPECT_EQ(batches.size(), 5u);  // 4 full + 1 remainder of 3.
  EXPECT_EQ(batches.back().size(), 3u);
  std::set<size_t> seen;
  for (const auto& batch : batches) {
    for (size_t i : batch) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 23u);
}

TEST(DatasetTest, PositiveRate) {
  ScenarioData d = MakeToyScenario(4);  // labels 1,0,1,0
  EXPECT_DOUBLE_EQ(d.PositiveRate(), 0.5);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Brute-force AUC: fraction of correctly-ordered (pos, neg) pairs, ties 0.5.
double BruteForceAuc(const std::vector<float>& labels,
                     const std::vector<float>& scores) {
  double correct = 0.0;
  int64_t pairs = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0.5f) continue;
    for (size_t j = 0; j < labels.size(); ++j) {
      if (labels[j] > 0.5f) continue;
      ++pairs;
      if (scores[i] > scores[j]) {
        correct += 1.0;
      } else if (scores[i] == scores[j]) {
        correct += 0.5;
      }
    }
  }
  return pairs == 0 ? 0.5 : correct / static_cast<double>(pairs);
}

TEST(MetricsTest, AucPerfectAndInverted) {
  std::vector<float> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(Auc(labels, {0.1f, 0.2f, 0.8f, 0.9f}), 1.0);
  EXPECT_DOUBLE_EQ(Auc(labels, {0.9f, 0.8f, 0.2f, 0.1f}), 0.0);
}

TEST(MetricsTest, AucHandlesTies) {
  std::vector<float> labels = {0, 1};
  EXPECT_DOUBLE_EQ(Auc(labels, {0.5f, 0.5f}), 0.5);
}

TEST(MetricsTest, AucDegenerateClassesReturnsHalf) {
  EXPECT_DOUBLE_EQ(Auc({1, 1}, {0.1f, 0.9f}), 0.5);
  EXPECT_DOUBLE_EQ(Auc({0, 0}, {0.1f, 0.9f}), 0.5);
}

class AucPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AucPropertyTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int64_t n = 30 + GetParam() * 7;
  std::vector<float> labels(static_cast<size_t>(n));
  std::vector<float> scores(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
    // Quantized scores force tie handling.
    scores[static_cast<size_t>(i)] =
        static_cast<float>(rng.UniformInt(0, 9)) / 10.0f;
  }
  EXPECT_NEAR(Auc(labels, scores), BruteForceAuc(labels, scores), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucPropertyTest, ::testing::Range(0, 8));

TEST(MetricsTest, LogLossAndAccuracy) {
  std::vector<float> labels = {1, 0};
  std::vector<float> probs = {0.9f, 0.2f};
  EXPECT_NEAR(LogLoss(labels, probs),
              (-std::log(0.9) - std::log(0.8)) / 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(Accuracy(labels, probs), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(labels, {0.2f, 0.9f}), 0.0);
}

TEST(MetricsTest, LogLossClampsExtremes) {
  EXPECT_TRUE(std::isfinite(LogLoss({1.0f}, {0.0f})));
}

}  // namespace
}  // namespace data
}  // namespace alt
