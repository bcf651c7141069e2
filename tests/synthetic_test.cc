#include "src/data/synthetic.h"

#include <cmath>
#include <cstdint>

#include "gtest/gtest.h"

namespace alt {
namespace data {
namespace {

SyntheticConfig SmallConfig() {
  SyntheticConfig config;
  config.num_scenarios = 4;
  config.profile_dim = 6;
  config.seq_len = 8;
  config.vocab_size = 12;
  config.scenario_sizes = {100, 80, 60, 40};
  config.seed = 99;
  return config;
}

TEST(SyntheticTest, GeneratesRequestedSizes) {
  SyntheticGenerator gen(SmallConfig());
  for (int64_t s = 0; s < 4; ++s) {
    ScenarioData d = gen.GenerateScenario(s);
    EXPECT_EQ(d.num_samples(), SmallConfig().scenario_sizes[(size_t)s]);
    EXPECT_EQ(d.profile_dim, 6);
    EXPECT_EQ(d.seq_len, 8);
    EXPECT_EQ(d.scenario_id, s);
  }
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticGenerator gen1(SmallConfig());
  SyntheticGenerator gen2(SmallConfig());
  ScenarioData a = gen1.GenerateScenario(1);
  ScenarioData b = gen2.GenerateScenario(1);
  for (int64_t i = 0; i < a.profiles.numel(); ++i) {
    EXPECT_EQ(a.profiles[i], b.profiles[i]);
  }
  EXPECT_EQ(a.behaviors, b.behaviors);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticTest, ScenarioIndependentOfCount) {
  // Scenario 2's data must not change when more scenarios exist.
  SyntheticConfig small = SmallConfig();
  SyntheticConfig big = SmallConfig();
  big.num_scenarios = 8;
  big.scenario_sizes = {100, 80, 60, 40, 40, 40, 40, 40};
  ScenarioData a = SyntheticGenerator(small).GenerateScenario(2);
  ScenarioData b = SyntheticGenerator(big).GenerateScenario(2);
  EXPECT_EQ(a.behaviors, b.behaviors);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticTest, BehaviorIdsWithinVocab) {
  SyntheticGenerator gen(SmallConfig());
  ScenarioData d = gen.GenerateScenario(0);
  for (int64_t id : d.behaviors) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 12);
  }
}

TEST(SyntheticTest, LabelsAreNonDegenerate) {
  SyntheticGenerator gen(SmallConfig());
  for (int64_t s = 0; s < 4; ++s) {
    const double rate = gen.GenerateScenario(s).PositiveRate();
    EXPECT_GT(rate, 0.05) << "scenario " << s;
    EXPECT_LT(rate, 0.95) << "scenario " << s;
  }
}

TEST(SyntheticTest, TrueProbabilityInUnitInterval) {
  SyntheticGenerator gen(SmallConfig());
  ScenarioData d = gen.GenerateScenario(0);
  for (int64_t i = 0; i < std::min<int64_t>(20, d.num_samples()); ++i) {
    const double p = gen.TrueProbability(
        0, d.profiles.data() + i * d.profile_dim,
        d.behaviors.data() + i * d.seq_len);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(SyntheticTest, SequenceOrderMattersForSomeSequences) {
  // The motif term is order-sensitive: reversing a sequence must change the
  // true probability for at least some samples (Table VII's premise).
  SyntheticGenerator gen(SmallConfig());
  ScenarioData d = gen.GenerateScenario(0);
  int64_t changed = 0;
  for (int64_t i = 0; i < d.num_samples(); ++i) {
    const int64_t* row = d.behaviors.data() + i * d.seq_len;
    std::vector<int64_t> reversed(row, row + d.seq_len);
    std::reverse(reversed.begin(), reversed.end());
    const double p1 = gen.TrueProbability(
        0, d.profiles.data() + i * d.profile_dim, row);
    const double p2 = gen.TrueProbability(
        0, d.profiles.data() + i * d.profile_dim, reversed.data());
    if (std::abs(p1 - p2) > 1e-6) ++changed;
  }
  EXPECT_GT(changed, d.num_samples() / 10);
}

TEST(SyntheticTest, ProfileCarriesSignal) {
  // Flipping the profile along the scenario's weight direction must move
  // the probability: verify probabilities react to profile changes.
  SyntheticGenerator gen(SmallConfig());
  ScenarioData d = gen.GenerateScenario(1);
  int64_t changed = 0;
  for (int64_t i = 0; i < std::min<int64_t>(50, d.num_samples()); ++i) {
    std::vector<float> negated(
        d.profiles.data() + i * d.profile_dim,
        d.profiles.data() + (i + 1) * d.profile_dim);
    for (float& v : negated) v = -v;
    const double p1 = gen.TrueProbability(
        1, d.profiles.data() + i * d.profile_dim,
        d.behaviors.data() + i * d.seq_len);
    const double p2 = gen.TrueProbability(
        1, negated.data(), d.behaviors.data() + i * d.seq_len);
    if (std::abs(p1 - p2) > 1e-4) ++changed;
  }
  EXPECT_GT(changed, 25);
}

TEST(SyntheticTest, ScenariosShareStructureButDiffer) {
  // Same sample scored under two scenarios' concepts: correlated (shared
  // concept) but not identical (divergence).
  SyntheticGenerator gen(SmallConfig());
  ScenarioData d = gen.GenerateScenario(0);
  int64_t differs = 0;
  for (int64_t i = 0; i < 30; ++i) {
    const double p0 = gen.TrueProbability(
        0, d.profiles.data() + i * d.profile_dim,
        d.behaviors.data() + i * d.seq_len);
    const double p1 = gen.TrueProbability(
        3, d.profiles.data() + i * d.profile_dim,
        d.behaviors.data() + i * d.seq_len);
    if (std::abs(p0 - p1) > 1e-6) ++differs;
  }
  EXPECT_GT(differs, 20);
}

TEST(SyntheticTest, GenerateExtraStreamsDiffer) {
  SyntheticGenerator gen(SmallConfig());
  ScenarioData a = gen.GenerateExtra(0, 50, 1);
  ScenarioData b = gen.GenerateExtra(0, 50, 2);
  ScenarioData a2 = gen.GenerateExtra(0, 50, 1);
  EXPECT_NE(a.behaviors, b.behaviors);
  EXPECT_EQ(a.behaviors, a2.behaviors);  // Same stream reproducible.
}

TEST(SyntheticTest, DatasetPresetsMatchPaperShape) {
  // Dataset A: 18 scenarios, 69 profile attributes (Table I).
  SyntheticConfig a = DatasetAConfig();
  EXPECT_EQ(a.num_scenarios, 18);
  EXPECT_EQ(a.profile_dim, 69);
  EXPECT_EQ(DatasetASizes().size(), 18u);
  EXPECT_EQ(DatasetASizes()[0], 1202739);
  EXPECT_EQ(DatasetASizes()[17], 19973);
  // Sizes must be sorted descending (long-tail shape).
  for (size_t i = 1; i < DatasetASizes().size(); ++i) {
    EXPECT_LE(DatasetASizes()[i], DatasetASizes()[i - 1]);
  }
  // Dataset B: 32 scenarios, 104 profile attributes.
  SyntheticConfig b = DatasetBConfig();
  EXPECT_EQ(b.num_scenarios, 32);
  EXPECT_EQ(b.profile_dim, 104);
  EXPECT_EQ(DatasetBSizes().size(), 32u);
}

TEST(SyntheticTest, ScaledSizesRespectFloor) {
  SyntheticConfig a = DatasetAConfig(/*scale=*/0.0001, /*seq_len=*/8,
                                     /*min_size=*/150);
  for (int64_t size : a.scenario_sizes) EXPECT_GE(size, 150);
  EXPECT_EQ(a.seq_len, 8);
}

/// FNV-1a over `n` bytes, continuing from `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashScenario(uint64_t h, const ScenarioData& d) {
  h = Fnv1a(h, d.profiles.data(),
            sizeof(float) * static_cast<size_t>(d.profiles.numel()));
  h = Fnv1a(h, d.behaviors.data(), sizeof(int64_t) * d.behaviors.size());
  return Fnv1a(h, d.labels.data(), sizeof(float) * d.labels.size());
}

TEST(SyntheticTest, OutputsArePinned) {
  // Every Dataset A scenario and a 300-sample GenerateExtra of each, byte
  // for byte: a change to how samples are drawn must keep every dataset.
  SyntheticGenerator gen(DatasetAConfig());
  uint64_t h = 14695981039346656037ULL;
  for (int64_t s = 0; s < gen.config().num_scenarios; ++s) {
    h = HashScenario(h, gen.GenerateScenario(s));
    h = HashScenario(h, gen.GenerateExtra(s, 300, 1));
  }
  EXPECT_EQ(h, 0xa9e88c4aa28c7e8eULL);
}

TEST(SyntheticTest, GenerateAllReturnsAllScenarios) {
  SyntheticGenerator gen(SmallConfig());
  auto all = gen.GenerateAll();
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(all[3].scenario_id, 3);
}

}  // namespace
}  // namespace data
}  // namespace alt
