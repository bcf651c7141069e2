#include "src/data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace alt {
namespace data {

namespace {

double Sigmoid(double z) {
  return z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                  : std::exp(z) / (1.0 + std::exp(z));
}

/// First index of `value` in [ids, ids+len), or -1.
int64_t FirstIndexOf(const int64_t* ids, int64_t len, int64_t value) {
  for (int64_t t = 0; t < len; ++t) {
    if (ids[t] == value) return t;
  }
  return -1;
}

}  // namespace

SyntheticGenerator::SyntheticGenerator(SyntheticConfig config)
    : config_(std::move(config)) {
  ALT_CHECK_GE(config_.num_scenarios, 1);
  ALT_CHECK_GE(config_.profile_dim, 1);
  ALT_CHECK_GE(config_.seq_len, 2);
  ALT_CHECK_GE(config_.vocab_size, 4);
  config_.scenario_sizes.resize(static_cast<size_t>(config_.num_scenarios),
                                500);

  // Shared concept, deterministic in the seed alone.
  Rng rng(config_.seed);
  shared_profile_weights_.resize(static_cast<size_t>(config_.profile_dim));
  for (float& w : shared_profile_weights_) {
    w = static_cast<float>(rng.Normal());
  }
  shared_event_values_.resize(static_cast<size_t>(config_.vocab_size));
  for (float& v : shared_event_values_) {
    v = static_cast<float>(rng.Normal());
  }
  shared_event_logits_.resize(static_cast<size_t>(config_.vocab_size));
  for (double& l : shared_event_logits_) l = rng.Normal(0.0, 0.8);

  // Ordered motif pairs (a before b raises the score; b before a lowers it).
  for (int64_t m = 0; m < config_.num_motifs; ++m) {
    int64_t a = rng.UniformInt(0, config_.vocab_size - 1);
    int64_t b = rng.UniformInt(0, config_.vocab_size - 1);
    while (b == a) b = rng.UniformInt(0, config_.vocab_size - 1);
    motifs_.emplace_back(a, b);
  }
}

SyntheticGenerator::ScenarioConcept SyntheticGenerator::ConceptFor(
    int64_t scenario_id) const {
  // Scenario concept depends only on (seed, scenario_id).
  Rng rng(config_.seed * 1000003ULL +
          static_cast<uint64_t>(scenario_id) * 7919ULL + 17ULL);
  ScenarioConcept sc;
  const float div = static_cast<float>(config_.divergence);
  sc.profile_weights = shared_profile_weights_;
  for (float& w : sc.profile_weights) {
    w += div * static_cast<float>(rng.Normal());
  }
  sc.event_values = shared_event_values_;
  for (float& v : sc.event_values) {
    v += div * static_cast<float>(rng.Normal());
  }
  sc.event_logits = shared_event_logits_;
  for (double& l : sc.event_logits) l += 0.5 * rng.Normal();
  sc.bias = static_cast<float>(rng.Normal(0.0, 0.3));
  return sc;
}

double SyntheticGenerator::TrueProbability(int64_t scenario_id,
                                           const float* profile,
                                           const int64_t* behavior) const {
  return ProbabilityFor(ConceptFor(scenario_id), profile, behavior);
}

double SyntheticGenerator::ProbabilityFor(const ScenarioConcept& sc,
                                          const float* profile,
                                          const int64_t* behavior) const {
  const int64_t p_dim = config_.profile_dim;
  const int64_t t_len = config_.seq_len;

  double profile_term = 0.0;
  for (int64_t j = 0; j < p_dim; ++j) {
    profile_term += profile[j] * sc.profile_weights[static_cast<size_t>(j)];
  }
  profile_term /= std::sqrt(static_cast<double>(p_dim));

  // Recency-weighted event-value term.
  double value_term = 0.0;
  for (int64_t t = 0; t < t_len; ++t) {
    const double recency =
        0.5 + static_cast<double>(t) / static_cast<double>(t_len);
    value_term +=
        sc.event_values[static_cast<size_t>(behavior[t])] * recency;
  }
  value_term /= static_cast<double>(t_len);

  // Order-sensitive motif term: +1 if a occurs before b, -1 if after.
  double motif_term = 0.0;
  for (const auto& [a, b] : motifs_) {
    const int64_t pa = FirstIndexOf(behavior, t_len, a);
    const int64_t pb = FirstIndexOf(behavior, t_len, b);
    if (pa >= 0 && pb >= 0) motif_term += (pa < pb) ? 1.0 : -1.0;
  }
  motif_term /= static_cast<double>(motifs_.size());

  const double score =
      config_.profile_signal * profile_term +
      config_.seq_signal * (value_term + config_.motif_signal * motif_term) +
      sc.bias;
  return Sigmoid(config_.score_scale * score);
}

ScenarioData SyntheticGenerator::GenerateWithRng(int64_t scenario_id,
                                                 int64_t count,
                                                 Rng* rng) const {
  const ScenarioConcept sc = ConceptFor(scenario_id);
  const int64_t p_dim = config_.profile_dim;
  const int64_t t_len = config_.seq_len;

  // Event sampling distribution from scenario logits.
  std::vector<double> event_probs(static_cast<size_t>(config_.vocab_size));
  double max_logit = sc.event_logits[0];
  for (double l : sc.event_logits) max_logit = std::max(max_logit, l);
  double total = 0.0;
  for (size_t v = 0; v < event_probs.size(); ++v) {
    event_probs[v] = std::exp(sc.event_logits[v] - max_logit);
    total += event_probs[v];
  }
  for (double& p : event_probs) p /= total;
  const CategoricalTable events(event_probs);

  ScenarioData out;
  out.scenario_id = scenario_id;
  out.profile_dim = p_dim;
  out.seq_len = t_len;
  out.profiles = Tensor({count, p_dim});
  out.behaviors.resize(static_cast<size_t>(count * t_len));
  out.labels.resize(static_cast<size_t>(count));

  // Small scenario-specific mean shift for the profile features.
  std::vector<float> mean_shift(static_cast<size_t>(p_dim));
  {
    Rng shift_rng(config_.seed * 65537ULL +
                  static_cast<uint64_t>(scenario_id) * 131ULL + 5ULL);
    for (float& m : mean_shift) {
      m = 0.2f * static_cast<float>(shift_rng.Normal());
    }
  }

  for (int64_t i = 0; i < count; ++i) {
    float* prow = out.profiles.data() + i * p_dim;
    for (int64_t j = 0; j < p_dim; ++j) {
      prow[j] = mean_shift[static_cast<size_t>(j)] +
                static_cast<float>(rng->Normal());
    }
    int64_t* brow = out.behaviors.data() + i * t_len;
    for (int64_t t = 0; t < t_len; ++t) {
      brow[t] = static_cast<int64_t>(events.Sample(rng));
    }
    const double p = ProbabilityFor(sc, prow, brow);
    bool label = rng->Bernoulli(p);
    if (rng->Bernoulli(config_.label_noise)) label = !label;
    out.labels[static_cast<size_t>(i)] = label ? 1.0f : 0.0f;
  }
  return out;
}

ScenarioData SyntheticGenerator::GenerateScenario(int64_t scenario_id) const {
  ALT_CHECK_GE(scenario_id, 0);
  ALT_CHECK_LT(scenario_id, config_.num_scenarios);
  Rng rng(config_.seed * 48611ULL +
          static_cast<uint64_t>(scenario_id) * 2654435761ULL + 3ULL);
  return GenerateWithRng(
      scenario_id, config_.scenario_sizes[static_cast<size_t>(scenario_id)],
      &rng);
}

ScenarioData SyntheticGenerator::GenerateExtra(int64_t scenario_id,
                                               int64_t count,
                                               uint64_t stream) const {
  Rng rng(config_.seed * 92821ULL +
          static_cast<uint64_t>(scenario_id) * 15485863ULL + stream * 31ULL +
          11ULL);
  return GenerateWithRng(scenario_id, count, &rng);
}

std::vector<ScenarioData> SyntheticGenerator::GenerateAll() const {
  std::vector<ScenarioData> out;
  out.reserve(static_cast<size_t>(config_.num_scenarios));
  for (int64_t s = 0; s < config_.num_scenarios; ++s) {
    out.push_back(GenerateScenario(s));
  }
  return out;
}

const std::vector<int64_t>& DatasetASizes() {
  // Table I of the paper.
  static const std::vector<int64_t>* kSizes = new std::vector<int64_t>{
      1202739, 930438, 890908, 875692, 530441, 242858, 93892, 88084, 84466,
      69647,   62134,  61869,  61214,  51506,  47219,  46596, 28643, 19973};
  return *kSizes;
}

const std::vector<int64_t>& DatasetBSizes() {
  // Table II of the paper. The published table is partially garbled by OCR;
  // 30 sizes are recoverable and the final two small scenarios are
  // interpolated (documented in DESIGN.md).
  static const std::vector<int64_t>* kSizes = new std::vector<int64_t>{
      221003, 139043, 122863, 113160, 103506, 102792, 97333, 91394,
      79890,  60877,  60731,  54548,  45570,  43615,  32893, 30505,
      26861,  22340,  17256,  16294,  13108,  12143,  7677,  4825,
      4321,   3430,   2870,   1574,   976,    493,    2200,  1200};
  return *kSizes;
}

namespace {

std::vector<int64_t> ScaledSizes(const std::vector<int64_t>& sizes,
                                 double scale, int64_t min_size) {
  std::vector<int64_t> out;
  out.reserve(sizes.size());
  for (int64_t s : sizes) {
    out.push_back(std::max<int64_t>(
        min_size, static_cast<int64_t>(std::llround(s * scale))));
  }
  return out;
}

}  // namespace

SyntheticConfig DatasetAConfig(double scale, int64_t seq_len,
                               int64_t min_size) {
  SyntheticConfig config;
  config.num_scenarios = static_cast<int64_t>(DatasetASizes().size());
  config.profile_dim = 69;  // Table I description: 69 profile attributes.
  config.seq_len = seq_len;
  // A smaller vocabulary and a stronger sequence term keep the behavior
  // signal learnable at reduced sequence lengths: with vocab 30 a motif
  // event appears in a length-16 sequence with probability ~0.42, so the
  // order-sensitive term fires regularly (matches the paper's setting where
  // sequences of length 128 carry substantial signal, Table VII).
  config.vocab_size = 30;
  config.seq_signal = 2.0;
  config.motif_signal = 1.5;
  config.num_motifs = 6;
  config.scenario_sizes = ScaledSizes(DatasetASizes(), scale, min_size);
  config.seed = 20230403;
  return config;
}

SyntheticConfig DatasetBConfig(double scale, int64_t seq_len,
                               int64_t min_size) {
  SyntheticConfig config;
  config.num_scenarios = static_cast<int64_t>(DatasetBSizes().size());
  config.profile_dim = 104;  // 104 profile attributes per the paper.
  config.seq_len = seq_len;
  config.vocab_size = 30;
  config.seq_signal = 2.0;
  config.motif_signal = 1.5;
  config.num_motifs = 6;
  config.scenario_sizes = ScaledSizes(DatasetBSizes(), scale, min_size);
  config.divergence = 0.45;  // Advertising scenarios are more heterogeneous.
  config.seed = 20230404;
  return config;
}

}  // namespace data
}  // namespace alt
