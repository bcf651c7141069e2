#ifndef ALT_SRC_DATA_SYNTHETIC_H_
#define ALT_SRC_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"

namespace alt {
namespace data {

/// Configuration of the synthetic long-tail workload generator.
///
/// The generator substitutes for the paper's proprietary datasets (risk
/// control / advertising). It produces a family of related scenarios that
/// share a global ground-truth concept with per-scenario perturbations, so
/// the experimental *shapes* of the paper hold by construction:
///  - scenarios share structure => meta-learning (MeH) transfers;
///  - behavior sequences carry both value and *order* signal => sequence
///    encoders beat profile-only models (Table VII);
///  - small scenarios benefit most from transfer (Tables III/IV).
struct SyntheticConfig {
  int64_t num_scenarios = 8;
  int64_t profile_dim = 16;
  int64_t seq_len = 16;
  int64_t vocab_size = 40;
  /// Per-scenario sample counts; resized to num_scenarios (default 500).
  std::vector<int64_t> scenario_sizes;

  /// How far each scenario's concept deviates from the shared concept.
  /// 0 = identical scenarios; large values destroy transfer.
  double divergence = 0.35;
  /// Probability of flipping a label (irreducible noise).
  double label_noise = 0.05;
  /// Relative weight of the profile and sequence parts of the true score.
  double profile_signal = 1.0;
  double seq_signal = 1.0;
  /// Weight of the order-sensitive motif term within the sequence part.
  double motif_signal = 1.0;
  /// Number of ordered event-pair motifs in the ground truth.
  int64_t num_motifs = 4;
  /// Logit scale; larger => cleaner labels => higher achievable AUC.
  double score_scale = 1.6;

  uint64_t seed = 42;
};

/// Generates scenario datasets from a shared ground-truth concept. Each
/// scenario is deterministic given (seed, scenario_id) and independent of
/// how many scenarios are generated.
class SyntheticGenerator {
 public:
  explicit SyntheticGenerator(SyntheticConfig config);

  const SyntheticConfig& config() const { return config_; }

  /// Generates scenario `scenario_id`'s dataset (0-based).
  ScenarioData GenerateScenario(int64_t scenario_id) const;

  /// Generates `count` extra samples for a scenario from the same
  /// distribution with a distinct stream (used by the online simulator).
  ScenarioData GenerateExtra(int64_t scenario_id, int64_t count,
                             uint64_t stream) const;

  /// All scenarios in id order.
  std::vector<ScenarioData> GenerateAll() const;

  /// Ground-truth probability for a sample (exposed for tests and for the
  /// online CTR simulator).
  double TrueProbability(int64_t scenario_id, const float* profile,
                         const int64_t* behavior) const;

 private:
  struct ScenarioConcept {
    std::vector<float> profile_weights;   // [P]
    std::vector<float> event_values;      // [V]
    std::vector<double> event_logits;     // [V] sampling distribution
    float bias = 0.0f;
  };

  ScenarioConcept ConceptFor(int64_t scenario_id) const;
  /// TrueProbability's body, for a concept built once per call site.
  double ProbabilityFor(const ScenarioConcept& sc, const float* profile,
                        const int64_t* behavior) const;
  ScenarioData GenerateWithRng(int64_t scenario_id, int64_t count,
                               Rng* rng) const;

  SyntheticConfig config_;
  // Shared ground truth (same for all scenarios).
  std::vector<float> shared_profile_weights_;
  std::vector<float> shared_event_values_;
  std::vector<double> shared_event_logits_;
  std::vector<std::pair<int64_t, int64_t>> motifs_;  // ordered (a, b) pairs
};

/// The paper's Dataset A (risk control, 18 scenarios, 69 profile attributes,
/// behavior length 128 — Table I), scaled by `scale` with a per-scenario
/// floor of `min_size`, and sequence length reduced to `seq_len` for CPU
/// runtime. Pass scale = 1 and seq_len = 128 for paper-sized data.
SyntheticConfig DatasetAConfig(double scale = 0.002, int64_t seq_len = 16,
                               int64_t min_size = 120);

/// The paper's Dataset B (advertising, 32 scenarios, 104 profile
/// attributes — Table II; the last two sizes are interpolated because the
/// published table is partially garbled).
SyntheticConfig DatasetBConfig(double scale = 0.004, int64_t seq_len = 16,
                               int64_t min_size = 100);

/// The paper's raw per-scenario sample counts.
const std::vector<int64_t>& DatasetASizes();
const std::vector<int64_t>& DatasetBSizes();

}  // namespace data
}  // namespace alt

#endif  // ALT_SRC_DATA_SYNTHETIC_H_
