#ifndef ALT_BENCH_BENCH_COMMON_H_
#define ALT_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/onboard.h"
#include "src/data/synthetic.h"
#include "src/feature/data_preparation.h"
#include "src/meta/meta_learner.h"
#include "src/models/model_config.h"

namespace alt {
namespace bench {

/// Minimal --flag=value / --flag value command-line parser shared by the
/// benchmark binaries.
class Flags {
 public:
  Flags(int argc, char** argv);

  double GetDouble(const std::string& name, double default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Which of the paper's synthetic dataset analogues to use.
enum class Workload { kDatasetA, kDatasetB };

/// Shared setup of the evaluation-section experiments.
struct BenchOptions {
  Workload workload = Workload::kDatasetA;
  /// Sample-size scale relative to the paper's Tables I/II.
  double scale = 1.0 / 600.0;
  int64_t min_scenario_size = 200;
  int64_t seq_len = 16;
  /// Number of randomly selected initial scenarios (paper: 8).
  int64_t initial_count = 8;
  /// Training epochs (paper: 5).
  int64_t epochs = 4;
  int64_t batch_size = 64;
  /// Learning rate. The paper uses 1e-3 over millions of samples; our
  /// workloads are ~500x smaller, so the default is scaled up accordingly.
  float learning_rate = 0.01f;
  int64_t nas_search_epochs = 4;
  int64_t nas_layers = 3;
  uint64_t seed = 2023;

  /// Reads --full, --scale, --seq_len, --initial, --epochs, --lr,
  /// --nas_epochs, --nas_layers and --seed from flags. --full=1 switches to
  /// paper-sized sequences (128), a larger sample scale, 5 epochs and lr
  /// 1e-3; the other flags then override those.
  void ApplyFlags(const Flags& flags);

  data::SyntheticConfig MakeDataConfig() const;
  models::ModelConfig HeavyConfig(models::EncoderKind kind) const;
  models::ModelConfig LightConfig(models::EncoderKind kind) const;
  /// f0's training and each scenario's Eq. 1 fine-tune (half the epochs).
  meta::MetaOptions MakeMetaOptions() const;
  /// Onboarding onto `light_config`: the NAS settings above, its Eq. 4
  /// budget (core::LightEncoderFlops), and the light models' training.
  /// MeL is off; benches that report it turn it on.
  core::OnboardOptions MakeOnboardOptions(
      const models::ModelConfig& light_config) const;
};

/// One prepared scenario: processed train/test parts.
struct PreparedScenario {
  int64_t scenario_id = 0;
  data::ScenarioData train;
  data::ScenarioData test;
};

/// Generates and prepares every scenario of the workload.
std::vector<PreparedScenario> PrepareWorkload(const BenchOptions& options);

/// Random distinct initial-scenario indices (paper: 8 random of N).
std::vector<int64_t> PickInitialScenarios(const BenchOptions& options,
                                          int64_t num_scenarios,
                                          uint64_t repeat = 0);

/// A meta learner for `encoder` with MakeMetaOptions(), f0 built by
/// core::InitializeAgnostic from the `initial` scenarios' train parts.
std::unique_ptr<meta::MetaLearner> InitializeLearner(
    const BenchOptions& options,
    const std::vector<PreparedScenario>& scenarios,
    const std::vector<int64_t>& initial, models::EncoderKind encoder);

/// Per-scenario AUC of the four compared strategies (Sec. V-A2).
struct StrategyResults {
  std::vector<double> sinh;  // Single-Heavy
  std::vector<double> meh;   // Meta-Heavy
  std::vector<double> mel;   // Meta-Light (predefined light + distill)
  std::vector<double> ours;  // budget-limited NAS light + distill
};

/// Which strategies to run (all four by default).
struct StrategySet {
  bool run_sinh = true;
  /// MeH, MeL and Ours: one core::OnboardScenario per scenario.
  bool run_meta = true;
};

/// Runs the full comparison of Sec. V-B1 for one encoder family.
StrategyResults RunStrategies(const BenchOptions& options,
                              const std::vector<PreparedScenario>& scenarios,
                              const std::vector<int64_t>& initial,
                              models::EncoderKind encoder,
                              const StrategySet& set = StrategySet());

/// Mean of a vector (0 when empty).
double Mean(const std::vector<double>& values);

/// Monotonic wall-clock seconds since an arbitrary epoch. Benchmark timing
/// only — production telemetry must go through src/obs (ScopedTimerMs /
/// TraceSpan), which has one off switch (ALT_OBS).
double MonotonicSeconds();

}  // namespace bench
}  // namespace alt

#endif  // ALT_BENCH_BENCH_COMMON_H_
