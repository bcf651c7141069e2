#ifndef ALT_SRC_DATA_DATASET_H_
#define ALT_SRC_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace alt {
namespace data {

/// Columnar storage for one scenario's samples: a profile feature matrix, a
/// behavior-sequence id matrix, and binary labels. This mirrors the paper's
/// sample structure (Fig. 2): basic profile attributes plus a user behavior
/// sequence of event ids.
struct ScenarioData {
  int64_t scenario_id = 0;
  int64_t profile_dim = 0;
  int64_t seq_len = 0;

  /// [num_samples, profile_dim], row-major.
  Tensor profiles;
  /// Row-major [num_samples, seq_len] event ids.
  std::vector<int64_t> behaviors;
  /// Binary labels, one per sample.
  std::vector<float> labels;
  /// The teacher's predicted probability per sample (Eq. 5's y_soft), or
  /// empty when no teacher scored this scenario.
  std::vector<float> soft_labels;

  int64_t num_samples() const { return static_cast<int64_t>(labels.size()); }

  /// Fraction of positive labels.
  double PositiveRate() const;

  /// A new ScenarioData holding the given row indices (copies).
  ScenarioData Subset(const std::vector<size_t>& indices) const;
};

/// A mini-batch view materialized as dense tensors, ready for the model.
struct Batch {
  Tensor profiles;                 // [B, profile_dim]
  std::vector<int64_t> behaviors;  // row-major [B, seq_len]
  Tensor labels;                   // [B, 1]
  Tensor soft_labels;              // [B, 1]; empty without the column
  int64_t batch_size = 0;
  int64_t seq_len = 0;
};

/// Materializes rows `indices` of `scenario_data` as a Batch.
Batch MakeBatch(const ScenarioData& scenario_data,
                const std::vector<size_t>& indices);

/// Materializes the whole scenario as one batch (used for evaluation).
Batch MakeFullBatch(const ScenarioData& scenario_data);

/// Deterministically splits into (train, test) with `test_fraction` of rows
/// in the test part, after shuffling with `rng`.
std::pair<ScenarioData, ScenarioData> SplitTrainTest(
    const ScenarioData& scenario_data, double test_fraction, Rng* rng);

/// Splits into (support, query) for the meta-learning step (Sec. III-C).
std::pair<ScenarioData, ScenarioData> SplitSupportQuery(
    const ScenarioData& scenario_data, double query_fraction, Rng* rng);

/// Concatenates several scenarios into one pooled dataset (used to
/// initialize the scenario agnostic heavy model).
ScenarioData ConcatScenarios(const std::vector<ScenarioData>& scenarios);

/// Yields shuffled index batches of size `batch_size` covering all rows.
std::vector<std::vector<size_t>> ShuffledBatchIndices(int64_t num_samples,
                                                      int64_t batch_size,
                                                      Rng* rng);

}  // namespace data
}  // namespace alt

#endif  // ALT_SRC_DATA_DATASET_H_
