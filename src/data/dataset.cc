#include "src/data/dataset.h"

#include <algorithm>

#include "src/util/logging.h"

namespace alt {
namespace data {

double ScenarioData::PositiveRate() const {
  if (labels.empty()) return 0.0;
  double total = 0.0;
  for (float y : labels) total += y;
  return total / static_cast<double>(labels.size());
}

ScenarioData ScenarioData::Subset(const std::vector<size_t>& indices) const {
  ScenarioData out;
  out.scenario_id = scenario_id;
  out.profile_dim = profile_dim;
  out.seq_len = seq_len;
  ALT_CHECK(soft_labels.empty() || soft_labels.size() == labels.size());
  const int64_t n = static_cast<int64_t>(indices.size());
  out.profiles = Tensor({n, profile_dim});
  out.behaviors.resize(static_cast<size_t>(n * seq_len));
  out.labels.resize(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    const size_t src = indices[static_cast<size_t>(r)];
    ALT_CHECK_LT(static_cast<int64_t>(src), num_samples());
    for (int64_t j = 0; j < profile_dim; ++j) {
      out.profiles.at(r, j) = profiles.at(static_cast<int64_t>(src), j);
    }
    for (int64_t t = 0; t < seq_len; ++t) {
      out.behaviors[static_cast<size_t>(r * seq_len + t)] =
          behaviors[src * static_cast<size_t>(seq_len) +
                    static_cast<size_t>(t)];
    }
    out.labels[static_cast<size_t>(r)] = labels[src];
  }
  if (!soft_labels.empty()) {
    for (size_t src : indices) out.soft_labels.push_back(soft_labels[src]);
  }
  return out;
}

Batch MakeBatch(const ScenarioData& scenario_data,
                const std::vector<size_t>& indices) {
  Batch batch;
  batch.batch_size = static_cast<int64_t>(indices.size());
  batch.seq_len = scenario_data.seq_len;
  batch.profiles = Tensor({batch.batch_size, scenario_data.profile_dim});
  batch.behaviors.resize(
      static_cast<size_t>(batch.batch_size * batch.seq_len));
  batch.labels = Tensor({batch.batch_size, 1});
  const bool soft = !scenario_data.soft_labels.empty();
  ALT_CHECK(!soft || scenario_data.soft_labels.size() ==
                         scenario_data.labels.size());
  if (soft) batch.soft_labels = Tensor({batch.batch_size, 1});
  for (int64_t r = 0; r < batch.batch_size; ++r) {
    const size_t src = indices[static_cast<size_t>(r)];
    for (int64_t j = 0; j < scenario_data.profile_dim; ++j) {
      batch.profiles.at(r, j) =
          scenario_data.profiles.at(static_cast<int64_t>(src), j);
    }
    for (int64_t t = 0; t < batch.seq_len; ++t) {
      batch.behaviors[static_cast<size_t>(r * batch.seq_len + t)] =
          scenario_data
              .behaviors[src * static_cast<size_t>(batch.seq_len) +
                         static_cast<size_t>(t)];
    }
    batch.labels.at(r, 0) = scenario_data.labels[src];
    if (soft) batch.soft_labels.at(r, 0) = scenario_data.soft_labels[src];
  }
  return batch;
}

Batch MakeFullBatch(const ScenarioData& scenario_data) {
  std::vector<size_t> indices(
      static_cast<size_t>(scenario_data.num_samples()));
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return MakeBatch(scenario_data, indices);
}

std::pair<ScenarioData, ScenarioData> SplitTrainTest(
    const ScenarioData& scenario_data, double test_fraction, Rng* rng) {
  ALT_CHECK_GE(test_fraction, 0.0);
  ALT_CHECK_LT(test_fraction, 1.0);
  std::vector<size_t> indices(
      static_cast<size_t>(scenario_data.num_samples()));
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng->Shuffle(&indices);
  const size_t test_count = static_cast<size_t>(
      test_fraction * static_cast<double>(indices.size()));
  std::vector<size_t> test_idx(indices.begin(),
                               indices.begin() + static_cast<long>(test_count));
  std::vector<size_t> train_idx(
      indices.begin() + static_cast<long>(test_count), indices.end());
  return {scenario_data.Subset(train_idx), scenario_data.Subset(test_idx)};
}

std::pair<ScenarioData, ScenarioData> SplitSupportQuery(
    const ScenarioData& scenario_data, double query_fraction, Rng* rng) {
  auto [support, query] =
      SplitTrainTest(scenario_data, query_fraction, rng);
  return {std::move(support), std::move(query)};
}

ScenarioData ConcatScenarios(const std::vector<ScenarioData>& scenarios) {
  ALT_CHECK(!scenarios.empty());
  ScenarioData out;
  out.scenario_id = -1;  // pooled
  out.profile_dim = scenarios[0].profile_dim;
  out.seq_len = scenarios[0].seq_len;
  int64_t total = 0;
  for (const ScenarioData& s : scenarios) {
    ALT_CHECK_EQ(s.profile_dim, out.profile_dim);
    ALT_CHECK_EQ(s.seq_len, out.seq_len);
    total += s.num_samples();
  }
  out.profiles = Tensor({total, out.profile_dim});
  out.behaviors.reserve(static_cast<size_t>(total * out.seq_len));
  out.labels.reserve(static_cast<size_t>(total));
  int64_t row = 0;
  for (const ScenarioData& s : scenarios) {
    for (int64_t r = 0; r < s.num_samples(); ++r, ++row) {
      for (int64_t j = 0; j < out.profile_dim; ++j) {
        out.profiles.at(row, j) = s.profiles.at(r, j);
      }
    }
    out.behaviors.insert(out.behaviors.end(), s.behaviors.begin(),
                         s.behaviors.end());
    out.labels.insert(out.labels.end(), s.labels.begin(), s.labels.end());
  }
  return out;
}

std::vector<std::vector<size_t>> ShuffledBatchIndices(int64_t num_samples,
                                                      int64_t batch_size,
                                                      Rng* rng) {
  ALT_CHECK_GT(batch_size, 0);
  std::vector<size_t> indices(static_cast<size_t>(num_samples));
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng->Shuffle(&indices);
  std::vector<std::vector<size_t>> batches;
  for (int64_t start = 0; start < num_samples; start += batch_size) {
    const int64_t end = std::min(num_samples, start + batch_size);
    batches.emplace_back(indices.begin() + start, indices.begin() + end);
  }
  return batches;
}

}  // namespace data
}  // namespace alt
