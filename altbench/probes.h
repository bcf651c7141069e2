// Per-layer probes over the ALT library's public API and its existing obs
// counters, histograms and spans. Shared by the workloads.

#ifndef ALTBENCH_PROBES_H_
#define ALTBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace altbench {

/// Seeded model of a preset config; building twice from one seed gives
/// identical weights.
std::unique_ptr<alt::models::BaseModel> BuildModel(
    const alt::models::ModelConfig& config, uint64_t seed);

/// Seeded request pool: `rows` rows as one batch plus per-row tensors for
/// single-row EnqueuePredict calls.
struct RequestPool {
  alt::data::Batch batch;
  std::vector<alt::Tensor> profiles;            // [1, profile_dim] each
  std::vector<std::vector<int64_t>> behaviors;  // seq_len each
};
RequestPool MakeRequestPool(uint64_t seed, int64_t rows, int64_t profile_dim,
                            int64_t seq_len, int64_t vocab);
/// Rows [begin, begin + count) of `pool` as one batch.
alt::data::Batch PoolSlice(const RequestPool& pool, int64_t begin,
                           int64_t count);

inline bool SameBits(float a, float b) {
  return __builtin_memcmp(&a, &b, sizeof(float)) == 0;
}

/// One PredictProbs call measured against the library's own counters:
/// exact counts from one call, time as the median of `repeats` calls.
struct PredictProbe {
  double ms = 0.0;
  int64_t rows = 0;
  int64_t flops_per_sample = 0;
  int64_t allocs = 0;
  int64_t alloc_bytes = 0;
  int64_t gemm_calls = 0;
  int64_t parallel_regions = 0;
  double gemm_ms = 0.0;       // fp32 GEMM time per call
  double int8_gemm_ms = 0.0;  // int8 GEMM time per call
};
PredictProbe ProbePredict(alt::models::BaseModel* model,
                          const alt::data::Batch& batch, int repeats);

/// Sum of the `sum` fields of every histogram whose name starts with
/// `prefix`.
double HistogramSumWithPrefix(const alt::obs::MetricsRegistry& registry,
                              const std::string& prefix);

/// MB of the largest live-set peak seen under each memory tag so far.
std::map<std::string, double> MemoryTagPeaksMb();

/// Collects per-layer metric values and emits the full PerLayerMetrics()
/// list (0 for names never set).
class LayerReport {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void EmitTo(RunOutput* out) const;
  /// Sets models.* and tensor.* from 1-row and 64-row probes of one model,
  /// plus the fp32 or int8 GEMM share of a 64-row probe.
  void SetModelProbes(const PredictProbe& rows1, const PredictProbe& rows64);
  void SetGemmShares(const PredictProbe* fp32_rows64,
                     const PredictProbe* int8_rows64);
  void SetMemoryTags();

 private:
  std::map<std::string, double> values_;
};

/// setup_s, the median process CPU seconds of the set-ups. The set-ups'
/// median wall time and `cpu_ms_per_op`, the process CPU per operation, go
/// to the report: this host's speed moves CPU time per operation by more
/// than any bound allows (README.md, "CPU time moves with the host").
void AddCostMetrics(const std::vector<Cost>& setups, double cpu_ms_per_op,
                    RunOutput* out);

/// Human-readable one-line rendering of a probe.
std::string DescribeProbe(const std::string& label, const PredictProbe& p);

}  // namespace altbench

#endif  // ALTBENCH_PROBES_H_
