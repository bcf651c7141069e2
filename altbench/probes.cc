#include "probes.h"

#include <cstdio>
#include <utility>

#include "src/obs/memory_tracker.h"
#include "src/util/logging.h"

namespace altbench {

using alt::data::Batch;
using alt::models::BaseModel;
using alt::obs::MemoryTracker;
using alt::obs::MetricsRegistry;

std::unique_ptr<BaseModel> BuildModel(const alt::models::ModelConfig& config,
                                      uint64_t seed) {
  alt::Rng rng(seed);
  auto model = alt::models::BuildBaseModel(config, &rng);
  ALT_CHECK(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

RequestPool MakeRequestPool(uint64_t seed, int64_t rows, int64_t profile_dim,
                            int64_t seq_len, int64_t vocab) {
  alt::Rng rng(seed);
  RequestPool pool;
  pool.batch.batch_size = rows;
  pool.batch.seq_len = seq_len;
  pool.batch.profiles = alt::Tensor::Randn({rows, profile_dim}, &rng);
  pool.batch.labels = alt::Tensor::Zeros({rows, 1});
  pool.batch.behaviors.resize(static_cast<size_t>(rows * seq_len));
  for (int64_t& id : pool.batch.behaviors) id = rng.UniformInt(0, vocab - 1);
  for (int64_t r = 0; r < rows; ++r) {
    alt::Tensor profile({1, profile_dim});
    for (int64_t j = 0; j < profile_dim; ++j) {
      profile.at(0, j) = pool.batch.profiles.at(r, j);
    }
    pool.profiles.push_back(std::move(profile));
    pool.behaviors.emplace_back(
        pool.batch.behaviors.begin() + r * seq_len,
        pool.batch.behaviors.begin() + (r + 1) * seq_len);
  }
  return pool;
}

Batch PoolSlice(const RequestPool& pool, int64_t begin, int64_t count) {
  const int64_t profile_dim = pool.batch.profiles.shape()[1];
  const int64_t seq_len = pool.batch.seq_len;
  Batch batch;
  batch.batch_size = count;
  batch.seq_len = seq_len;
  batch.profiles = alt::Tensor({count, profile_dim});
  batch.labels = alt::Tensor::Zeros({count, 1});
  for (int64_t r = 0; r < count; ++r) {
    for (int64_t j = 0; j < profile_dim; ++j) {
      batch.profiles.at(r, j) = pool.batch.profiles.at(begin + r, j);
    }
  }
  batch.behaviors.assign(pool.batch.behaviors.begin() + begin * seq_len,
                         pool.batch.behaviors.begin() + (begin + count) * seq_len);
  return batch;
}

namespace {

double GemmTimeMs(const MetricsRegistry& registry, const char* family) {
  return HistogramSumWithPrefix(registry, std::string("tensor/") + family +
                                              "/time_ms/");
}

}  // namespace

PredictProbe ProbePredict(BaseModel* model, const Batch& batch, int repeats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  MemoryTracker& memory = MemoryTracker::Global();
  PredictProbe p;
  p.rows = batch.batch_size;
  p.flops_per_sample = model->FlopsPerSample();

  const int64_t allocs0 = memory.alloc_count();
  const int64_t bytes0 = memory.allocated_bytes_total();
  const int64_t gemm0 = registry.counter_value("tensor/gemm/calls_total");
  const int64_t regions0 =
      registry.counter_value("util/parallel_for/regions_total");
  model->PredictProbs(batch);
  p.allocs = memory.alloc_count() - allocs0;
  p.alloc_bytes = memory.allocated_bytes_total() - bytes0;
  p.gemm_calls = registry.counter_value("tensor/gemm/calls_total") - gemm0;
  p.parallel_regions =
      registry.counter_value("util/parallel_for/regions_total") - regions0;

  const double fp32_0 = GemmTimeMs(registry, "gemm");
  const double int8_0 = GemmTimeMs(registry, "int8_gemm");
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = NowSeconds();
    model->PredictProbs(batch);
    ms.push_back((NowSeconds() - t0) * 1e3);
  }
  p.ms = Median(ms);
  p.gemm_ms = (GemmTimeMs(registry, "gemm") - fp32_0) / repeats;
  p.int8_gemm_ms = (GemmTimeMs(registry, "int8_gemm") - int8_0) / repeats;
  return p;
}

double HistogramSumWithPrefix(const MetricsRegistry& registry,
                              const std::string& prefix) {
  double total = 0.0;
  for (const auto& [name, buckets] : registry.TakeSnapshot().histograms) {
    if (name.rfind(prefix, 0) == 0) total += buckets.sum;
  }
  return total;
}

std::map<std::string, double> MemoryTagPeaksMb() {
  std::map<std::string, double> out;
  for (const auto& [tag, usage] : MemoryTracker::Global().TagSnapshot()) {
    out[tag] = static_cast<double>(usage.peak_bytes) / (1024.0 * 1024.0);
  }
  return out;
}

void LayerReport::EmitTo(RunOutput* out) const {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values_.find(name);
    out->Add(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

void LayerReport::SetModelProbes(const PredictProbe& rows1,
                                 const PredictProbe& rows64) {
  Set("models.predict_ms.rows1", rows1.ms);
  Set("models.predict_ms.rows64", rows64.ms);
  Set("models.gflops", static_cast<double>(rows64.flops_per_sample) *
                           static_cast<double>(rows64.rows) /
                           (rows64.ms * 1e-3) * 1e-9);
  Set("tensor.allocs_per_predict", static_cast<double>(rows1.allocs));
  Set("tensor.alloc_kb_per_row", static_cast<double>(rows64.alloc_bytes) /
                                     1024.0 / static_cast<double>(rows64.rows));
  Set("tensor.gemm_calls_per_predict", static_cast<double>(rows1.gemm_calls));
  Set("util.parallel_for.regions_per_predict",
      static_cast<double>(rows1.parallel_regions));
}

void LayerReport::SetGemmShares(const PredictProbe* fp32_rows64,
                                const PredictProbe* int8_rows64) {
  if (fp32_rows64 != nullptr) {
    Set("tensor.gemm_share.fp32", fp32_rows64->gemm_ms / fp32_rows64->ms);
  }
  if (int8_rows64 != nullptr) {
    Set("tensor.gemm_share.int8",
        (int8_rows64->gemm_ms + int8_rows64->int8_gemm_ms) / int8_rows64->ms);
  }
}

void LayerReport::SetMemoryTags() {
  for (const auto& [tag, mb] : MemoryTagPeaksMb()) {
    Set("obs.memory_peak_mb." + tag, mb);
  }
}

void AddCostMetrics(const std::vector<Cost>& setups, double cpu_ms_per_op,
                    RunOutput* out) {
  std::vector<double> wall, cpu;
  for (const Cost& c : setups) {
    wall.push_back(c.wall_s);
    cpu.push_back(c.cpu_s);
  }
  out->Note(Fmt("set-up x%.0f: median wall %.4f s, median CPU %.4f s",
                static_cast<double>(setups.size()), Median(wall), Median(cpu)));
  out->Note(Fmt("cpu_ms_per_op = %.4f (process CPU per operation; reported, "
                "not gated)",
                cpu_ms_per_op));
  out->Add("setup_s", Median(cpu), "s");
}

std::string DescribeProbe(const std::string& label, const PredictProbe& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: rows=%lld %.4f ms, %lld FLOPs/sample, allocs=%lld, "
                "gemm_calls=%lld, parallel_regions=%lld, gemm %.4f ms, "
                "int8 gemm %.4f ms",
                label.c_str(), static_cast<long long>(p.rows), p.ms,
                static_cast<long long>(p.flops_per_sample),
                static_cast<long long>(p.allocs),
                static_cast<long long>(p.gemm_calls),
                static_cast<long long>(p.parallel_regions), p.gemm_ms,
                p.int8_gemm_ms);
  return buf;
}

}  // namespace altbench
