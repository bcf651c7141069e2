// The altbench workloads. Each runs in its own process, drives the ALT
// system only through public functions of core, serving, models, nas and
// meta, and fills a RunOutput; main.cc prints it.

#ifndef ALTBENCH_WORKLOADS_H_
#define ALTBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace altbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: request-trace sampling 1.0, the global TraceRecorder on,
  /// bench spans around every public call; reports the per-layer metrics.
  bool trace = false;
  /// Working directory inside the checkout (exported bundles, span dumps).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable report lines printed before the result line.
  std::vector<std::string> notes;
  Digest digest;
  SpanLog spans;
  /// Benchmark threads that generate load, e.g. "sender,collector,control".
  std::string bench_threads;
  /// Program threads the workload starts, e.g. "3 shards x (dispatcher +
  /// batcher)".
  std::string program_threads;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records an incorrect output: the run fails.
  void Incorrect(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

void RunServeTail(const RunConfig& config, RunOutput* out);
void RunServeBulk(const RunConfig& config, RunOutput* out);
void RunOnboardTail(const RunConfig& config, RunOutput* out);

/// Every per-layer metric name with its unit, in report order; a traced run
/// reports each (0 where the workload never enters that layer).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace altbench

#endif  // ALTBENCH_WORKLOADS_H_
