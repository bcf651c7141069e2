// altbench: the ALT repository benchmark. Runs one named workload with a
// seed and prints a report followed, as the last line of stdout, by one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   altbench --workload serve_tail --seed 1 --seconds 20 --trace 0
//            --work-dir .bench_build/work
//
// --trace 0 reports the end-to-end metrics (request-trace sampling 0, the
// global TraceRecorder off); --trace 1 reports the per-layer metrics from
// a traced run and writes its spans to the work directory. See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "src/tensor/cpu_features.h"
#include "src/util/parallel_for.h"
#include "workloads.h"

namespace altbench {

void RunOutput::Incorrect(const std::string& what) {
  if (correct) notes.push_back("INCORRECT: " + what);
  correct = false;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"serving.client.enqueue_us", "us"},
      {"serving.batch_predictor.rows_per_flush", "rows"},
      {"serving.batch_predictor.batch_wait_ms", "ms"},
      {"serving.shard.queue_wait_ms.p50", "ms"},
      {"serving.shard.queue_wait_ms.p99", "ms"},
      {"serving.shard.load_imbalance", "ratio"},
      {"serving.coordinator.route_us", "us"},
      {"serving.coordinator.broadcast_ms", "ms"},
      {"serving.model_server.compute_ms", "ms"},
      {"serving.plane_overhead_ms", "ms"},
      {"serving.failovers", "count"},
      {"serving.fallbacks", "count"},
      {"serving.shed", "count"},
      {"serving.unattributed_frac", "frac"},
      {"models.predict_ms.rows1", "ms"},
      {"models.predict_ms.rows64", "ms"},
      {"models.gflops", "GFLOP/s"},
      {"tensor.allocs_per_predict", "count"},
      {"tensor.alloc_kb_per_row", "KiB"},
      {"tensor.gemm_calls_per_predict", "count"},
      {"tensor.gemm_share.fp32", "frac"},
      {"tensor.gemm_share.int8", "frac"},
      {"util.parallel_for.regions_per_predict", "count"},
      {"core.initialize_s", "s"},
      {"meta.adapt_s", "s"},
      {"meta.heavy_auc", "AUC"},
      {"meta.light_auc", "AUC"},
      {"nas.light_kflops", "kFLOPs"},
      {"nas.search_s", "s"},
      {"nas.final_train_s", "s"},
      {"nas.steps", "count"},
      {"nas.step_ms", "ms"},
      {"train.steps", "count"},
      {"train.step_ms", "ms"},
      {"onboard.rest_s", "s"},
      {"tensor.gemm_share.onboard", "frac"},
      {"obs.memory_peak_mb.train", "MB"},
      {"obs.memory_peak_mb.nas", "MB"},
      {"obs.memory_peak_mb.meta", "MB"},
      {"obs.memory_peak_mb.serving", "MB"},
      {"obs.trace_overhead_frac", "frac"},
      {"bench.gen_late_ms.p99", "ms"},
      {"host.cpu_steal_frac", "frac"},
  };
  return kMetrics;
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "altbench: %s\nusage: altbench --workload "
               "serve_tail|serve_bulk|onboard_tail --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n       altbench --self-test\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteSpans(const RunOutput& out, const std::string& path) {
  std::ofstream f(path);
  f << "[";
  bool first = true;
  for (const Span& s : out.spans.Spans()) {
    f << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"start_us\":" << JsonNumber(s.start_us)
      << ",\"end_us\":" << JsonNumber(s.end_us) << "}";
    first = false;
  }
  f << "\n]\n";
}

}  // namespace
}  // namespace altbench

int main(int argc, char** argv) {
  using namespace altbench;
  RunConfig config;
  bool self_test_only = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }

  std::string failure;
  if (!RunSelfTests(&failure)) {
    std::fprintf(stderr, "altbench: %s\n", failure.c_str());
    return 1;
  }
  if (self_test_only) {
    std::printf("altbench self-tests passed\n");
    return 0;
  }
  void (*run)(const RunConfig&, RunOutput*) = nullptr;
  if (config.workload == "serve_tail") run = RunServeTail;
  if (config.workload == "serve_bulk") run = RunServeBulk;
  if (config.workload == "onboard_tail") run = RunOnboardTail;
  if (run == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || config.work_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --work-dir are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create " + config.work_dir).c_str());

  CpuTimes cpu0;
  const bool have_cpu = ReadCpuTimes(&cpu0);
  const double t0 = NowSeconds();
  RunOutput out;
  run(config, &out);
  CpuTimes cpu1;
  const double steal =
      have_cpu && ReadCpuTimes(&cpu1) ? StealShare(cpu0, cpu1) : 0.0;
  const double peak_rss = PeakRssMb();
  if (config.trace) {
    for (Metric& m : out.metrics) {
      if (m.name == "host.cpu_steal_frac") m.value = steal;
    }
    const std::string path = config.work_dir + "/spans_" + config.workload +
                             "_seed" + std::to_string(config.seed) + ".json";
    WriteSpans(out, path);
    out.notes.push_back("spans written to " + path);
  } else {
    out.Add("peak_rss_mb", peak_rss, "MB");
  }

  std::printf("# altbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("# host: nproc=%d simd=%s compute_threads=%d cpu_steal=%.6f "
              "wall=%.3f s peak_rss=%.1f MB\n",
              HostCpus(), alt::SimdLevelName(alt::ActiveSimdLevel()),
              alt::ComputeThreads(), steal, NowSeconds() - t0, peak_rss);
  std::printf("# threads: bench=[%s] program=[%s] compute_pool=%d\n",
              out.bench_threads.c_str(), out.program_threads.c_str(),
              alt::ComputeThreads());
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  std::printf("# output digest: %s\n", out.digest.Hex().c_str());
  for (const Metric& m : out.metrics) {
    std::printf("# metric %s = %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "altbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
