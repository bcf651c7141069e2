// onboard_tail: the paper's own system. Set-up is data generation plus
// AltSystem::Initialize on the initial Dataset A scenarios (f0). Tail
// scenarios then arrive one at a time through OnScenarioArrival: fine-tune
// with Eq. 1-3 feedback into f0, budget-limited NAS with distillation,
// deploy. Arrivals are sequential because concurrent arrivals reorder
// Eq. 3's feedback into f0, which changes the outputs for a seed.
//
// Each arrival must be deployed, keep the derived encoder within the Eq. 4
// budget, report finite AUCs in [0, 1], and serve scores equal to
// PredictProbs on its exported bundle's reloaded copy.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "probes.h"
#include "src/core/alt_system.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/model_store.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "workloads.h"

namespace altbench {
namespace {

using alt::core::AltSystem;
using alt::core::AltSystemOptions;
using alt::models::EncoderKind;
using alt::models::ModelConfig;
using alt::obs::MetricsRegistry;
using alt::obs::TraceRecorder;

constexpr int64_t kSeqLen = 16;
constexpr int kInitialScenarios = 4;
constexpr int64_t kInitialSize = 1200;
constexpr int64_t kTailSize = 1000;
/// One arrival takes ~2-3 s on a 4-core host; the number of arrivals is a
/// fixed function of --seconds so outputs depend on the seed alone.
constexpr double kSecondsPerArrival = 3.0;
constexpr int64_t kCheckRows = 64;
/// Set-ups an untraced run makes; setup_s is their median.
constexpr int kOnboardSetupRepeats = 3;

alt::data::SyntheticConfig DataConfig(uint64_t seed, int tail_count) {
  alt::data::SyntheticConfig config = alt::data::DatasetAConfig();
  config.num_scenarios = kInitialScenarios + tail_count;
  config.seq_len = kSeqLen;
  config.scenario_sizes.assign(static_cast<size_t>(config.num_scenarios),
                               kTailSize);
  for (int i = 0; i < kInitialScenarios; ++i) {
    config.scenario_sizes[static_cast<size_t>(i)] = kInitialSize;
  }
  config.seed = seed;
  return config;
}

AltSystemOptions SystemOptions(const alt::data::SyntheticConfig& data,
                               uint64_t seed) {
  AltSystemOptions options;
  options.heavy_config = ModelConfig::Heavy(EncoderKind::kLstm, data.profile_dim,
                                            data.seq_len, data.vocab_size);
  options.light_config = ModelConfig::Light(EncoderKind::kLstm, data.profile_dim,
                                            data.seq_len, data.vocab_size);
  constexpr float kLr = 0.01f;
  options.heavy_config.learning_rate = kLr;
  options.light_config.learning_rate = kLr;
  options.meta.init_train.epochs = 2;
  options.meta.init_train.learning_rate = kLr;
  options.meta.finetune.epochs = 2;
  options.meta.finetune.learning_rate = kLr;
  options.nas.search_epochs = 3;
  options.nas.final_train.epochs = 3;
  options.nas.final_train.learning_rate = kLr;
  options.nas.weight_lr = kLr;
  options.parallel_scenarios = 1;
  // A replicated plane, so deploys serialize the bundle and clone it to a
  // replica as a production deploy does.
  options.serving.num_shards = 2;
  options.serving.replication = 2;
  options.seed = seed;
  return options;
}

struct Setup {
  std::vector<alt::data::ScenarioData> tail;
  std::unique_ptr<AltSystem> system;
  Cost cost;
};

/// Set-up: data generation + AltSystem construction + Initialize (f0).
Setup SetUp(uint64_t seed, int tail_count, RunOutput* out) {
  Setup s;
  const CostTimer timer;
  const alt::data::SyntheticConfig data = DataConfig(seed, tail_count);
  alt::data::SyntheticGenerator generator(data);
  std::vector<alt::data::ScenarioData> initial;
  for (int i = 0; i < kInitialScenarios; ++i) {
    initial.push_back(generator.GenerateScenario(i));
  }
  for (int i = 0; i < tail_count; ++i) {
    s.tail.push_back(generator.GenerateScenario(kInitialScenarios + i));
  }
  s.system = std::make_unique<AltSystem>(SystemOptions(data, seed));
  const alt::Status st = s.system->Initialize(initial);
  if (!st.ok()) out->Incorrect("Initialize: " + st.ToString());
  s.cost = timer.Elapsed();
  return s;
}

std::vector<size_t> FirstRows(int64_t n) {
  std::vector<size_t> rows(static_cast<size_t>(n));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

/// Program spans by name, from the global recorder.
struct ProgramSpan {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

std::vector<ProgramSpan> ProgramSpans() {
  std::vector<ProgramSpan> out;
  const alt::Json doc = TraceRecorder::Global().ToChromeJson();
  for (const alt::Json& e : doc.at("traceEvents").as_array()) {
    if (!e.contains("ph") || e.at("ph").as_string() != "X") continue;
    const std::string& name = e.at("name").as_string();
    if (name != "meta/initialize" && name != "meta/adapt" &&
        name != "nas/search" && name != "nas/final_train") {
      continue;
    }
    const double ts = e.at("ts").as_number();
    out.push_back({name, ts, ts + e.at("dur").as_number()});
  }
  return out;
}

struct HistDelta {
  alt::obs::HistogramSummary before;
  double count() const { return static_cast<double>(now().count - before.count); }
  double mean() const {
    const double n = count();
    return n > 0.0 ? (now().sum - before.sum) / n : 0.0;
  }
  std::string name;
  alt::obs::HistogramSummary now() const {
    return MetricsRegistry::Global().histogram_summary(name);
  }
};

HistDelta StartDelta(const std::string& name) {
  HistDelta d;
  d.name = name;
  d.before = MetricsRegistry::Global().histogram_summary(name);
  return d;
}

double GemmMsTotal() {
  const MetricsRegistry& registry = MetricsRegistry::Global();
  return HistogramSumWithPrefix(registry, "tensor/gemm/time_ms/") +
         HistogramSumWithPrefix(registry, "tensor/int8_gemm/time_ms/") +
         HistogramSumWithPrefix(registry, "tensor/batched_matmul/time_ms/");
}

std::string OneLine(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

}  // namespace

void RunOnboardTail(const RunConfig& config, RunOutput* out) {
  out->bench_threads = "main";
  out->program_threads = "compute pool (training, NAS); 2 shards x (dispatcher + batcher)";
  const int tail_count =
      std::max(2, static_cast<int>(std::lround(config.seconds / kSecondsPerArrival)));

  TraceRecorder::Global().set_enabled(false);
  std::vector<Cost> setups;
  Setup setup;
  double plain_init_s = 0.0;
  if (config.trace) {
    plain_init_s = SetUp(config.seed, tail_count, out).cost.wall_s;
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().set_enabled(true);
    setup = SetUp(config.seed, tail_count, out);
  } else {
    for (int i = 0; i < kOnboardSetupRepeats; ++i) {
      // Release the previous system first, so one is alive at a time and
      // the peak RSS is the program's, not an overlap of two.
      setup = Setup{};
      setup = SetUp(config.seed, tail_count, out);
      setups.push_back(setup.cost);
    }
  }
  const double setup_peak_rss_mb = PeakRssMb();
  AltSystem* system = setup.system.get();
  alt::serving::ServingClient* client = system->serving();
  const int64_t budget = system->LightEncoderFlopsBudget();
  out->digest.AddU64(static_cast<uint64_t>(budget));

  const auto train_steps = StartDelta("train/trainer/step_time_ms");
  const auto nas_steps = StartDelta("nas/nas_search/step_time_ms");
  const double gemm0 = GemmMsTotal();
  std::vector<double> arrival_ms, arrival_cpu_ms, light_auc, heavy_auc, kflops;
  double samples = 0.0;
  std::unique_ptr<alt::models::BaseModel> last_copy;
  alt::data::Batch last_batch;
  for (const alt::data::ScenarioData& raw : setup.tail) {
    ++out->attempted;
    const uint64_t span_id = out->spans.NextId();
    const CostTimer timer;
    const double s0 = TraceRecorder::Global().NowMicros();
    auto arrived = system->OnScenarioArrival(raw);
    const double s1 = TraceRecorder::Global().NowMicros();
    const Cost cost = timer.Elapsed();
    out->spans.Add({"bench/arrival", span_id, 0, s0, s1});
    if (!arrived.ok()) {
      ++out->failed;
      out->Incorrect("OnScenarioArrival: " + arrived.status().ToString());
      continue;
    }
    const alt::core::ScenarioArtifacts& a = arrived.value();
    arrival_ms.push_back((s1 - s0) * 1e-3);
    arrival_cpu_ms.push_back(cost.cpu_s * 1e3);
    samples += static_cast<double>(raw.num_samples());
    const std::string& name = a.deployment_name;
    const int64_t arch_flops = a.arch.Flops(kSeqLen);
    out->digest.AddString(name);
    out->digest.AddString(a.arch.ToString());
    out->digest.AddDouble(a.heavy_test_auc);
    out->digest.AddDouble(a.light_test_auc);
    out->digest.AddU64(static_cast<uint64_t>(a.light_flops));
    out->digest.AddU64(static_cast<uint64_t>(arch_flops));
    out->Note(Fmt("arrival scenario %.0f: %.3f s, light AUC %.6f, heavy AUC %.6f",
                  static_cast<double>(a.scenario_id), (s1 - s0) * 1e-6,
                  a.light_test_auc, a.heavy_test_auc) +
              Fmt(", light %.0f FLOPs/sample, encoder %.0f <= budget %.0f",
                  static_cast<double>(a.light_flops),
                  static_cast<double>(arch_flops), static_cast<double>(budget)) +
              " arch " + OneLine(a.arch.ToString()));

    bool ok = true;
    const auto fail = [&](const std::string& what) {
      ok = false;
      out->Incorrect(name + ": " + what);
    };
    if (!client->IsDeployed(name)) fail("not deployed");
    if (arch_flops > budget) fail("encoder FLOPs over the Eq. 4 budget");
    for (double auc : {a.heavy_test_auc, a.light_test_auc}) {
      if (!std::isfinite(auc) || auc < 0.0 || auc > 1.0) fail("AUC out of [0, 1]");
    }
    const std::string path =
        config.work_dir + "/" + name + "_seed" + std::to_string(config.seed) + ".altm";
    const alt::Status exported = client->ExportBundle(name, path);
    if (!exported.ok()) fail("ExportBundle: " + exported.ToString());
    auto reloaded = alt::serving::LoadModelBundleFromFile(path);
    std::stringstream bundle;
    bundle << std::ifstream(path, std::ios::binary).rdbuf();
    std::remove(path.c_str());
    if (!reloaded.ok()) {
      fail("LoadModelBundleFromFile: " + reloaded.status().ToString());
      ++out->failed;
      continue;
    }
    const alt::data::Batch batch = alt::data::MakeBatch(
        raw, FirstRows(std::min<int64_t>(kCheckRows, raw.num_samples())));
    const std::vector<float> expected = reloaded.value()->PredictProbs(batch);
    for (float v : expected) out->digest.AddFloat(v);
    // Served by the model OnScenarioArrival deployed, then after a redeploy
    // of the reloaded bundle: both must equal the reloaded copy bit for bit.
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) {
        bundle.seekg(0);
        auto model = alt::serving::LoadModelBundle(&bundle);
        if (!model.ok()) {
          fail("LoadModelBundle: " + model.status().ToString());
          break;
        }
        const alt::Status st = client->Deploy(name, std::move(model).value());
        if (!st.ok()) fail("redeploy: " + st.ToString());
      }
      auto served = client->Predict(name, batch);
      if (!served.ok()) {
        fail("Predict: " + served.status().ToString());
      } else if (served.value() != expected) {
        fail("served scores differ from the bundle copy");
      }
    }
    if (!ok) {
      ++out->failed;
      continue;
    }
    light_auc.push_back(a.light_test_auc);
    heavy_auc.push_back(a.heavy_test_auc);
    kflops.push_back(static_cast<double>(a.light_flops) / 1e3);
    last_copy = std::move(reloaded).value();
    last_batch = batch;
  }
  const double onboard_wall_ms = Sum(arrival_ms);
  const double arrivals_peak_rss_mb = PeakRssMb();
  out->Note(Fmt("peak RSS %.1f MB after the set-ups, %.1f MB after the arrivals",
                setup_peak_rss_mb, arrivals_peak_rss_mb) +
            (arrivals_peak_rss_mb > setup_peak_rss_mb
                 ? ": the arrivals set the peak"
                 : ": the set-up sets the peak"));
  out->Note("light AUC mean " + Fmt("%.6f", Mean(light_auc)) + ", heavy AUC mean " +
            Fmt("%.6f", Mean(heavy_auc)) + ", light kFLOPs mean " +
            Fmt("%.4f", Mean(kflops)));

  if (config.trace) {
    LayerReport layers;
    // Attach the program's spans to the bench spans that contain them.
    const std::vector<Span> arrivals = out->spans.Spans();
    uint64_t last_search = 0;
    double init_s = 0.0;
    std::vector<double> adapt_s, search_s, final_s;
    for (const ProgramSpan& p : ProgramSpans()) {
      if (p.name == "meta/initialize") {
        init_s = (p.end_us - p.start_us) * 1e-6;
        continue;
      }
      uint64_t parent = 0;
      for (const Span& s : arrivals) {
        if (s.name == "bench/arrival" && p.start_us >= s.start_us &&
            p.end_us <= s.end_us) {
          parent = s.id;
        }
      }
      if (parent == 0) continue;
      const uint64_t id = out->spans.NextId();
      if (p.name == "nas/final_train") {
        out->spans.Add({p.name, id, last_search, p.start_us, p.end_us});
        final_s.push_back((p.end_us - p.start_us) * 1e-6);
        continue;
      }
      out->spans.Add({p.name, id, parent, p.start_us, p.end_us});
      if (p.name == "nas/search") last_search = id;
      (p.name == "meta/adapt" ? adapt_s : search_s)
          .push_back((p.end_us - p.start_us) * 1e-6);
    }
    const std::vector<double> search_self = out->spans.SelfTimesUs("nas/search");
    const std::vector<double> rest_us = out->spans.SelfTimesUs("bench/arrival");
    layers.Set("core.initialize_s", init_s);
    layers.Set("meta.adapt_s", Median(adapt_s));
    layers.Set("meta.heavy_auc", Mean(heavy_auc));
    layers.Set("meta.light_auc", Mean(light_auc));
    layers.Set("nas.light_kflops", Mean(kflops));
    layers.Set("nas.search_s", Median(search_self) * 1e-6);
    layers.Set("nas.final_train_s", Median(final_s));
    layers.Set("nas.steps", nas_steps.count());
    layers.Set("nas.step_ms", nas_steps.mean());
    layers.Set("train.steps", train_steps.count());
    layers.Set("train.step_ms", train_steps.mean());
    layers.Set("onboard.rest_s", Median(rest_us) * 1e-6);
    layers.Set("tensor.gemm_share.onboard",
               onboard_wall_ms > 0.0 ? (GemmMsTotal() - gemm0) / onboard_wall_ms : 0.0);
    layers.Set("serving.coordinator.broadcast_ms",
               MetricsRegistry::Global()
                   .histogram_summary("serving/coordinator/broadcast_ms")
                   .p50);
    layers.Set("obs.trace_overhead_frac", setup.cost.wall_s / plain_init_s - 1.0);
    if (last_copy != nullptr) {
      const PredictProbe p1 = ProbePredict(
          last_copy.get(), alt::data::MakeBatch(setup.tail.back(), FirstRows(1)), 31);
      const PredictProbe p64 = ProbePredict(last_copy.get(), last_batch, 15);
      layers.SetModelProbes(p1, p64);
      layers.SetGemmShares(&p64, nullptr);
      out->Note(DescribeProbe("onboarded light model", p64));
    }
    layers.SetMemoryTags();
    out->Note(Fmt("set-up untraced %.3f s, traced %.3f s", plain_init_s, setup.cost.wall_s));
    layers.EmitTo(out);
    return;
  }

  out->Note(Fmt("onboard_s = %.4f (median); onboard_total_s = %.4f; samples "
                "onboarded per s = %.2f",
                Median(arrival_ms) * 1e-3, onboard_wall_ms * 1e-3,
                onboard_wall_ms > 0.0 ? samples / (onboard_wall_ms * 1e-3) : 0.0));
  AddCostMetrics(setups, Median(arrival_cpu_ms), out);
  out->Add("answer_quality", Mean(light_auc), "frac");
}

}  // namespace altbench
