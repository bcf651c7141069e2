// alt_pipeline — command-line front end for the ALT system.
//
// Runs the full automatic pipeline from a JSON job config:
//
//   alt_pipeline --config job.json
//
// Job config schema:
// {
//   "initial_scenarios": ["bank_a.csv", "bank_b.csv", ...],   // or .altd
//   "arriving_scenarios": ["bank_new.csv", ...],
//   "encoder": "lstm" | "bert",
//   "epochs": 4, "learning_rate": 0.01,
//   "state_dir": "/tmp/alt_state",        // optional: save/restore
//   "export_dir": "/tmp/alt_bundles"      // optional: bundle exports
// }
//
// With --demo, a synthetic 10-scenario workload replaces the file inputs so
// the tool runs out of the box.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/core/alt_system.h"
#include "src/data/io.h"
#include "src/data/synthetic.h"
#include "src/util/json.h"

namespace alt {
namespace {

Result<data::ScenarioData> LoadScenarioFile(const std::string& path,
                                            int64_t scenario_id) {
  if (path.size() > 5 && path.substr(path.size() - 5) == ".altd") {
    return data::ReadBinaryFile(path);
  }
  return data::ReadCsvFile(path, scenario_id);
}

int Run(int argc, char** argv) {
  std::string config_path;
  bool demo = false;
  int telemetry_port = -1;  // Negative: telemetry server off.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg.rfind("--config=", 0) == 0) {
      config_path = arg.substr(9);
    } else if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg.rfind("--telemetry_port=", 0) == 0) {
      telemetry_port = std::atoi(arg.c_str() + 17);
    } else if (arg == "--telemetry_port" && i + 1 < argc) {
      telemetry_port = std::atoi(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: alt_pipeline (--config job.json | --demo) "
          "[--telemetry_port N]\n"
          "  --telemetry_port N  serve /metrics, /trace, /healthz, /readyz,\n"
          "                      /snapshot on 127.0.0.1:N (0 = ephemeral)\n");
      return 0;
    }
  }

  Json job;
  std::vector<data::ScenarioData> initial;
  std::vector<data::ScenarioData> arriving;
  if (demo) {
    std::printf("[demo] generating a synthetic 10-scenario workload\n");
    data::SyntheticConfig dc;
    dc.num_scenarios = 10;
    dc.profile_dim = 24;
    dc.seq_len = 16;
    dc.vocab_size = 30;
    dc.scenario_sizes = {1200, 1000, 800, 700, 600, 500, 450, 400, 350, 300};
    data::SyntheticGenerator generator(dc);
    for (int64_t s = 0; s < 8; ++s) {
      initial.push_back(generator.GenerateScenario(s));
    }
    for (int64_t s = 8; s < 10; ++s) {
      arriving.push_back(generator.GenerateScenario(s));
    }
    job["encoder"] = "lstm";
    job["epochs"] = 4;
    job["learning_rate"] = 0.01;
  } else {
    if (config_path.empty()) {
      std::fprintf(stderr, "error: --config or --demo required\n");
      return 2;
    }
    std::ifstream in(config_path);
    if (!in.is_open()) {
      std::fprintf(stderr, "error: cannot open %s\n", config_path.c_str());
      return 2;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto parsed = Json::Parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: bad config: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    job = std::move(parsed).value();
    int64_t next_id = 0;
    for (const char* key : {"initial_scenarios", "arriving_scenarios"}) {
      if (!job.contains(key)) continue;
      for (const Json& file : job.at(key).as_array()) {
        auto loaded = LoadScenarioFile(file.as_string(), next_id);
        if (!loaded.ok()) {
          std::fprintf(stderr, "error: %s: %s\n", file.as_string().c_str(),
                       loaded.status().ToString().c_str());
          return 2;
        }
        loaded.value().scenario_id = next_id++;
        (std::string(key) == "initial_scenarios" ? initial : arriving)
            .push_back(std::move(loaded).value());
      }
    }
  }
  if (initial.empty()) {
    std::fprintf(stderr, "error: no initial scenarios\n");
    return 2;
  }

  // System options from the job config.
  const std::string encoder_name =
      job.contains("encoder") ? job.at("encoder").as_string() : "lstm";
  auto encoder_kind = models::EncoderKindFromName(encoder_name);
  if (!encoder_kind.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 encoder_kind.status().ToString().c_str());
    return 2;
  }
  const int64_t profile_dim = initial[0].profile_dim;
  const int64_t seq_len = initial[0].seq_len;
  int64_t vocab = 1;
  for (const data::ScenarioData& s : initial) {
    for (int64_t id : s.behaviors) vocab = std::max(vocab, id + 1);
  }
  for (const data::ScenarioData& s : arriving) {
    for (int64_t id : s.behaviors) vocab = std::max(vocab, id + 1);
  }

  core::AltSystemOptions options;
  options.heavy_config = models::ModelConfig::Heavy(
      encoder_kind.value(), profile_dim, seq_len, vocab);
  options.light_config = models::ModelConfig::Light(
      encoder_kind.value(), profile_dim, seq_len, vocab);
  const float lr = job.contains("learning_rate")
                       ? static_cast<float>(
                             job.at("learning_rate").as_number())
                       : 0.01f;
  const int64_t epochs =
      job.contains("epochs") ? job.at("epochs").as_int() : 4;
  options.heavy_config.learning_rate = lr;
  options.light_config.learning_rate = lr;
  options.meta.init_train.epochs = epochs;
  options.meta.finetune.epochs = std::max<int64_t>(1, epochs / 2);
  options.nas.final_train.epochs = epochs;
  options.nas.final_train.learning_rate = lr;
  options.nas.weight_lr = lr;

  options.telemetry_port = telemetry_port;

  core::AltSystem system(options);
  if (system.telemetry() != nullptr) {
    std::printf("[telemetry] http://127.0.0.1:%d/metrics\n",
                system.telemetry()->port());
  }

  // Optionally restore an existing state; otherwise initialize.
  const std::string state_dir =
      job.contains("state_dir") ? job.at("state_dir").as_string() : "";
  bool restored = false;
  if (!state_dir.empty() &&
      std::filesystem::exists(state_dir + "/manifest.json")) {
    Status load = system.LoadState(state_dir);
    if (load.ok()) {
      std::printf("[state] restored from %s\n", state_dir.c_str());
      restored = true;
    } else {
      std::printf("[state] restore failed (%s); re-initializing\n",
                  load.ToString().c_str());
    }
  }
  if (!restored) {
    std::printf("[init] building the scenario agnostic heavy model from "
                "%zu initial scenarios (encoder=%s)\n",
                initial.size(), encoder_name.c_str());
    Status init = system.Initialize(initial);
    if (!init.ok()) {
      std::fprintf(stderr, "error: initialize: %s\n",
                   init.ToString().c_str());
      return 1;
    }
  }

  for (const data::ScenarioData& raw : arriving) {
    auto artifacts = system.OnScenarioArrival(raw);
    if (!artifacts.ok()) {
      std::fprintf(stderr, "error: scenario %lld: %s\n",
                   static_cast<long long>(raw.scenario_id),
                   artifacts.status().ToString().c_str());
      return 1;
    }
    const core::ScenarioArtifacts& a = artifacts.value();
    std::printf("[scenario %lld] heavy AUC %.3f (%lld FLOPs) -> light AUC "
                "%.3f (%lld FLOPs); deployed as '%s'\n",
                static_cast<long long>(a.scenario_id), a.heavy_test_auc,
                static_cast<long long>(a.heavy_flops), a.light_test_auc,
                static_cast<long long>(a.light_flops),
                a.deployment_name.c_str());
    if (job.contains("export_dir")) {
      const std::string dir = job.at("export_dir").as_string();
      std::filesystem::create_directories(dir);
      const std::string path = dir + "/" + a.deployment_name + ".altm";
      Status exported = system.serving()->ExportBundle(a.deployment_name,
                                                      path);
      if (exported.ok()) {
        std::printf("  exported bundle: %s\n", path.c_str());
      }
    }
  }

  if (!state_dir.empty()) {
    Status save = system.SaveState(state_dir);
    if (save.ok()) {
      std::printf("[state] saved to %s\n", state_dir.c_str());
    } else {
      std::fprintf(stderr, "warning: save state: %s\n",
                   save.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace alt

int main(int argc, char** argv) { return alt::Run(argc, argv); }
