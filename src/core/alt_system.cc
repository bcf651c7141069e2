#include "src/core/alt_system.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "src/serving/model_store.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace alt {
namespace core {

AltSystem::AltSystem(AltSystemOptions options)
    : options_(std::move(options)), client_(options_.serving) {
  onboard_.light_config = options_.light_config;
  onboard_.nas = options_.nas;
  onboard_.nas.flops_budget = LightEncoderFlops(options_.light_config);
  onboard_.seed = options_.seed;
  meta_ = std::make_unique<meta::MetaLearner>(
      options_.heavy_config, options_.meta,
      // The agnostic model may later adopt a NAS architecture, so cloning
      // goes through the NAS-aware builder.
      [](const models::ModelConfig& config, Rng* build_rng) {
        return nas::BuildModel(config, build_rng);
      });

  if (options_.telemetry_port >= 0) {
    obs::TelemetryServer::Options telemetry;
    telemetry.port = options_.telemetry_port;
    // /trace/slow and /slo read straight off the serving client's request
    // tracer and SLO tracker; both outlive the server (stopped first).
    telemetry.tracer = client_.tracer();
    telemetry.slo = client_.slo();
    // Liveness reflects shard lifecycle state: 503 only when some deployed
    // scenario has no live replica left. Degraded capacity (dead shards with
    // every scenario still answerable) stays 200 and is reported in the
    // detail body alongside the breakers.
    telemetry.health_fn = [this]() {
      const serving::ServingClient::HealthReport health = client_.GetHealth();
      Json body = Json::Object{};
      body["healthy"] = health.healthy;
      body["degraded"] = health.degraded;
      Json shards = Json::Object{};
      for (const auto& [id, state] : health.shard_states) {
        shards[id] = state;
      }
      body["shards"] = std::move(shards);
      Json::Array unservable;
      for (const std::string& scenario : health.unservable_scenarios) {
        unservable.emplace_back(scenario);
      }
      body["unservable_scenarios"] = Json(std::move(unservable));
      Json breakers = Json::Object{};
      for (const auto& [scenario, state] : client_.BreakerStates()) {
        breakers[scenario] = resilience::BreakerStateName(state);
      }
      body["breakers"] = std::move(breakers);
      Json::Array burning;
      for (const std::string& scenario : client_.slo()->Burning()) {
        burning.emplace_back(scenario);
      }
      body["slo_burning"] = Json(std::move(burning));
      return body;
    };
    // Readiness: the scenario-agnostic model exists AND every deployed
    // scenario has a live replica to answer for it.
    telemetry.ready_fn = [this]() {
      const serving::ServingClient::HealthReport health = client_.GetHealth();
      Json body = Json::Object{};
      body["ready"] = initialized() && health.healthy;
      body["initialized"] = initialized();
      body["serving_healthy"] = health.healthy;
      return body;
    };
    auto started = obs::TelemetryServer::Start(std::move(telemetry));
    if (started.ok()) {
      telemetry_ = std::move(started.value());
    } else {
      ALT_LOG(Warning) << "telemetry server disabled: "
                       << started.status().ToString();
    }
  }
}

Status AltSystem::Initialize(
    const std::vector<data::ScenarioData>& initial_raw) {
  // Data preparation per scenario; pooled train parts initialize f0.
  std::vector<data::ScenarioData> train_parts;
  for (const data::ScenarioData& raw : initial_raw) {
    ALT_ASSIGN_OR_RETURN(feature::PreparedData prepared,
                         feature::PrepareScenarioData(raw, options_.prep));
    train_parts.push_back(std::move(prepared.train));
  }
  InitCandidates candidates;
  if (options_.use_hpo_init) candidates.hpo = options_.hpo;
  return InitializeAgnostic(meta_.get(), train_parts, candidates);
}

Result<ScenarioArtifacts> AltSystem::OnScenarioArrival(
    const data::ScenarioData& raw) {
  if (!initialized()) {
    return Status::FailedPrecondition("AltSystem::Initialize first");
  }
  ALT_ASSIGN_OR_RETURN(feature::PreparedData prepared,
                       feature::PrepareScenarioData(raw, options_.prep));

  ALT_ASSIGN_OR_RETURN(
      OnboardResult onboarded,
      OnboardScenario(meta_.get(), std::move(prepared.train), prepared.test,
                      onboard_));
  ScenarioArtifacts artifacts = std::move(onboarded.artifacts);
  artifacts.deployment_name =
      "scenario_" + std::to_string(raw.scenario_id);

  // Deploy the light model for online serving (with retry: a transient
  // deploy failure should not discard the scenario's NAS + training work).
  ALT_RETURN_IF_ERROR(DeployWithRetry(artifacts.deployment_name,
                                      std::move(onboarded.light)));
  return artifacts;
}

Status AltSystem::DeployWithRetry(const std::string& scenario,
                                  std::unique_ptr<models::BaseModel> model) {
  serving::DeployOptions deploy;
  deploy.retry_transient = true;
  deploy.retry = options_.deploy_retry;
  return client_.Deploy(scenario, std::move(model), deploy);
}

Status AltSystem::StartResilientServing() {
  if (!initialized()) {
    return Status::FailedPrecondition("AltSystem::Initialize first");
  }
  serving::ServingResilienceOptions resilience = options_.serving.resilience;
  if (resilience.fallback_scenario.empty()) {
    resilience.fallback_scenario = "f0";
  }
  if (!client_.IsDeployed(resilience.fallback_scenario)) {
    // The fallback must be answerable by every shard locally: degraded
    // traffic cannot afford a cross-shard failover hop.
    ALT_ASSIGN_OR_RETURN(auto agnostic, meta_->CloneAgnostic());
    serving::DeployOptions deploy;
    deploy.retry_transient = true;
    deploy.retry = options_.deploy_retry;
    ALT_RETURN_IF_ERROR(client_.DeployEverywhere(
        resilience.fallback_scenario, std::move(agnostic), deploy));
  }
  client_.EnableResilience(resilience);
  options_.serving.resilience = resilience;
  return Status::OK();
}

Result<std::vector<ScenarioArtifacts>> AltSystem::OnScenariosArrival(
    const std::vector<data::ScenarioData>& raw_scenarios) {
  if (raw_scenarios.empty()) return std::vector<ScenarioArtifacts>{};
  const size_t workers = static_cast<size_t>(std::max<int64_t>(
      1, std::min<int64_t>(options_.parallel_scenarios,
                           static_cast<int64_t>(raw_scenarios.size()))));
  ThreadPool pool(workers);
  std::vector<std::future<Result<ScenarioArtifacts>>> futures;
  futures.reserve(raw_scenarios.size());
  for (const data::ScenarioData& raw : raw_scenarios) {
    futures.push_back(
        pool.Submit([this, &raw]() { return OnScenarioArrival(raw); }));
  }
  std::vector<ScenarioArtifacts> out;
  for (auto& f : futures) {
    Result<ScenarioArtifacts> result = f.get();
    ALT_RETURN_IF_ERROR(result.status());
    out.push_back(std::move(result).value());
  }
  return out;
}

Status AltSystem::SaveState(const std::string& directory) {
  if (!initialized()) {
    return Status::FailedPrecondition("nothing to save: not initialized");
  }
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return Status::IOError("cannot create " + directory);

  // Agnostic heavy model.
  ALT_ASSIGN_OR_RETURN(auto agnostic, meta_->CloneAgnostic());
  ALT_RETURN_IF_ERROR(serving::SaveModelBundleToFile(
      agnostic.get(), directory + "/agnostic.altm"));

  // Deployed scenario models + manifest.
  Json manifest;
  manifest["version"] = 1;
  Json::Array deployments;
  for (const std::string& scenario : client_.Scenarios()) {
    const std::string file = scenario + ".altm";
    ALT_RETURN_IF_ERROR(
        client_.ExportBundle(scenario, directory + "/" + file));
    Json entry;
    entry["scenario"] = scenario;
    entry["file"] = file;
    deployments.push_back(std::move(entry));
  }
  manifest["deployments"] = std::move(deployments);
  std::ofstream out(directory + "/manifest.json");
  if (!out.is_open()) return Status::IOError("cannot write manifest");
  out << manifest.DumpPretty();
  if (!out.good()) return Status::IOError("manifest write failed");
  return Status::OK();
}

Status AltSystem::LoadState(const std::string& directory) {
  std::ifstream manifest_in(directory + "/manifest.json");
  if (!manifest_in.is_open()) {
    return Status::NotFound("no manifest in " + directory);
  }
  std::string text((std::istreambuf_iterator<char>(manifest_in)),
                   std::istreambuf_iterator<char>());
  ALT_ASSIGN_OR_RETURN(Json manifest, Json::Parse(text));

  ALT_ASSIGN_OR_RETURN(auto agnostic, serving::LoadModelBundleFromFile(
                                          directory + "/agnostic.altm"));
  ALT_RETURN_IF_ERROR(meta_->AdoptInitialModel(std::move(agnostic)));

  if (manifest.contains("deployments")) {
    for (const Json& entry : manifest.at("deployments").as_array()) {
      const std::string scenario = entry.at("scenario").as_string();
      ALT_ASSIGN_OR_RETURN(
          auto model, serving::LoadModelBundleFromFile(
                          directory + "/" + entry.at("file").as_string()));
      ALT_RETURN_IF_ERROR(client_.Deploy(scenario, std::move(model)));
    }
  }
  return Status::OK();
}

}  // namespace core
}  // namespace alt
