#ifndef ALT_SRC_CORE_ALT_SYSTEM_H_
#define ALT_SRC_CORE_ALT_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/onboard.h"
#include "src/feature/data_preparation.h"
#include "src/hpo/model_search.h"
#include "src/meta/meta_learner.h"
#include "src/nas/nas_search.h"
#include "src/obs/http_server.h"
#include "src/resilience/retry.h"
#include "src/serving/serving_client.h"

namespace alt {
namespace core {

/// Options of the whole ALT system (Fig. 7).
struct AltSystemOptions {
  /// Pre-designed heavy architecture (the expert structure of Fig. 2).
  models::ModelConfig heavy_config;
  /// Predefined light architecture; its encoder FLOPs define the NAS budget
  /// ("the upper bound of the FLOPs for the searched architectures is set
  /// to be the same as the light models").
  models::ModelConfig light_config;
  meta::MetaOptions meta;
  /// The light half of onboarding (OnboardOptions::nas). Its flops_budget
  /// is replaced by LightEncoderFlops(light_config); distill_delta = 0
  /// trains the light model on hard labels only.
  nas::NasSearchOptions nas;
  feature::DataPreparationConfig prep;
  /// Initialization strategy (Fig. 4): when enabled, the preset tuned by
  /// AntTune-style HPO (`hpo`) also competes for f0 (InitializeAgnostic).
  bool use_hpo_init = false;
  hpo::ModelSearchOptions hpo;
  /// Maximum scenarios processed concurrently by OnScenariosArrival; above
  /// 1, the outputs depend on the order the arrivals finish in.
  int64_t parallel_scenarios = 2;
  /// Backoff schedule for light-model deployment: transient deploy
  /// failures (e.g. injected serving/deploy faults) retry before the
  /// scenario pipeline surfaces an error.
  resilience::RetryOptions deploy_retry;
  /// Serving plane configuration (sharding topology, queue cap, tracing and
  /// SLOs, resilience policy). The default is the classic single-shard layout;
  /// `serving.resilience` is what StartResilientServing() applies.
  serving::ServingClient::Options serving;
  /// Telemetry exposition server (obs::TelemetryServer) on 127.0.0.1.
  /// Negative: disabled (default). 0: an ephemeral port (see
  /// AltSystem::telemetry()->port()). Positive: that port. Started by the
  /// constructor; /healthz reports the shard lifecycle (503 only when some
  /// deployed scenario has no live replica; degraded-but-serving shards
  /// stay 200 with detail in the body), /readyz reports ready once
  /// Initialize() succeeded and the serving plane is healthy.
  int telemetry_port = -1;
  uint64_t seed = 123;
};

/// End-to-end orchestration of the ALT pipeline:
///   Initialize(): data preparation -> InitializeAgnostic (f0, optionally
///     the better of the plain preset and the HPO-tuned preset).
///   OnScenarioArrival(): data preparation -> OnboardScenario (Eq. 1-2
///     heavy model, then budget-limited NAS + distillation into the light
///     model) -> deployment of the light model to the model server.
/// OnScenariosArrival runs arrivals in parallel: their Eq. 2 feedback lands
/// in f0 in completion order (Eq. 3), so outputs then depend on timing.
class AltSystem {
 public:
  explicit AltSystem(AltSystemOptions options);

  /// Builds the scenario agnostic heavy model from the initial scenarios'
  /// raw data.
  Status Initialize(const std::vector<data::ScenarioData>& initial_raw);

  bool initialized() const { return meta_->initialized(); }

  /// Full automatic pipeline for one arriving scenario (raw data in).
  Result<ScenarioArtifacts> OnScenarioArrival(
      const data::ScenarioData& raw);

  /// Processes several arriving scenarios in parallel.
  Result<std::vector<ScenarioArtifacts>> OnScenariosArrival(
      const std::vector<data::ScenarioData>& raw_scenarios);

  /// The serving plane: deploy/predict/batch-predict/undeploy/stats.
  serving::ServingClient* serving() { return &client_; }

  /// Turns on graceful degradation for the serving plane using
  /// `options().serving.resilience`. Ensures the scenario-agnostic heavy
  /// model f0 is deployed on every shard under
  /// `resilience.fallback_scenario` (default "f0") so degraded traffic is
  /// answered by f0 rather than a constant prior. Requires Initialize().
  Status StartResilientServing();

  /// Persists the system state (agnostic heavy model + every deployed light
  /// model + a manifest) into `directory`, creating it if needed.
  Status SaveState(const std::string& directory);

  /// Restores a previously saved state: the agnostic model is adopted and
  /// every bundled scenario model is re-deployed.
  Status LoadState(const std::string& directory);

  meta::MetaLearner* meta_learner() { return meta_.get(); }
  const AltSystemOptions& options() const { return options_; }

  /// The telemetry server when AltSystemOptions::telemetry_port >= 0 and
  /// startup succeeded; nullptr otherwise.
  obs::TelemetryServer* telemetry() { return telemetry_.get(); }

  /// Encoder FLOPs budget used for the NAS (from the predefined light
  /// architecture).
  int64_t LightEncoderFlopsBudget() const { return onboard_.nas.flops_budget; }

 private:
  /// Deploys under the deploy_retry policy (DeployOptions::retry_transient:
  /// the model survives failed attempts, consumed only on success).
  Status DeployWithRetry(const std::string& scenario,
                         std::unique_ptr<models::BaseModel> model);

  // Thread safety: AltSystem owns no mutex of its own. options_,
  // onboard_ and the component pointers are written once during
  // construction; all concurrent state lives inside the internally
  // synchronized members (meta_, client_, telemetry_), and concurrent
  // scenario arrivals coordinate through their futures.
  AltSystemOptions options_;
  OnboardOptions onboard_;
  std::unique_ptr<meta::MetaLearner> meta_;
  serving::ServingClient client_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace core
}  // namespace alt

#endif  // ALT_SRC_CORE_ALT_SYSTEM_H_
