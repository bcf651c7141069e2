#ifndef ALT_SRC_SERVING_MODEL_SERVER_H_
#define ALT_SRC_SERVING_MODEL_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/slo.h"
#include "src/resilience/retry.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {

/// Per-deploy configuration (plain Deploy == all defaults). The sharded
/// plane (ServingClient/ShardCoordinator) reads every field; ModelServer
/// takes a model that is ready to serve and reads none.
struct DeployOptions {
  /// Post-training int8 quantization of the model's Linear layers at
  /// deploy time (symmetric scheme, src/tensor/quant.h). The serving
  /// Predict path then runs the int8 GEMM; the fp32 weights stay intact
  /// inside the model. The coordinator quantizes once per deploy and every
  /// replica serves that one model, so `serving/quantized_deploys` counts
  /// deploys, not replicas.
  bool quantize_int8 = false;
  /// Optional calibration batch, scored with the fp32 model right before
  /// quantization — its fp32 probabilities are the distillation soft
  /// labels the int8 model is compared against. The maximum
  /// |p_int8 - p_fp32| over the batch lands in the gauge
  /// `serving/quantization/max_prob_delta/<scenario>`, so the accuracy
  /// cost of every quantized deploy is measured, not assumed. Ignored
  /// unless quantize_int8 is set. Must outlive the Deploy call only.
  const data::Batch* calibration = nullptr;
  /// Hot scenario: the plane deploys it to the larger `hot_replication`
  /// replica group so head traffic fans out over more workers.
  bool hot = false;
  /// Retry transient deploy failures (e.g. injected serving/deploy faults)
  /// under `retry` before giving up: the coordinator retries each
  /// replica's copy step.
  bool retry_transient = false;
  resilience::RetryOptions retry;
  /// Per-scenario SLO: latency target + availability objective.
  /// ServingClient registers it with its SloTracker so the scenario's burn
  /// rate shows up on /slo and the alt_slo_* gauges.
  obs::SloObjective slo;
};

/// The Model Serving module (Sec. IV-E): the per-scenario model registry
/// of one serving engine, with thread-safe prediction. Deploys are
/// version-gated atomic swaps, so scenarios can be re-deployed while
/// serving. Each WorkerShard owns one; preparing a model (eval mode, int8
/// quantization) and placing it on shards (retries, the serving/deploy
/// fault point) belong to ShardCoordinator, and degradation (breakers,
/// deadlines, fallbacks) and per-request latency to ServingClient, not to
/// the engine.
///
/// Installed models are shared and immutable: the coordinator hands every
/// replica of a scenario version the same model, and a forward runs
/// outside the engine's lock on a reference taken under it, so predicts
/// never wait for each other or for a deploy. A replaced or undeployed
/// model is freed once the last request holding it has finished.
class ModelServer {
 public:
  /// Installs (or replaces) the serving model of `scenario` at `version`.
  /// The version gate and the swap are one critical section: a version
  /// older than the installed one is FailedPrecondition, and an equal or
  /// newer one replaces it. Nothing may change `model` while it is
  /// installed; one still in training mode is switched to eval mode first.
  /// Past a null model (InvalidArgument) nothing else fails, so a caller
  /// that made the model can install it on a live engine without a failure
  /// path.
  Status Deploy(const std::string& scenario,
                std::shared_ptr<models::BaseModel> model,
                uint64_t version = 0);

  Status Undeploy(const std::string& scenario);
  /// The version `scenario`'s model was installed at; 0 when none is.
  uint64_t DeployedVersion(const std::string& scenario) const;
  bool IsDeployed(const std::string& scenario) const;
  std::vector<std::string> Scenarios() const;

  /// Scores a request batch with `scenario`'s model. Thread-safe, and
  /// concurrent requests run concurrently. Hosts the `serving/predict`
  /// fault point. A request whose shape or ids do not fit the model is
  /// InvalidArgument: requests are outside input, and the model's own
  /// checks abort.
  Result<std::vector<float>> Predict(const std::string& scenario,
                                     const data::Batch& batch);

  /// Predict for several requests of one scenario in one forward pass: each
  /// request is checked against the model on its own, so a malformed one
  /// fails alone, and the valid ones are merged row-wise and scored
  /// together. Returns one result per request, in order, each with that
  /// request's rows. A model fault fails every valid request.
  std::vector<Result<std::vector<float>>> PredictEach(
      const std::string& scenario,
      const std::vector<const data::Batch*>& requests);

 private:
  struct Installed {
    std::shared_ptr<models::BaseModel> model;
    /// The model's version, which Deploy's gate compares.
    uint64_t version = 0;
  };

  /// `scenario`'s model, or null when none is installed.
  std::shared_ptr<models::BaseModel> FindModel(
      const std::string& scenario) const;

  mutable Mutex mu_;
  std::map<std::string, Installed> installed_ ALT_GUARDED_BY(mu_);
};

}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_MODEL_SERVER_H_
