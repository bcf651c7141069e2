#ifndef ALT_SRC_SERVING_MODEL_SERVER_H_
#define ALT_SRC_SERVING_MODEL_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/base_model.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/resilience/retry.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {

/// Per-deploy configuration (plain Deploy == all defaults).
struct DeployOptions {
  /// Post-training int8 quantization of the model's Linear layers at
  /// deploy time (symmetric scheme, src/tensor/quant.h). The serving
  /// Predict path then runs the int8 GEMM; the fp32 weights stay intact
  /// inside the model. Counted in `serving/quantized_deploys`.
  bool quantize_int8 = false;
  /// Optional calibration batch, scored with the fp32 model right before
  /// quantization — its fp32 probabilities are the distillation soft
  /// labels the int8 model is compared against. The maximum
  /// |p_int8 - p_fp32| over the batch lands in the gauge
  /// `serving/quantization/max_prob_delta/<scenario>`, so the accuracy
  /// cost of every quantized deploy is measured, not assumed. Ignored
  /// unless quantize_int8 is set. Must outlive the Deploy call only.
  const data::Batch* calibration = nullptr;
  /// Hot scenario: the sharded serving plane (ServingClient/ShardCoordinator)
  /// deploys it to the larger `hot_replication` replica group so head
  /// traffic fans out over more workers. A plain ModelServer ignores it.
  bool hot = false;
  /// Retry transient deploy failures (e.g. injected serving/deploy faults)
  /// under `retry` before giving up: the sharded plane's coordinator retries
  /// each replica's copy step. The model survives failed attempts and is
  /// consumed only on success or once the schedule is exhausted. A plain
  /// ModelServer ignores it.
  bool retry_transient = false;
  resilience::RetryOptions retry;
  /// Per-scenario SLO: latency target + availability objective. A plain
  /// ModelServer ignores it; ServingClient registers it with its SloTracker
  /// so the scenario's burn rate shows up on /slo and the alt_slo_* gauges.
  obs::SloObjective slo;
};

/// The Model Serving module (Sec. IV-E): the per-scenario model registry
/// of one serving engine, with thread-safe prediction. Deploys are
/// version-gated atomic swaps, so scenarios can be re-deployed while
/// serving. Each WorkerShard owns one; placing models on shards (copies,
/// retries, the serving/deploy fault point) belongs to ShardCoordinator,
/// and degradation (breakers, deadlines, fallbacks) and per-request latency
/// to ServingClient, not to the engine.
///
/// Observability: quantized deploys count into the constructor's registry
/// as `serving/quantized_deploys` and
/// `serving/quantization/max_prob_delta/<scenario>`.
class ModelServer {
 public:
  /// `registry == nullptr` selects obs::MetricsRegistry::Global(). Tests
  /// pass a private registry for isolation; the registry must outlive the
  /// server.
  explicit ModelServer(obs::MetricsRegistry* registry = nullptr);

  /// Installs (or replaces) the serving model of `scenario` at `version`:
  /// int8-quantizes it when DeployOptions::quantize_int8 asks, then swaps it
  /// in. The version gate and the swap are one critical section under the
  /// scenario's model lock: a version older than the installed one is
  /// FailedPrecondition, and an equal or newer one replaces it. Past a null
  /// model (InvalidArgument) nothing else fails, so a caller that made the
  /// model can install it on a live engine without a failure path.
  Status Deploy(const std::string& scenario,
                std::unique_ptr<models::BaseModel> model,
                const DeployOptions& options = {}, uint64_t version = 0);

  Status Undeploy(const std::string& scenario);
  /// The version `scenario`'s model was installed at; 0 when none is.
  uint64_t DeployedVersion(const std::string& scenario) const;
  bool IsDeployed(const std::string& scenario) const;
  std::vector<std::string> Scenarios() const;

  /// Scores a request batch with `scenario`'s model. Thread-safe; requests
  /// to the same scenario are serialized on that scenario's lock. Hosts the
  /// `serving/predict` fault point. A request whose shape or ids do not fit
  /// the model is InvalidArgument: requests are outside input, and the
  /// model's own checks abort.
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

  /// Inference FLOPs per sample of the deployed model.
  Result<int64_t> FlopsPerSample(const std::string& scenario) const;

 private:
  struct Deployment {
    Mutex mu;
    /// The serving model; swapped atomically by Deploy, serialized per
    /// scenario by Predict.
    std::unique_ptr<models::BaseModel> model ALT_GUARDED_BY(mu);
    /// The installed model's version, which Deploy's gate compares.
    uint64_t version ALT_GUARDED_BY(mu) = 0;
  };

  std::shared_ptr<Deployment> FindDeployment(const std::string& scenario) const;

  /// Deployments are shared_ptrs so an in-flight Predict keeps its
  /// deployment alive across a concurrent Undeploy.
  obs::MetricsRegistry* registry_;
  mutable Mutex registry_mu_;
  std::map<std::string, std::shared_ptr<Deployment>> deployments_
      ALT_GUARDED_BY(registry_mu_);
};

}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_MODEL_SERVER_H_
