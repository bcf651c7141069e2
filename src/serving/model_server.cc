#include "src/serving/model_server.h"

#include <algorithm>
#include <cmath>

#include "src/obs/memory_tracker.h"
#include "src/obs/trace.h"
#include "src/resilience/fault_injection.h"

namespace alt {
namespace serving {

ModelServer::ModelServer(obs::MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()) {}

Status ModelServer::Deploy(const std::string& scenario,
                           std::unique_ptr<models::BaseModel> model,
                           const DeployOptions& options) {
  if (!options.retry_transient) return DeployAttempt(scenario, &model, options);
  resilience::RetryPolicy policy(options.retry);
  return policy.Run("serving deploy " + scenario, [this, &scenario, &model,
                                                   &options]() {
    // DeployAttempt consumes the model only on success, so every retry
    // attempt still has it.
    return DeployAttempt(scenario, &model, options);
  });
}

Status ModelServer::DeployAttempt(const std::string& scenario,
                                  std::unique_ptr<models::BaseModel>* model,
                                  const DeployOptions& options) {
  if (model == nullptr || *model == nullptr) {
    return Status::InvalidArgument("null model");
  }
  ALT_FAULT_RETURN_IF("serving/deploy");
  (*model)->SetTraining(false);
  if (options.quantize_int8) {
    // Score the calibration batch with the fp32 weights first: those probs
    // are the distillation soft labels the quantized model is checked
    // against.
    std::vector<float> soft_labels;
    if (options.calibration != nullptr) {
      soft_labels = (*model)->PredictProbs(*options.calibration);
    }
    (*model)->QuantizeForServing();
    registry_->counter("serving/quantized_deploys")->Add();
    if (options.calibration != nullptr) {
      const std::vector<float> int8_probs =
          (*model)->PredictProbs(*options.calibration);
      double max_delta = 0.0;
      for (size_t i = 0; i < soft_labels.size(); ++i) {
        max_delta = std::max(
            max_delta, std::fabs(static_cast<double>(int8_probs[i]) -
                                 static_cast<double>(soft_labels[i])));
      }
      registry_
          ->gauge("serving/quantization/max_prob_delta/" + scenario)
          ->Set(max_delta);
    }
  }
  std::shared_ptr<Deployment> deployment;
  {
    MutexLock lock(registry_mu_);
    auto it = deployments_.find(scenario);
    if (it == deployments_.end()) {
      deployment = std::make_shared<Deployment>();
      deployments_[scenario] = deployment;
    } else {
      deployment = it->second;
    }
  }
  MutexLock model_lock(deployment->mu);
  deployment->model = std::move(*model);
  return Status::OK();
}

Status ModelServer::Undeploy(const std::string& scenario) {
  MutexLock lock(registry_mu_);
  if (deployments_.erase(scenario) == 0) {
    return Status::NotFound("scenario " + scenario);
  }
  return Status::OK();
}

bool ModelServer::IsDeployed(const std::string& scenario) const {
  MutexLock lock(registry_mu_);
  return deployments_.count(scenario) > 0;
}

std::vector<std::string> ModelServer::Scenarios() const {
  MutexLock lock(registry_mu_);
  std::vector<std::string> out;
  for (const auto& [name, deployment] : deployments_) out.push_back(name);
  return out;
}

std::shared_ptr<ModelServer::Deployment> ModelServer::FindDeployment(
    const std::string& scenario) const {
  MutexLock lock(registry_mu_);
  auto it = deployments_.find(scenario);
  return it == deployments_.end() ? nullptr : it->second;
}

Result<std::vector<float>> ModelServer::Predict(const std::string& scenario,
                                                const data::Batch& batch) {
  std::shared_ptr<Deployment> deployment = FindDeployment(scenario);
  if (deployment == nullptr) {
    return Status::NotFound("scenario " + scenario + " not deployed");
  }
  // Per-deployment lock: the model's forward pass mutates training-mode
  // state, so concurrent requests to one scenario serialize here.
  MutexLock model_lock(deployment->mu);
  if (deployment->model == nullptr) {
    return Status::NotFound("deployment has no model");
  }
  ALT_FAULT_RETURN_IF("serving/predict");
  ALT_TRACE_SPAN(span, "serving/model_server/predict");
  obs::ScopedMemoryTag memory_tag("serving");
  return deployment->model->PredictProbs(batch);
}

Result<int64_t> ModelServer::FlopsPerSample(
    const std::string& scenario) const {
  std::shared_ptr<Deployment> deployment = FindDeployment(scenario);
  if (deployment == nullptr) return Status::NotFound("scenario " + scenario);
  MutexLock model_lock(deployment->mu);
  if (deployment->model == nullptr) {
    return Status::NotFound("scenario " + scenario + " has no model");
  }
  return deployment->model->FlopsPerSample();
}

}  // namespace serving
}  // namespace alt
