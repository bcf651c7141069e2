#include "src/serving/model_server.h"

#include <algorithm>

#include "src/obs/memory_tracker.h"
#include "src/obs/trace.h"
#include "src/resilience/fault_injection.h"

namespace alt {
namespace serving {

namespace {

/// A serving request against the model that will score it: the checks
/// BaseModel::Forward and the embedding lookup would otherwise abort on.
Status CheckRequest(models::BaseModel* model, const data::Batch& batch) {
  const models::ModelConfig& config = model->config();
  const Tensor& profiles = batch.profiles;
  if (profiles.ndim() != 2 || profiles.size(0) != batch.batch_size ||
      profiles.size(1) != config.profile_dim) {
    return Status::InvalidArgument(
        "profiles " + ShapeToString(profiles.shape()) + " for batch_size " +
        std::to_string(batch.batch_size) + ", model wants profile width " +
        std::to_string(config.profile_dim));
  }
  if (model->behavior_encoder() == nullptr) return Status::OK();
  if (batch.seq_len != config.seq_len) {
    return Status::InvalidArgument(
        "seq_len " + std::to_string(batch.seq_len) + ", model wants " +
        std::to_string(config.seq_len));
  }
  if (static_cast<int64_t>(batch.behaviors.size()) !=
      batch.batch_size * batch.seq_len) {
    return Status::InvalidArgument(
        std::to_string(batch.behaviors.size()) + " behaviour ids for " +
        std::to_string(batch.batch_size) + " x " +
        std::to_string(batch.seq_len));
  }
  for (int64_t id : batch.behaviors) {
    if (id < 0 || id >= config.vocab_size) {
      return Status::InvalidArgument(
          "behaviour id " + std::to_string(id) + " outside [0, " +
          std::to_string(config.vocab_size) + ")");
    }
  }
  return Status::OK();
}

/// The rows of `requests` stacked into one batch (same model, so the same
/// profile width and seq_len).
data::Batch MergeRows(const std::vector<const data::Batch*>& requests,
                      bool with_behaviors) {
  data::Batch merged;
  const int64_t width = requests.front()->profiles.size(1);
  merged.seq_len = requests.front()->seq_len;
  for (const data::Batch* request : requests) {
    merged.batch_size += request->batch_size;
  }
  merged.profiles = Tensor({merged.batch_size, width});
  float* row = merged.profiles.data();
  for (const data::Batch* request : requests) {
    const int64_t n = request->profiles.numel();
    std::copy(request->profiles.data(), request->profiles.data() + n, row);
    row += n;
    if (with_behaviors) {
      merged.behaviors.insert(merged.behaviors.end(),
                              request->behaviors.begin(),
                              request->behaviors.end());
    }
  }
  return merged;
}

}  // namespace

Status ModelServer::Deploy(const std::string& scenario,
                           std::shared_ptr<models::BaseModel> model,
                           uint64_t version) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  // A prepared model is already in eval mode, and then nothing here writes
  // to it: other engines may be scoring it.
  if (model->training()) model->SetTraining(false);
  MutexLock lock(mu_);
  // The gate and the swap are one critical section, so a concurrent newer
  // install can never be overwritten by an older one.
  Installed& installed = installed_[scenario];
  if (version < installed.version) {
    return Status::FailedPrecondition(
        "stale deploy of " + scenario + " v" + std::to_string(version) +
        " (have v" + std::to_string(installed.version) + ")");
  }
  installed.model = std::move(model);
  installed.version = version;
  return Status::OK();
}

Status ModelServer::Undeploy(const std::string& scenario) {
  MutexLock lock(mu_);
  if (installed_.erase(scenario) == 0) {
    return Status::NotFound("scenario " + scenario);
  }
  return Status::OK();
}

uint64_t ModelServer::DeployedVersion(const std::string& scenario) const {
  MutexLock lock(mu_);
  auto it = installed_.find(scenario);
  return it == installed_.end() ? 0 : it->second.version;
}

bool ModelServer::IsDeployed(const std::string& scenario) const {
  MutexLock lock(mu_);
  return installed_.count(scenario) > 0;
}

std::vector<std::string> ModelServer::Scenarios() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, installed] : installed_) out.push_back(name);
  return out;
}

std::shared_ptr<models::BaseModel> ModelServer::FindModel(
    const std::string& scenario) const {
  MutexLock lock(mu_);
  auto it = installed_.find(scenario);
  return it == installed_.end() ? nullptr : it->second.model;
}

Result<std::vector<float>> ModelServer::Predict(const std::string& scenario,
                                                const data::Batch& batch) {
  return std::move(PredictEach(scenario, {&batch}).front());
}

std::vector<Result<std::vector<float>>> ModelServer::PredictEach(
    const std::string& scenario,
    const std::vector<const data::Batch*>& requests) {
  std::vector<Result<std::vector<float>>> results(
      requests.size(), Status::NotFound("scenario " + scenario +
                                        " not deployed"));
  // The reference keeps the model alive across a concurrent redeploy or
  // undeploy. An eval-mode forward writes nothing to the model, so it runs
  // outside the lock.
  const std::shared_ptr<models::BaseModel> model = FindModel(scenario);
  if (model == nullptr) return results;
  std::vector<size_t> valid;
  std::vector<const data::Batch*> batches;
  for (size_t i = 0; i < requests.size(); ++i) {
    Status status = CheckRequest(model.get(), *requests[i]);
    if (status.ok()) {
      valid.push_back(i);
      batches.push_back(requests[i]);
    } else {
      results[i] = std::move(status);
    }
  }
  if (valid.empty()) return results;
  const Status fault = ALT_FAULT_POINT("serving/predict");
  if (!fault.ok()) {
    for (size_t i : valid) results[i] = fault;
    return results;
  }
  ALT_TRACE_SPAN(span, "serving/model_server/predict");
  obs::ScopedMemoryTag memory_tag("serving");
  // A row's probability does not depend on the other rows of its batch, so
  // each request gets exactly the scores it would get alone.
  if (batches.size() == 1) {
    results[valid.front()] = model->PredictProbs(*batches.front());
    return results;
  }
  const std::vector<float> probs = model->PredictProbs(
      MergeRows(batches, model->behavior_encoder() != nullptr));
  auto row = probs.begin();
  for (size_t i : valid) {
    const int64_t n = requests[i]->batch_size;
    results[i] = std::vector<float>(row, row + n);
    row += n;
  }
  return results;
}

}  // namespace serving
}  // namespace alt
