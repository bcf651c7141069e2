#include "src/meta/meta_learner.h"

#include <algorithm>

#include "src/autograd/ops.h"
#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace alt {
namespace meta {

MetaLearner::MetaLearner(models::ModelConfig config, MetaOptions options,
                         ModelBuilder builder)
    : config_(std::move(config)),
      options_(std::move(options)),
      builder_(builder ? std::move(builder) : &models::BuildBaseModel),
      rng_(options_.seed) {}

Status MetaLearner::AdoptInitialModel(
    std::unique_ptr<models::BaseModel> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  if (model->config().profile_dim != config_.profile_dim ||
      model->config().seq_len != config_.seq_len ||
      model->config().vocab_size != config_.vocab_size) {
    return Status::InvalidArgument(
        "adopted model's input schema does not match");
  }
  MutexLock lock(mu_);
  config_ = model->config();
  agnostic_ = std::move(model);
  return Status::OK();
}

Result<std::unique_ptr<models::BaseModel>> MetaLearner::CloneAgnostic() {
  MutexLock lock(mu_);
  if (agnostic_ == nullptr) {
    return Status::FailedPrecondition("meta learner not initialized");
  }
  ALT_ASSIGN_OR_RETURN(auto clone, builder_(config_, &rng_));
  ALT_RETURN_IF_ERROR(clone->CopyParametersFrom(agnostic_.get()));
  return clone;
}

Result<std::unique_ptr<models::BaseModel>> MetaLearner::AdaptToScenario(
    const data::ScenarioData& scenario_train, bool send_feedback) {
  if (scenario_train.num_samples() < 4) {
    return Status::InvalidArgument("scenario has too few samples");
  }
  // Per-scenario adapt time: the latency a long-tail scenario pays between
  // arrival and having a usable specialized model.
  ALT_TRACE_SPAN(adapt_span, "meta/adapt");
  obs::ScopedMemoryTag memory_tag("meta");
  obs::ScopedTimerMs adapt_timer(
      obs::MetricsRegistry::Global().histogram("meta/meta_learner/adapt_time_ms"));
  ALT_OBS_COUNTER_ADD("meta/meta_learner/adaptations_total", 1);
  // theta_u <- copy of theta_0.
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> adapted,
                       CloneAgnostic());

  // Split into support D_u^s and query D_u^q.
  Rng split_rng(options_.seed * 1009 +
                static_cast<uint64_t>(scenario_train.scenario_id) * 31 + 7);
  auto [support, query] = data::SplitSupportQuery(
      scenario_train, options_.query_fraction, &split_rng);

  // Eq. 1: fine-tune on the support set.
  train::TrainOptions finetune = options_.finetune;
  finetune.learning_rate = config_.learning_rate;
  finetune.seed = options_.seed * 2003 +
                  static_cast<uint64_t>(scenario_train.scenario_id) + 13;
  ALT_RETURN_IF_ERROR(
      train::TrainModel(adapted.get(), support, finetune).status());

  // Eq. 2: feed the query-set loss gradient back into theta_0.
  if (send_feedback && query.num_samples() > 0) {
    ALT_RETURN_IF_ERROR(ApplyQueryFeedback(adapted.get(), query));
  }
  return adapted;
}

Status MetaLearner::ApplyQueryFeedback(models::BaseModel* adapted,
                                       const data::ScenarioData& query) {
  // Accumulate the query-set gradient at theta_u (first-order approximation
  // of Eq. 2: the gradient w.r.t. theta_u stands in for the gradient
  // w.r.t. theta_0; see DESIGN.md). Only parameter gradients are needed, so
  // the LSTM layers rerun their forward in the backward instead of keeping
  // every layer's activations of a whole chunk at once.
  ag::RecomputeGuard recompute;
  adapted->SetTraining(false);
  adapted->ZeroGrad();
  constexpr int64_t kChunk = 256;
  int64_t num_chunks = 0;
  for (int64_t start = 0; start < query.num_samples(); start += kChunk) {
    std::vector<size_t> idx;
    const int64_t end = std::min(query.num_samples(), start + kChunk);
    for (int64_t i = start; i < end; ++i) {
      idx.push_back(static_cast<size_t>(i));
    }
    data::Batch batch = MakeBatch(query, idx);
    ag::Variable loss = ag::BCEWithLogits(
        adapted->Forward(batch), ag::Variable::Constant(batch.labels));
    loss.Backward();
    ++num_chunks;
  }
  if (num_chunks == 0) return Status::OK();
  const float scale =
      options_.meta_lr / static_cast<float>(num_chunks);

  // theta_0 <- theta_0 - eta * grad, serialized across scenarios (Eq. 3's
  // asynchronous accumulation).
  MutexLock lock(mu_);
  if (agnostic_ == nullptr) {
    return Status::FailedPrecondition("meta learner not initialized");
  }
  auto dst = agnostic_->NamedParameters();
  auto src = adapted->NamedParameters();
  if (dst.size() != src.size()) {
    return Status::Internal("adapted model diverged from agnostic model");
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    if (dst[i].first != src[i].first ||
        !dst[i].second->value().SameShape(src[i].second->value())) {
      return Status::Internal("parameter mismatch at " + dst[i].first);
    }
    if (src[i].second->has_grad()) {
      dst[i].second->mutable_value().Axpy(-scale, src[i].second->grad());
    }
  }
  return Status::OK();
}

Status MetaLearner::PeriodicRefresh(
    const std::vector<data::ScenarioData>& all_scenarios,
    const train::TrainOptions& options) {
  if (all_scenarios.empty()) {
    return Status::InvalidArgument("no scenarios to refresh from");
  }
  data::ScenarioData pooled = data::ConcatScenarios(all_scenarios);
  // Refresh trains a detached copy, then swaps it in, so adapt threads are
  // never blocked for the duration of training.
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> refreshed,
                       CloneAgnostic());
  ALT_RETURN_IF_ERROR(
      train::TrainModel(refreshed.get(), pooled, options).status());
  MutexLock lock(mu_);
  agnostic_ = std::move(refreshed);
  return Status::OK();
}

}  // namespace meta
}  // namespace alt
