#include "src/nas/nas_search.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/analysis/graph_audit.h"
#include "src/autograd/ops.h"
#include "src/nas/derived_encoder.h"
#include "src/obs/memory_tracker.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/opt/optimizer.h"
#include "src/resilience/checkpoint.h"
#include "src/util/logging.h"

namespace alt {
namespace nas {

Result<std::unique_ptr<models::BaseModel>> SearchLightModel(
    const models::ModelConfig& light_base,
    const data::ScenarioData& train_data, const NasSearchOptions& options,
    NasSearchReport* report) {
  if (train_data.num_samples() < 8) {
    return Status::InvalidArgument("too few samples for NAS search");
  }
  ALT_TRACE_SPAN(search_span, "nas/search");
  obs::ScopedMemoryTag memory_tag("nas");
  ALT_OBS_COUNTER_ADD("nas/nas_search/searches_total", 1);
  obs::Histogram* step_time =
      obs::MetricsRegistry::Global().histogram("nas/nas_search/step_time_ms");
  obs::Gauge* carry_bytes = obs::MetricsRegistry::Global().gauge(
      "nas/nas_search/weight_step_carry_bytes");
  const obs::MemoryTracker& memory = obs::MemoryTracker::Global();
  Rng rng(options.seed);
  Rng dropout_rng = rng.Fork();

  // 1. Build the supernet model (full Fig. 2 model with supernet encoder).
  models::ModelConfig supernet_config = light_base;
  supernet_config.encoder = models::EncoderKind::kNas;
  auto supernet = std::make_unique<SupernetEncoder>(
      supernet_config.hidden_dim, options.supernet, options.seed * 97 + 1,
      &rng);
  SupernetEncoder* supernet_ptr = supernet.get();
  auto model = std::make_unique<models::BaseModel>(
      supernet_config, std::move(supernet), &rng);

  // 2. Alternating bilevel optimization (weights on train split, arch on
  //    validation split, Eq. 4).
  Rng split_rng = rng.Fork();
  auto [w_train, w_val] =
      data::SplitTrainTest(train_data, options.val_fraction, &split_rng);
  if (w_train.num_samples() == 0 || w_val.num_samples() == 0) {
    return Status::InvalidArgument("train data too small to split for NAS");
  }

  std::vector<ag::Variable*> arch_params = supernet_ptr->ArchParameters();
  std::vector<ag::Variable*> weight_params;
  for (ag::Variable* p : model->Parameters()) {
    if (std::find(arch_params.begin(), arch_params.end(), p) ==
        arch_params.end()) {
      weight_params.push_back(p);
    }
  }
  opt::Adam weight_opt(weight_params, options.weight_lr);
  opt::Adam arch_opt(arch_params, options.arch_lr);

  model->SetTraining(true);
  Rng batch_rng = rng.Fork();
  int64_t step = 0;
  const int64_t total_steps = std::max<int64_t>(
      1, options.search_epochs *
             ((w_train.num_samples() + options.batch_size - 1) /
              options.batch_size));

  // Checkpoint/resume: the advancing state of the bilevel loop is the
  // supernet weights (arch logits included), both Adam moments, and the
  // three RNG streams the loop consumes (batch shuffling, dropout, Gumbel
  // sampling). The outer `rng` is not part of it: its remaining use — the
  // final model build — happens after forking and is epoch-independent.
  const bool checkpointing = !options.checkpoint_path.empty();
  const int64_t checkpoint_every =
      std::max<int64_t>(1, options.checkpoint_every_epochs);
  const resilience::LoopState state = {
      "nas_search",
      model.get(),
      {{"weight_opt", &weight_opt}, {"arch_opt", &arch_opt}},
      {{"batch_rng", &batch_rng},
       {"dropout_rng", &dropout_rng},
       {"sample_rng", &supernet_ptr->sample_rng()}}};
  int64_t start_epoch = 0;
  if (checkpointing && options.resume) {
    ALT_ASSIGN_OR_RETURN(std::optional<Json> progress,
                         resilience::RestoreLoopCheckpoint(
                             options.checkpoint_path, state,
                             {"next_epoch", "step"}));
    if (progress.has_value()) {
      start_epoch = progress->at("next_epoch").as_int();
      step = progress->at("step").as_int();
    }
  }

  for (int64_t epoch = start_epoch; epoch < options.search_epochs; ++epoch) {
    auto val_batches = data::ShuffledBatchIndices(
        w_val.num_samples(), options.batch_size, &batch_rng);
    size_t val_cursor = 0;
    for (const auto& train_idx : data::ShuffledBatchIndices(
             w_train.num_samples(), options.batch_size, &batch_rng)) {
      obs::ScopedTimerMs step_timer(step_time);
      // Anneal the Gumbel temperature from tau_start to tau_end.
      const double progress =
          static_cast<double>(step) / static_cast<double>(total_steps);
      supernet_ptr->set_tau(options.tau_start +
                            (options.tau_end - options.tau_start) * progress);
      ++step;

      // Weight step on the train split. Its batch and graph die with this
      // block, before the architecture step builds its own.
      const int64_t weight_step_bytes = memory.live_bytes();
      {
        data::Batch train_batch = MakeBatch(w_train, train_idx);
        model->ZeroGrad();
        ag::Variable train_loss = train::DistillationLoss(
            model.get(), train_batch, options.distill_delta, &dropout_rng);
        if (options.audit_graph && step == 1) {
          // Structural checks only: Gumbel sampling legitimately leaves the
          // unsampled candidates' weights out of any single step's graph,
          // so parameter reachability is not a supernet invariant.
          analysis::GraphReport audit = analysis::AuditGraph(train_loss);
          ALT_LOG(Info) << "supernet graph audit:\n" << audit.ToString();
          if (!audit.clean()) {
            return Status::FailedPrecondition(
                "supernet graph audit failed: " + audit.errors.front());
          }
        }
        train_loss.Backward();
        weight_opt.ClipGradNorm(5.0);
        weight_opt.Step();
      }
      // What the weight step left live for the architecture step: 0 unless
      // it made lasting state (the first step's gradient buffers, or a
      // thread's scratch arena growing).
      carry_bytes->Set(
          static_cast<double>(memory.live_bytes() - weight_step_bytes));

      // Architecture step on the validation split (Eq. 4).
      data::Batch val_batch =
          MakeBatch(w_val, val_batches[val_cursor % val_batches.size()]);
      ++val_cursor;
      model->ZeroGrad();
      ag::Variable val_loss = train::DistillationLoss(
          model.get(), val_batch, options.distill_delta, &dropout_rng);
      val_loss =
          ag::Add(val_loss,
                  ag::ScalarMul(
                      supernet_ptr->FlopsLoss(supernet_config.seq_len),
                      options.lambda_flops));
      val_loss.Backward();
      arch_opt.ClipGradNorm(5.0);
      arch_opt.Step();
    }

    if (checkpointing && ((epoch + 1) % checkpoint_every == 0 ||
                          epoch + 1 == options.search_epochs)) {
      Json progress;
      progress["next_epoch"] = epoch + 1;
      progress["step"] = step;
      resilience::SaveLoopCheckpoint(options.checkpoint_path, state,
                                     std::move(progress));
    }
  }
  model->SetTraining(false);

  // 3. Derive the max-joint-probability architecture under the budget.
  ALT_ASSIGN_OR_RETURN(Architecture arch, [&]() {
    ALT_TRACE_SPAN(derive_span, "nas/derive");
    return supernet_ptr->Derive(options.flops_budget, supernet_config.seq_len);
  }());
  // Sampled-architecture cost vs the Eq. 4 budget the search optimized for.
  ALT_OBS_GAUGE_SET("nas/nas_search/derived_flops",
                    static_cast<double>(arch.Flops(supernet_config.seq_len)));
  ALT_OBS_GAUGE_SET("nas/nas_search/flops_budget",
                    static_cast<double>(options.flops_budget));
  if (report != nullptr) {
    report->arch = arch;
    report->encoder_flops = arch.Flops(supernet_config.seq_len);
    report->supernet_val_auc = train::EvaluateAuc(model.get(), w_val);
  }

  // 4. Train a fresh model with the derived encoder on the full train data.
  models::ModelConfig final_config = light_base;
  final_config.encoder = models::EncoderKind::kNas;
  final_config.nas_arch = arch.ToJson();
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> final_model,
                       BuildModel(final_config, &rng));
  if (options.audit_graph) {
    // Cross-check the Eq. 4 budget accounting against the real graph: record
    // the derived encoder's forward for one sample and compare the audited
    // FLOPs total with the budget model the search optimized against.
    ag::Variable probe = ag::Variable::Constant(
        Tensor::Zeros({1, final_config.seq_len, final_config.hidden_dim}));
    analysis::GraphReport audit = analysis::AuditGraph(
        final_model->behavior_encoder()->Encode(probe));
    if (!audit.clean()) {
      return Status::FailedPrecondition("derived encoder audit failed: " +
                                        audit.errors.front());
    }
    const int64_t budget_flops = arch.Flops(final_config.seq_len);
    const double rel_err =
        budget_flops == 0
            ? 0.0
            : std::abs(static_cast<double>(audit.total_flops - budget_flops)) /
                  static_cast<double>(budget_flops);
    if (rel_err > 0.01) {
      ALT_LOG(Warning) << "derived encoder FLOPs drift: graph="
                       << audit.total_flops << " budget=" << budget_flops
                       << " rel_err=" << rel_err;
    } else {
      ALT_LOG(Info) << "derived encoder FLOPs cross-check ok: graph="
                    << audit.total_flops << " budget=" << budget_flops;
    }
  }
  train::TrainOptions final_train = options.final_train;
  final_train.seed = options.seed * 131 + 7;
  final_train.audit_graph = options.audit_graph;
  {
    ALT_TRACE_SPAN(final_train_span, "nas/final_train");
    ALT_RETURN_IF_ERROR(train::TrainModel(final_model.get(), train_data,
                                          final_train, options.distill_delta)
                            .status());
  }
  return final_model;
}

Result<std::unique_ptr<models::BaseModel>> BuildModel(
    const models::ModelConfig& config, Rng* rng) {
  if (config.encoder != models::EncoderKind::kNas) {
    return models::BuildBaseModel(config, rng);
  }
  if (config.nas_arch.is_null()) {
    return Status::InvalidArgument("kNas config without nas_arch");
  }
  ALT_ASSIGN_OR_RETURN(Architecture arch,
                       Architecture::FromJson(config.nas_arch));
  if (arch.dim != config.hidden_dim) {
    return Status::InvalidArgument("nas_arch dim mismatch with hidden_dim");
  }
  auto encoder = std::make_unique<DerivedNasEncoder>(std::move(arch), rng);
  return std::make_unique<models::BaseModel>(config, std::move(encoder), rng);
}

Result<std::unique_ptr<models::BaseModel>> CloneModel(
    models::BaseModel* source, Rng* rng) {
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> clone,
                       BuildModel(source->config(), rng));
  ALT_RETURN_IF_ERROR(clone->CopyParametersFrom(source));
  return clone;
}

}  // namespace nas
}  // namespace alt
