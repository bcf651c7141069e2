#ifndef ALT_SRC_RESILIENCE_CHECKPOINT_H_
#define ALT_SRC_RESILIENCE_CHECKPOINT_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/module.h"
#include "src/opt/optimizer.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace alt {
namespace resilience {

/// Checkpoint files for long runs (training epochs, NAS search) -------------
///
/// A checkpoint is a JSON meta header (progress counters: epoch, step, loss
/// trackers) plus named binary blobs (model weights in the ALTW format,
/// optimizer moments, RNG engine states). File layout:
///   magic "ALTC" | u32 version | u64 meta_len | meta json |
///   u64 num_blobs | per blob: u64 name_len | name | u64 size | bytes.
///
/// Writes are atomic (util::AtomicWriteFile): a reader — including a
/// resumed run after a mid-write kill — sees either the previous complete
/// checkpoint or the new one, never a torn file. Owners overwrite one path
/// periodically; the file is self-describing via its meta `kind` field.

class CheckpointBuilder {
 public:
  /// Progress header; `kind` identifies the owner (e.g. "trainer").
  void set_meta(Json meta) { meta_ = std::move(meta); }
  Json& mutable_meta() { return meta_; }

  /// Registers a binary section. Re-adding a name replaces it.
  void AddBlob(const std::string& name, std::string bytes);

  /// Atomically writes the checkpoint to `path`.
  Status WriteToFile(const std::string& path) const;

 private:
  Json meta_;
  std::map<std::string, std::string> blobs_;
};

class CheckpointReader {
 public:
  static Result<CheckpointReader> ReadFromFile(const std::string& path);

  const Json& meta() const { return meta_; }
  bool has_blob(const std::string& name) const {
    return blobs_.count(name) > 0;
  }
  /// NotFound when the blob is missing.
  Result<std::string> blob(const std::string& name) const;

 private:
  Json meta_;
  std::map<std::string, std::string> blobs_;
};

/// One training loop's checkpoint step, shared by train::TrainModel and
/// nas::SearchLightModel: the model's weights (blob "weights"), each named
/// Adam's moments and each named RNG stream, under a progress header whose
/// "kind" names the loop, so one loop's file never restores into another.
struct LoopState {
  std::string kind;
  nn::Module* model = nullptr;
  std::vector<std::pair<std::string, opt::Adam*>> optimizers;
  std::vector<std::pair<std::string, Rng*>> rngs;
};

/// Atomically overwrites `path` with `state` under `progress` plus "kind".
/// A failed save is logged and the loop runs on; the previous file is whole.
void SaveLoopCheckpoint(const std::string& path, const LoopState& state,
                        Json progress);

/// Restores `state` from `path` and returns its progress header, or nullopt
/// when no file is there (a clean start). An unreadable file, another
/// loop's kind, a missing number of `progress_keys`, and a missing or
/// corrupt blob return an error; none aborts.
Result<std::optional<Json>> RestoreLoopCheckpoint(
    const std::string& path, const LoopState& state,
    const std::vector<std::string>& progress_keys);

}  // namespace resilience
}  // namespace alt

#endif  // ALT_SRC_RESILIENCE_CHECKPOINT_H_
