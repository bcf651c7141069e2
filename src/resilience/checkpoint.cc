#include "src/resilience/checkpoint.h"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "src/nn/serialize.h"
#include "src/obs/memory_tracker.h"
#include "src/util/atomic_file.h"
#include "src/util/logging.h"

namespace alt {
namespace resilience {

namespace {
constexpr char kMagic[4] = {'A', 'L', 'T', 'C'};
constexpr uint32_t kVersion = 1;
constexpr uint64_t kMaxSectionBytes = 1ull << 34;  // 16 GiB sanity bound.

void WriteU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU64(std::istream* in, uint64_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}
}  // namespace

void CheckpointBuilder::AddBlob(const std::string& name, std::string bytes) {
  blobs_[name] = std::move(bytes);
}

Status CheckpointBuilder::WriteToFile(const std::string& path) const {
  return AtomicWriteFile(path, [this](std::ostream* out) {
    out->write(kMagic, sizeof(kMagic));
    const uint32_t version = kVersion;
    out->write(reinterpret_cast<const char*>(&version), sizeof(version));
    // Stamp tensor-memory accounting at write time so every checkpoint
    // records the footprint of the run that produced it.
    Json meta = meta_;
    if (obs::MemoryTracker::Global().enabled()) {
      meta["memory"] = obs::MemoryTracker::Global().ToJson();
    }
    const std::string meta_text = meta.Dump();
    WriteU64(out, meta_text.size());
    out->write(meta_text.data(),
               static_cast<std::streamsize>(meta_text.size()));
    WriteU64(out, blobs_.size());
    for (const auto& [name, bytes] : blobs_) {
      WriteU64(out, name.size());
      out->write(name.data(), static_cast<std::streamsize>(name.size()));
      WriteU64(out, bytes.size());
      out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    if (!out->good()) return Status::IOError("checkpoint write failed");
    return Status::OK();
  });
}

Result<CheckpointReader> CheckpointReader::ReadFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("no checkpoint at " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::string(magic, 4) != std::string(kMagic, 4)) {
    return Status::InvalidArgument(path + " is not an ALT checkpoint");
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in.good() || version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  uint64_t meta_len = 0;
  if (!ReadU64(&in, &meta_len) || meta_len > kMaxSectionBytes) {
    return Status::IOError("bad checkpoint meta length");
  }
  std::string meta_text(meta_len, '\0');
  in.read(meta_text.data(), static_cast<std::streamsize>(meta_len));
  if (!in.good()) return Status::IOError("truncated checkpoint meta");

  CheckpointReader reader;
  ALT_ASSIGN_OR_RETURN(reader.meta_, Json::Parse(meta_text));

  uint64_t num_blobs = 0;
  if (!ReadU64(&in, &num_blobs) || num_blobs > 4096) {
    return Status::IOError("bad checkpoint blob count");
  }
  for (uint64_t i = 0; i < num_blobs; ++i) {
    uint64_t name_len = 0;
    if (!ReadU64(&in, &name_len) || name_len > 4096) {
      return Status::IOError("bad checkpoint blob name");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    uint64_t size = 0;
    if (!in.good() || !ReadU64(&in, &size) || size > kMaxSectionBytes) {
      return Status::IOError("bad checkpoint blob size");
    }
    std::string bytes(size, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(size));
    if (!in.good()) {
      return Status::IOError("truncated checkpoint blob " + name);
    }
    reader.blobs_[std::move(name)] = std::move(bytes);
  }
  return reader;
}

Result<std::string> CheckpointReader::blob(const std::string& name) const {
  auto it = blobs_.find(name);
  if (it == blobs_.end()) {
    return Status::NotFound("checkpoint has no blob " + name);
  }
  return it->second;
}

void SaveLoopCheckpoint(const std::string& path, const LoopState& state,
                        Json progress) {
  const Status saved = [&]() -> Status {
    CheckpointBuilder builder;
    progress["kind"] = state.kind;
    builder.set_meta(std::move(progress));
    std::ostringstream weights;
    ALT_RETURN_IF_ERROR(nn::SaveWeights(state.model, &weights));
    builder.AddBlob("weights", weights.str());
    for (const auto& [name, adam] : state.optimizers) {
      std::ostringstream moments;
      ALT_RETURN_IF_ERROR(adam->SaveState(&moments));
      builder.AddBlob(name, moments.str());
    }
    for (const auto& [name, rng] : state.rngs) {
      builder.AddBlob(name, rng->SaveState());
    }
    return builder.WriteToFile(path);
  }();
  if (!saved.ok()) {
    ALT_LOG(Warning) << state.kind << " checkpoint save failed (continuing): "
                     << saved.ToString();
  }
}

Result<std::optional<Json>> RestoreLoopCheckpoint(
    const std::string& path, const LoopState& state,
    const std::vector<std::string>& progress_keys) {
  Result<CheckpointReader> loaded = CheckpointReader::ReadFromFile(path);
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      return std::optional<Json>();  // A clean start.
    }
    return loaded.status();
  }
  const CheckpointReader& ckpt = loaded.value();
  const Json& kind = ckpt.meta().at("kind");
  if (!kind.is_string() || kind.as_string() != state.kind) {
    return Status::InvalidArgument(path + " is not a " + state.kind +
                                   " checkpoint");
  }
  for (const std::string& key : progress_keys) {
    if (!ckpt.meta().at(key).is_number()) {
      return Status::InvalidArgument("checkpoint has no progress " + key);
    }
  }
  ALT_ASSIGN_OR_RETURN(std::string weights, ckpt.blob("weights"));
  std::istringstream weights_in(weights);
  ALT_RETURN_IF_ERROR(nn::LoadWeights(state.model, &weights_in));
  for (const auto& [name, adam] : state.optimizers) {
    ALT_ASSIGN_OR_RETURN(std::string moments, ckpt.blob(name));
    std::istringstream moments_in(moments);
    ALT_RETURN_IF_ERROR(adam->LoadState(&moments_in));
  }
  for (const auto& [name, rng] : state.rngs) {
    ALT_ASSIGN_OR_RETURN(std::string stream, ckpt.blob(name));
    if (!rng->LoadState(stream)) {
      return Status::InvalidArgument("corrupt RNG state " + name +
                                     " in checkpoint");
    }
  }
  ALT_LOG(Info) << "resumed " << state.kind << " from " << path;
  return std::optional<Json>(ckpt.meta());
}

}  // namespace resilience
}  // namespace alt
