#include "src/serving/shard/hash_ring.h"

#include <algorithm>

#include "src/util/logging.h"

namespace alt {
namespace serving {
namespace shard {

HashRing::HashRing(int vnodes_per_shard)
    : vnodes_per_shard_(vnodes_per_shard) {
  ALT_CHECK_GE(vnodes_per_shard, 1);
}

uint64_t HashRing::KeyHash(const std::string& key) {
  // FNV-1a, 64-bit. Fixed constants: routing must be identical across runs
  // and builds (deterministic routing is a tested contract).
  uint64_t h = 14695981039346656037ull;
  for (const char c : key) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  // Raw FNV output clusters for short, similar keys (shard-N#vnode#M), which
  // skews the ring badly; a splitmix64-style finalizer restores avalanche so
  // vnode points spread evenly — still fixed constants, still deterministic.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

void HashRing::AddShard(const std::string& shard_id) {
  if (!shards_.insert(shard_id).second) return;
  for (int v = 0; v < vnodes_per_shard_; ++v) {
    const uint64_t point =
        KeyHash(shard_id + "#vnode#" + std::to_string(v));
    // A hash collision between vnodes of different shards is resolved by
    // the lexicographically smaller shard id, deterministically.
    auto it = ring_.find(point);
    if (it == ring_.end()) {
      ring_.emplace(point, shard_id);
    } else if (shard_id < it->second) {
      it->second = shard_id;
    }
  }
}

void HashRing::RemoveShard(const std::string& shard_id) {
  if (shards_.erase(shard_id) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == shard_id ? ring_.erase(it) : std::next(it);
  }
}

bool HashRing::HasShard(const std::string& shard_id) const {
  return shards_.count(shard_id) > 0;
}

std::vector<std::string> HashRing::Shards() const {
  return std::vector<std::string>(shards_.begin(), shards_.end());
}

Result<std::string> HashRing::Route(const std::string& key) const {
  if (ring_.empty()) {
    return Status::FailedPrecondition("hash ring has no shards");
  }
  auto it = ring_.lower_bound(KeyHash(key));
  if (it == ring_.end()) it = ring_.begin();  // Wrap around.
  return it->second;
}

std::vector<std::string> HashRing::RouteReplicas(const std::string& key,
                                                 int replicas) const {
  std::vector<std::string> out;
  if (ring_.empty() || replicas <= 0) return out;
  const size_t want = std::min<size_t>(static_cast<size_t>(replicas),
                                       shards_.size());
  auto it = ring_.lower_bound(KeyHash(key));
  if (it == ring_.end()) it = ring_.begin();
  while (out.size() < want) {
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
  return out;
}

}  // namespace shard
}  // namespace serving
}  // namespace alt
