#ifndef ALT_SRC_SERVING_SHARD_HASH_RING_H_
#define ALT_SRC_SERVING_SHARD_HASH_RING_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace alt {
namespace serving {
namespace shard {

/// Consistent-hash ring with virtual nodes: the routing core of the sharded
/// serving plane. Every shard contributes `vnodes_per_shard` points on a
/// 64-bit ring; a scenario id routes to the owner of the first point at or
/// after its hash (wrapping). Properties the tests pin down:
///   - determinism: the hash is a fixed FNV-1a, so routing is identical
///     across runs, processes, and shard insertion orders;
///   - uniformity: at 128 vnodes the per-shard key share stays within
///     ±15% of 1/N;
///   - minimal disruption: adding/removing one shard moves only the keys
///     adjacent to its vnodes (≲ 1/N, bounded by 2/N in the tests); every
///     other scenario keeps its owner, so a rebalance re-deploys only the
///     failed shard's scenarios.
///
/// Not internally synchronized: the ShardCoordinator mutates the ring only
/// under its control-plane lock and hands out routing decisions by value.
class HashRing {
 public:
  explicit HashRing(int vnodes_per_shard = 128);

  /// Stable 64-bit hash of `key` (FNV-1a with a splitmix64-style avalanche
  /// finalizer) — exposed so tests can pin the routing function itself.
  static uint64_t KeyHash(const std::string& key);

  /// Adds `shard_id`'s virtual nodes. Adding an existing shard is a no-op.
  void AddShard(const std::string& shard_id);

  /// Removes every virtual node of `shard_id`. Unknown ids are a no-op.
  void RemoveShard(const std::string& shard_id);

  int vnodes_per_shard() const { return vnodes_per_shard_; }

  bool HasShard(const std::string& shard_id) const;
  size_t NumShards() const { return shards_.size(); }
  std::vector<std::string> Shards() const;

  /// The owning shard of `key`; FailedPrecondition on an empty ring.
  Result<std::string> Route(const std::string& key) const;

  /// The first `replicas` distinct shards clockwise from `key`'s hash — the
  /// scenario's replica group. Fewer than `replicas` shards on the ring
  /// returns all of them (still deterministic order, owner first).
  std::vector<std::string> RouteReplicas(const std::string& key,
                                         int replicas) const;

 private:
  int vnodes_per_shard_;
  /// vnode hash -> shard id. std::map keeps the ring ordered, so routing is
  /// a lower_bound and insertion order never matters.
  std::map<uint64_t, std::string> ring_;
  std::set<std::string> shards_;
};

}  // namespace shard
}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SHARD_HASH_RING_H_
