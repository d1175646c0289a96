// ShardMap: consistent hashing over labels/inodes for the multi-node
// cluster (DESIGN.md §10).
//
// The map is an immutable ring: every member node contributes
// `virtual_nodes` points (hashes of (node, vnode)), and a label's
// owner is the node whose point follows the label's hash clockwise.
// Virtual nodes keep per-node key load balanced within a small factor
// of the mean, and consistent hashing guarantees *minimal movement*:
// adding a node only steals keys for that node; removing one only
// redistributes the removed node's keys.
//
// Publication is snapshot-based: a rebalance builds a fresh immutable
// ShardMap at generation+1 and swaps it into the publisher; readers
// (cluster nodes, gateways) hold shared_ptr snapshots, so a stale
// snapshot is always a *valid* map — just one that may cost a
// forwarded hop.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace labstor::cluster {

// Stable 64-bit label hash (FNV-1a). All routing decisions flow
// through this, so the mapping is identical across nodes and runs.
uint64_t HashLabel(std::string_view label);

class ShardMap {
 public:
  static constexpr uint32_t kDefaultVirtualNodes = 64;

  // Builds the ring for `nodes` (deduplicated, order-insensitive:
  // the ring depends only on the member set). Empty `nodes` yields a
  // map that owns nothing (OwnerOf returns kNoOwner).
  static std::shared_ptr<const ShardMap> Build(
      uint64_t generation, const std::vector<uint32_t>& nodes,
      uint32_t virtual_nodes = kDefaultVirtualNodes);

  static constexpr uint32_t kNoOwner = ~0u;

  uint32_t OwnerOf(uint64_t key_hash) const;
  uint32_t OwnerOfLabel(std::string_view label) const {
    return OwnerOf(HashLabel(label));
  }

  uint64_t generation() const { return generation_; }
  const std::vector<uint32_t>& nodes() const { return nodes_; }
  bool Contains(uint32_t node) const;
  uint32_t virtual_nodes() const { return virtual_nodes_; }
  size_t ring_points() const { return ring_.size(); }

 private:
  ShardMap() = default;

  struct Point {
    uint64_t hash;
    uint32_t node;
  };

  uint64_t generation_ = 0;
  uint32_t virtual_nodes_ = kDefaultVirtualNodes;
  std::vector<Point> ring_;     // sorted by (hash, node)
  std::vector<uint32_t> nodes_;  // sorted member set
};

// Publication point: the cluster's single source of truth for the
// *latest* map; nodes route from adopted snapshots. The cluster runs
// only under the single-threaded DES, so nothing here is locked.
class ShardMapPublisher {
 public:
  ShardMapPublisher() = default;
  ShardMapPublisher(const ShardMapPublisher&) = delete;
  ShardMapPublisher& operator=(const ShardMapPublisher&) = delete;

  // Installs `map`; its generation must be strictly greater than the
  // current one (the monotonicity forwarding-loop freedom rests on).
  // Returns false (and installs nothing) otherwise.
  bool Publish(std::shared_ptr<const ShardMap> map);

  std::shared_ptr<const ShardMap> Load() const { return map_; }

 private:
  std::shared_ptr<const ShardMap> map_;
};

}  // namespace labstor::cluster
