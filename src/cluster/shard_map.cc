#include "cluster/shard_map.h"

#include <algorithm>
#include <cassert>

namespace labstor::cluster {
namespace {

// SplitMix64 finalizer: spreads the (node, vnode) pairs uniformly
// around the ring regardless of how dense the node-id space is.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t HashLabel(std::string_view label) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64
  for (const char c : label) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  // FNV mixes low bits weakly for short keys; finalize so ring lookups
  // see uniform high bits too.
  return Mix64(h);
}

std::shared_ptr<const ShardMap> ShardMap::Build(
    uint64_t generation, const std::vector<uint32_t>& nodes,
    uint32_t virtual_nodes) {
  auto map = std::shared_ptr<ShardMap>(new ShardMap());
  map->generation_ = generation;
  map->virtual_nodes_ = virtual_nodes == 0 ? 1 : virtual_nodes;
  map->nodes_ = nodes;
  std::sort(map->nodes_.begin(), map->nodes_.end());
  map->nodes_.erase(std::unique(map->nodes_.begin(), map->nodes_.end()),
                    map->nodes_.end());
  map->ring_.reserve(map->nodes_.size() * map->virtual_nodes_);
  for (const uint32_t node : map->nodes_) {
    for (uint32_t v = 0; v < map->virtual_nodes_; ++v) {
      const uint64_t point =
          Mix64((static_cast<uint64_t>(node) << 32) | v);
      map->ring_.push_back(Point{point, node});
    }
  }
  // Tie-break by node id so the ring is a pure function of the member
  // set (hash collisions across nodes are astronomically unlikely but
  // must not make ownership build-order dependent).
  std::sort(map->ring_.begin(), map->ring_.end(),
            [](const Point& a, const Point& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.node < b.node;
            });
  return map;
}

uint32_t ShardMap::OwnerOf(uint64_t key_hash) const {
  if (ring_.empty()) return kNoOwner;
  // First ring point at or after the key, wrapping to the start.
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const Point& p, uint64_t h) { return p.hash < h; });
  return it == ring_.end() ? ring_.front().node : it->node;
}

bool ShardMap::Contains(uint32_t node) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

bool ShardMapPublisher::Publish(std::shared_ptr<const ShardMap> map) {
  if (map == nullptr) return false;
  if (map_ != nullptr && map->generation() <= map_->generation()) return false;
  map_ = std::move(map);
  return true;
}

}  // namespace labstor::cluster
