// LRU page cache LabMod.
//
// A real write-through page cache over 4KB pages: writes are absorbed
// into the cache (data copy — the 17% of Fig. 4a) and forwarded; reads
// are served from cache on hit and forwarded + filled on miss.
// Capacity-bounded with least-recently-used eviction.
//
// The cache is split into min(16, capacity_pages) shards so that
// workers and sync clients reading different pages take different
// locks. HashBucket of the page index picks a page's shard; each shard
// has its own lock, LRU list, index, an even share of capacity_pages
// (the first capacity_pages % shards shards hold one page more) and
// hit/miss counts. Eviction is LRU within the shard. A request locks
// every shard its pages fall in, in shard order, so a multi-page read
// still hits or misses as a whole.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/labmod.h"
#include "core/stack_exec.h"

namespace labstor::labmods {

class LruCacheMod final : public core::LabMod {
 public:
  // `version` lets tests register higher versions of the same code
  // object (live-upgrade regression coverage); the shipped registration
  // stays v1.
  explicit LruCacheMod(uint32_t version = 1)
      : core::LabMod("lru_cache", core::ModType::kCache, version) {}

  Status Init(const yaml::NodePtr& params, core::ModContext& ctx) override;
  Status Process(ipc::Request& req, core::StackExec& exec) override;

  Status StateUpdate(core::LabMod& old) override;
  sim::Time EstProcessingTime() const override { return 5 * sim::kUs; }

  // Introspection for tests/benches, summed over the shards under
  // their locks: several workers can read through one shared instance.
  // A read counts once, in the shard of its first page.
  uint64_t hits() const;
  uint64_t misses() const;
  size_t resident_pages() const;
  size_t capacity_pages() const { return capacity_pages_; }

 private:
  static constexpr uint64_t kPageSize = 4096;
  static constexpr size_t kMaxShards = 16;

  struct Page {
    uint64_t key;  // offset / kPageSize
    std::unique_ptr<uint8_t[]> data;
  };
  using LruList = std::list<Page>;

  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;  // fixed by Init
    LruList lru;          // front = most recent
    std::unordered_map<uint64_t, LruList::iterator> index;
    uint64_t hits = 0;
    uint64_t misses = 0;

    // Returns the page for `key`, creating it (and evicting this
    // shard's least recent page when full) if absent. Marks it
    // most-recently-used. Caller holds mu.
    Page& TouchOrCreate(uint64_t key);
  };
  class ShardLock;

  Shard& ShardFor(uint64_t key) {
    return shards_[HashBucket(key, shards_.size())];
  }
  // Copies req's payload into its pages (write-through and miss fill).
  // Caller holds a ShardLock over the request.
  void Absorb(const ipc::Request& req);

  size_t capacity_pages_ = 4096;  // 16 MiB default
  std::vector<Shard> shards_;  // sized once, by Init
  // Telemetry mirrors of the hit/miss counts
  // (cache.lru_cache.{hits,misses}); null when the runtime has no
  // telemetry attached.
  telemetry::Counter* hits_metric_ = nullptr;
  telemetry::Counter* misses_metric_ = nullptr;
};

}  // namespace labstor::labmods
