// LRU page cache LabMod.
//
// A real write-through page cache over 4KB pages: writes are absorbed
// into the cache (data copy — the 17% of Fig. 4a) and forwarded; reads
// are served from cache on hit and forwarded + filled on miss.
// Capacity-bounded with least-recently-used eviction.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

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

  // Introspection for tests/benches. Counted and read under mu_:
  // several workers can read through one shared instance.
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  size_t resident_pages() const;
  size_t capacity_pages() const { return capacity_pages_; }

 private:
  static constexpr uint64_t kPageSize = 4096;

  struct Page {
    uint64_t key;  // offset / kPageSize
    std::unique_ptr<uint8_t[]> data;
  };
  using LruList = std::list<Page>;

  // Returns the page for `key`, creating (and possibly evicting) if
  // absent. Marks it most-recently-used. Caller holds mu_.
  Page& TouchOrCreate(uint64_t key, bool* created);

  size_t capacity_pages_ = 4096;  // 16 MiB default
  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<uint64_t, LruList::iterator> index_;
  uint64_t hits_ = 0;    // guarded by mu_
  uint64_t misses_ = 0;  // guarded by mu_
  // Telemetry mirrors of hits_/misses_ (cache.lru_cache.{hits,misses});
  // null when the runtime has no telemetry attached.
  telemetry::Counter* hits_metric_ = nullptr;
  telemetry::Counter* misses_metric_ = nullptr;
};

}  // namespace labstor::labmods
