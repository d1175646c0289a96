// Adaptive cache LabMod — the paper's "new and exotic ideas, such as
// ... ML-driven cache eviction algorithms" slot.
//
// A frequency-aware eviction policy in the spirit of ARC/TinyLFU:
// pages carry an exponentially-decayed access counter ("learned"
// popularity); eviction removes the coldest page rather than the
// least-recently-used one, which protects hot pages against scans —
// the failure mode the paper's time-series-analysis example targets.
// Plug-compatible with LruCacheMod (same ModType, same params), so a
// LabStack can hot-swap one for the other via modify_stack.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/labmod.h"
#include "core/stack_exec.h"

namespace labstor::labmods {

class AdaptiveCacheMod final : public core::LabMod {
 public:
  AdaptiveCacheMod()
      : core::LabMod("adaptive_cache", core::ModType::kCache, 1) {}

  Status Init(const yaml::NodePtr& params, core::ModContext& ctx) override;
  Status Process(ipc::Request& req, core::StackExec& exec) override;
  Status StateUpdate(core::LabMod& old) override;
  sim::Time EstProcessingTime() const override { return 6 * sim::kUs; }

  // Counted and read under mu_: several workers can read through one
  // shared instance.
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  size_t resident_pages() const;

 private:
  static constexpr uint64_t kPageSize = 4096;

  struct Page {
    std::unique_ptr<uint8_t[]> data;
    double heat = 1.0;      // decayed access frequency
    uint64_t last_tick = 0; // for lazy decay
  };

  // Touch (and lazily decay) a page's heat. Caller holds mu_.
  void Heat(Page& page);
  // Insert-or-get with coldest-page eviction. Caller holds mu_.
  Page& GetOrCreate(uint64_t key);
  // Copies the request's bytes into the cache: a chunk that covers a
  // whole page inserts it, a smaller one updates a resident page in
  // place and otherwise bypasses the cache (a page is never created
  // from part of its bytes). Caller holds mu_.
  void Absorb(const ipc::Request& req);

  size_t capacity_pages_ = 4096;
  double decay_ = 0.999;  // per-tick multiplicative cooling
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Page> pages_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;    // guarded by mu_
  uint64_t misses_ = 0;  // guarded by mu_
  // Telemetry mirrors (cache.adaptive_cache.{hits,misses}); null when
  // the runtime has no telemetry attached.
  telemetry::Counter* hits_metric_ = nullptr;
  telemetry::Counter* misses_metric_ = nullptr;
};

}  // namespace labstor::labmods
