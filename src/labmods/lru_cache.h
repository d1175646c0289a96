// LRU page cache LabMod.
//
// A real write-through page cache over 4KB pages: writes are absorbed
// into the cache (data copy — the 17% of Fig. 4a) and forwarded; reads
// are served from cache on hit and forwarded + filled on miss.
// Capacity-bounded with least-recently-used eviction.
//
// Only a request that covers a whole page inserts it. A smaller chunk
// of a write or a miss fill updates its page in place when the page is
// resident, and otherwise bypasses the cache: the cache never saw the
// rest of that page's bytes.
//
// The cache is split into min(16, capacity_pages) shards so that
// workers and sync clients reading different pages take different
// locks. HashBucket of the page index picks a page's shard; each shard
// has its own lock, LRU list, index, an even share of capacity_pages
// (the first capacity_pages % shards shards hold one page more) and
// hit/miss counts. Eviction is LRU within the shard. A request locks
// every shard its pages fall in, in shard order, so a multi-page read
// still hits or misses as a whole.
//
// Memory layout (DESIGN.md §11): Init allocates every page once, as one
// page-aligned arena it never touches, so pages become resident only
// as they fill.
// Each shard owns a run of the arena, one slot per page (its key and
// 32-bit LRU links) and an open-addressed index from key to slot. A
// miss takes an unused slot or evicts the least recent one and reuses
// its page in place: the data path never allocates or frees.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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
  static constexpr uint32_t kNil = UINT32_MAX;

  // Page-aligned, so that a page never straddles two memory pages.
  struct alignas(kPageSize) Page {
    uint8_t bytes[kPageSize];
  };
  // Slot i of a shard holds page i of the shard's run of the arena.
  struct Slot {
    uint64_t key;   // offset / kPageSize
    uint32_t prev;  // toward the most recent; kNil at the head
    uint32_t next;  // toward the least recent; kNil at the tail
  };
  struct Bucket {
    uint64_t key = 0;
    uint32_t slot = kNil;  // kNil: empty
  };

  // Cache-line aligned: threads on neighbouring shards write their
  // locks and counts.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    uint32_t capacity = 0;  // fixed by Init
    uint32_t used = 0;      // slots [0, used) hold pages
    uint32_t head = kNil;   // most recent
    uint32_t tail = kNil;   // least recent
    Page* pages = nullptr;  // capacity pages of the arena
    std::unique_ptr<Slot[]> slots;
    // A power of two at least twice the capacity, linear probing,
    // backward-shift deletion.
    std::unique_ptr<Bucket[]> index;
    uint32_t index_mask = 0;
    int index_shift = 0;  // 32 - log2(index size)
    uint64_t hits = 0;
    uint64_t misses = 0;

    void Allocate(uint32_t pages_in_shard, Page* first_page);
    uint8_t* page(uint32_t slot) const { return pages[slot].bytes; }
    // The slot holding `key`, or kNil. Caller holds mu, as for the
    // rest.
    uint32_t Find(uint64_t key) const;
    // Makes `slot` the most recent.
    void Touch(uint32_t slot);
    // Gives absent `key` an unused slot, or the least recent one after
    // evicting its key, as the most recent page; returns the slot.
    uint32_t Insert(uint64_t key);

   private:
    // The index's home bucket for `key`: the top bits of the low half
    // of the product whose high half HashBucket picks the shard from,
    // so the keys of one shard still spread over its whole index.
    uint32_t Home(uint64_t key) const {
      return static_cast<uint32_t>(key * 0x9E3779B97F4A7C15ULL) >>
             index_shift;
    }
    void Unlink(uint32_t slot);
    void PushFront(uint32_t slot);
    void Erase(uint64_t key);
  };
  class ShardLock;

  Shard& ShardFor(uint64_t key) {
    return shards_[HashBucket(key, shards_.size())];
  }
  // Copies req's payload into its pages (write-through and miss fill):
  // a whole page is refreshed or inserted, a partial chunk updates a
  // resident page and skips an absent one. Caller holds a ShardLock
  // over the request.
  void Absorb(const ipc::Request& req);

  size_t capacity_pages_ = 4096;  // 16 MiB default
  std::unique_ptr<Page[]> arena_;  // capacity_pages_ pages, by Init
  std::vector<Shard> shards_;  // sized once, by Init
  // Telemetry mirrors of the hit/miss counts
  // (cache.lru_cache.{hits,misses}); null when the runtime has no
  // telemetry attached.
  telemetry::Counter* hits_metric_ = nullptr;
  telemetry::Counter* misses_metric_ = nullptr;
};

}  // namespace labstor::labmods
