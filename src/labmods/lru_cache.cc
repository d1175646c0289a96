#include "labmods/lru_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "core/module_registry.h"

namespace labstor::labmods {

// Locks the shards holding the pages of [offset, offset + length), and
// the shard of offset's page, in shard order, so that two requests can
// never wait on each other in a cycle; unlocks on destruction.
class LruCacheMod::ShardLock {
 public:
  ShardLock(LruCacheMod& cache, uint64_t offset, uint64_t length)
      : shards_(cache.shards_) {
    const uint64_t first = offset / kPageSize;
    const uint64_t last =
        length == 0 ? first : (offset + length - 1) / kPageSize;
    const uint32_t all = (1u << shards_.size()) - 1;
    for (uint64_t key = first; key <= last && mask_ != all; ++key) {
      mask_ |= 1u << HashBucket(key, shards_.size());
    }
    for (uint32_t m = mask_; m != 0; m &= m - 1) {
      shards_[std::countr_zero(m)].mu.lock();
    }
  }
  ~ShardLock() {
    for (uint32_t m = mask_; m != 0; m &= m - 1) {
      shards_[std::countr_zero(m)].mu.unlock();
    }
  }
  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

 private:
  std::vector<Shard>& shards_;
  uint32_t mask_ = 0;
};

Status LruCacheMod::Init(const yaml::NodePtr& params, core::ModContext& ctx) {
  if (ctx.telemetry != nullptr) {
    hits_metric_ = ctx.telemetry->metrics().GetCounter("cache.lru_cache.hits");
    misses_metric_ =
        ctx.telemetry->metrics().GetCounter("cache.lru_cache.misses");
  }
  if (params != nullptr) {
    capacity_pages_ = params->GetUint("capacity_pages", 4096);
  }
  if (capacity_pages_ == 0) {
    return Status::InvalidArgument("cache capacity must be > 0 pages");
  }
  if (capacity_pages_ >= (uint64_t{1} << 32)) {
    return Status::InvalidArgument("cache capacity must be < 2^32 pages");
  }
  // Default-initialized: the kernel maps the arena's pages in as they
  // are first written.
  arena_.reset(new (std::nothrow) Page[capacity_pages_]);
  if (arena_ == nullptr) {
    return Status::ResourceExhausted("cache arena allocation failed");
  }
  const size_t n = std::min(kMaxShards, capacity_pages_);
  shards_ = std::vector<Shard>(n);
  Page* next = arena_.get();
  for (size_t i = 0; i < n; ++i) {
    const auto pages =
        static_cast<uint32_t>(capacity_pages_ / n + (i < capacity_pages_ % n));
    shards_[i].Allocate(pages, next);
    next += pages;
  }
  return Status::Ok();
}

void LruCacheMod::Shard::Allocate(uint32_t pages_in_shard,
                                  Page* first_page) {
  capacity = pages_in_shard;
  pages = first_page;
  slots = std::make_unique_for_overwrite<Slot[]>(capacity);
  const uint64_t buckets = std::bit_ceil(uint64_t{2} * capacity);
  index = std::make_unique<Bucket[]>(buckets);
  index_mask = static_cast<uint32_t>(buckets - 1);
  index_shift = 32 - std::countr_zero(buckets);
}

uint32_t LruCacheMod::Shard::Find(uint64_t key) const {
  for (uint32_t b = Home(key);; b = (b + 1) & index_mask) {
    const Bucket& bucket = index[b];
    if (bucket.slot == kNil || bucket.key == key) return bucket.slot;
  }
}

void LruCacheMod::Shard::Unlink(uint32_t slot) {
  const Slot& s = slots[slot];
  (s.prev == kNil ? head : slots[s.prev].next) = s.next;
  (s.next == kNil ? tail : slots[s.next].prev) = s.prev;
}

void LruCacheMod::Shard::PushFront(uint32_t slot) {
  slots[slot].prev = kNil;
  slots[slot].next = head;
  (head == kNil ? tail : slots[head].prev) = slot;
  head = slot;
}

void LruCacheMod::Shard::Touch(uint32_t slot) {
  if (slot == head) return;
  Unlink(slot);
  PushFront(slot);
}

void LruCacheMod::Shard::Erase(uint64_t key) {
  uint32_t hole = Home(key);
  while (index[hole].key != key) hole = (hole + 1) & index_mask;
  // Backward shift: pull each later entry of the probe run into the
  // hole unless its home lies cyclically in (hole, entry].
  for (uint32_t b = (hole + 1) & index_mask; index[b].slot != kNil;
       b = (b + 1) & index_mask) {
    const uint32_t home = Home(index[b].key);
    if (((b - home) & index_mask) >= ((b - hole) & index_mask)) {
      index[hole] = index[b];
      hole = b;
    }
  }
  index[hole].slot = kNil;
}

uint32_t LruCacheMod::Shard::Insert(uint64_t key) {
  uint32_t slot;
  if (used < capacity) {
    slot = used++;
  } else {
    slot = tail;
    Unlink(slot);
    Erase(slots[slot].key);
  }
  slots[slot].key = key;
  PushFront(slot);
  uint32_t b = Home(key);
  while (index[b].slot != kNil) b = (b + 1) & index_mask;
  index[b] = Bucket{key, slot};
  return slot;
}

void LruCacheMod::Absorb(const ipc::Request& req) {
  uint64_t pos = 0;
  while (pos < req.length) {
    const uint64_t abs = req.offset + pos;
    const uint64_t key = abs / kPageSize;
    const uint64_t page_off = abs % kPageSize;
    const uint64_t chunk =
        std::min<uint64_t>(kPageSize - page_off, req.length - pos);
    Shard& shard = ShardFor(key);
    uint32_t slot = shard.Find(key);
    if (slot != kNil) {
      shard.Touch(slot);
    } else if (chunk == kPageSize) {
      slot = shard.Insert(key);
    }
    if (slot != kNil) {
      std::memcpy(shard.page(slot) + page_off, req.data + pos, chunk);
    }
    pos += chunk;
  }
}

Status LruCacheMod::Process(ipc::Request& req, core::StackExec& exec) {
  const sim::SoftwareCosts& costs = *exec.ctx().costs;
  switch (req.op) {
    case ipc::OpCode::kBlkWrite: {
      // Write-through: absorb into the cache (one copy), forward.
      exec.trace().Charge("cache", costs.lru_cache_fixed +
                                       costs.CopyCost(req.length));
      if (req.data != nullptr) {
        ShardLock lock(*this, req.offset, req.length);
        Absorb(req);
      }
      return exec.Forward(req);
    }
    case ipc::OpCode::kBlkRead: {
      // Serve fully-cached reads without touching the device.
      bool all_hit = req.data != nullptr;
      {
        ShardLock lock(*this, req.offset, req.length);
        if (all_hit) {
          uint64_t pos = 0;
          while (pos < req.length) {
            const uint64_t abs = req.offset + pos;
            const uint64_t key = abs / kPageSize;
            if (ShardFor(key).Find(key) == kNil) {
              all_hit = false;
              break;
            }
            pos += kPageSize - (abs % kPageSize);
          }
        }
        if (all_hit) {
          uint64_t pos = 0;
          while (pos < req.length) {
            const uint64_t abs = req.offset + pos;
            const uint64_t key = abs / kPageSize;
            const uint64_t page_off = abs % kPageSize;
            const uint64_t chunk =
                std::min<uint64_t>(kPageSize - page_off, req.length - pos);
            Shard& shard = ShardFor(key);
            const uint32_t slot = shard.Find(key);
            shard.Touch(slot);
            std::memcpy(req.data + pos, shard.page(slot) + page_off, chunk);
            pos += chunk;
          }
        }
        Shard& home = ShardFor(req.offset / kPageSize);
        ++(all_hit ? home.hits : home.misses);
      }
      if (all_hit) {
        if (hits_metric_ != nullptr) hits_metric_->Inc(req.worker);
        exec.trace().Charge("cache", costs.lru_cache_fixed +
                                         costs.CopyCost(req.length));
        req.result_u64 = req.length;
        return Status::Ok();
      }
      if (misses_metric_ != nullptr) misses_metric_->Inc(req.worker);
      exec.trace().Charge("cache", costs.lru_cache_fixed +
                                       costs.CopyCost(req.length));
      LABSTOR_RETURN_IF_ERROR(exec.Forward(req));
      // Fill the cache from the device data.
      if (req.data != nullptr) {
        ShardLock lock(*this, req.offset, req.length);
        Absorb(req);
      }
      return Status::Ok();
    }
    default:
      // Metadata/flush ops pass through untouched.
      return exec.Forward(req);
  }
}

Status LruCacheMod::StateUpdate(core::LabMod& old) {
  auto* prev = dynamic_cast<LruCacheMod*>(&old);
  if (prev == nullptr) {
    return Status::InvalidArgument("StateUpdate from incompatible mod");
  }
  // Pages are copied least recent first, so each keeps its recency
  // within the shard it lands in: the same shard, in the same order,
  // when the shard count is unchanged. Locks nest old shard, then new
  // shard. The old instance keeps its pages, so an upgrade that is
  // abandoned after this leaves it as it was.
  for (size_t i = 0; i < prev->shards_.size(); ++i) {
    const Shard& from = prev->shards_[i];
    std::lock_guard<std::mutex> from_lock(from.mu);
    for (uint32_t s = from.tail; s != kNil; s = from.slots[s].prev) {
      const uint64_t key = from.slots[s].key;
      Shard& to = ShardFor(key);
      std::lock_guard<std::mutex> to_lock(to.mu);
      uint32_t slot = to.Find(key);
      if (slot == kNil) {
        slot = to.Insert(key);
      } else {
        to.Touch(slot);
      }
      std::memcpy(to.page(slot), from.page(s), kPageSize);
    }
    Shard& counts = shards_[i % shards_.size()];
    std::lock_guard<std::mutex> counts_lock(counts.mu);
    counts.hits += from.hits;
    counts.misses += from.misses;
  }
  // Configuration (capacity_pages_) is deliberately NOT copied here:
  // it flows from Init with the stored creation params, same as on
  // first instantiation. StateUpdate migrates only mutable state.
  return Status::Ok();
}

uint64_t LruCacheMod::hits() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

uint64_t LruCacheMod::misses() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

size_t LruCacheMod::resident_pages() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.used;
  }
  return total;
}

LABSTOR_REGISTER_LABMOD("lru_cache", 1, LruCacheMod);

}  // namespace labstor::labmods
