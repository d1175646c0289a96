#include "labmods/lru_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

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
  const size_t n = std::min(kMaxShards, capacity_pages_);
  shards_ = std::vector<Shard>(n);
  for (size_t i = 0; i < n; ++i) {
    shards_[i].capacity = capacity_pages_ / n + (i < capacity_pages_ % n);
  }
  return Status::Ok();
}

LruCacheMod::Page& LruCacheMod::Shard::TouchOrCreate(uint64_t key) {
  const auto it = index.find(key);
  if (it != index.end()) {
    lru.splice(lru.begin(), lru, it->second);
    return *it->second;
  }
  if (lru.size() >= capacity) {
    index.erase(lru.back().key);
    lru.pop_back();
  }
  lru.push_front(Page{key, std::make_unique<uint8_t[]>(kPageSize)});
  index[key] = lru.begin();
  return lru.front();
}

void LruCacheMod::Absorb(const ipc::Request& req) {
  uint64_t pos = 0;
  while (pos < req.length) {
    const uint64_t abs = req.offset + pos;
    const uint64_t key = abs / kPageSize;
    const uint64_t page_off = abs % kPageSize;
    const uint64_t chunk =
        std::min<uint64_t>(kPageSize - page_off, req.length - pos);
    Page& page = ShardFor(key).TouchOrCreate(key);
    std::memcpy(page.data.get() + page_off, req.data + pos, chunk);
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
            if (!ShardFor(key).index.contains(key)) {
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
            const auto it = shard.index.find(key);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            std::memcpy(req.data + pos, it->second->data.get() + page_off,
                        chunk);
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
  // Pages move least recent first, so each keeps its recency within
  // the shard it lands in: the same shard, in the same order, when the
  // shard count is unchanged. Locks nest old shard, then new shard.
  for (size_t i = 0; i < prev->shards_.size(); ++i) {
    Shard& from = prev->shards_[i];
    std::lock_guard<std::mutex> from_lock(from.mu);
    while (!from.lru.empty()) {
      const auto page = std::prev(from.lru.end());
      Shard& to = ShardFor(page->key);
      std::lock_guard<std::mutex> to_lock(to.mu);
      to.lru.splice(to.lru.begin(), from.lru, page);
      to.index[page->key] = page;
      if (to.lru.size() > to.capacity) {
        to.index.erase(to.lru.back().key);
        to.lru.pop_back();
      }
    }
    from.index.clear();
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
    total += shard.lru.size();
  }
  return total;
}

LABSTOR_REGISTER_LABMOD("lru_cache", 1, LruCacheMod);

}  // namespace labstor::labmods
