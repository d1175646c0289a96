#include "labmods/lru_cache.h"

#include <cstring>

#include "core/module_registry.h"

namespace labstor::labmods {

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
  return Status::Ok();
}

LruCacheMod::Page& LruCacheMod::TouchOrCreate(uint64_t key, bool* created) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    *created = false;
    return *it->second;
  }
  if (lru_.size() >= capacity_pages_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Page{key, std::make_unique<uint8_t[]>(kPageSize)});
  index_[key] = lru_.begin();
  *created = true;
  return lru_.front();
}

Status LruCacheMod::Process(ipc::Request& req, core::StackExec& exec) {
  const sim::SoftwareCosts& costs = *exec.ctx().costs;
  switch (req.op) {
    case ipc::OpCode::kBlkWrite: {
      // Write-through: absorb into the cache (one copy), forward.
      exec.trace().Charge("cache", costs.lru_cache_fixed +
                                       costs.CopyCost(req.length));
      if (req.data != nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t pos = 0;
        while (pos < req.length) {
          const uint64_t abs = req.offset + pos;
          const uint64_t key = abs / kPageSize;
          const uint64_t page_off = abs % kPageSize;
          const uint64_t chunk =
              std::min<uint64_t>(kPageSize - page_off, req.length - pos);
          bool created = false;
          Page& page = TouchOrCreate(key, &created);
          std::memcpy(page.data.get() + page_off, req.data + pos, chunk);
          pos += chunk;
        }
      }
      return exec.Forward(req);
    }
    case ipc::OpCode::kBlkRead: {
      // Serve fully-cached reads without touching the device.
      bool all_hit = req.data != nullptr;
      std::unique_lock<std::mutex> lock(mu_);
      if (all_hit) {
        uint64_t pos = 0;
        while (pos < req.length) {
          const uint64_t abs = req.offset + pos;
          const uint64_t key = abs / kPageSize;
          if (!index_.contains(key)) {
            all_hit = false;
            break;
          }
          pos += kPageSize - (abs % kPageSize);
        }
        if (all_hit) {
          pos = 0;
          while (pos < req.length) {
            const uint64_t abs = req.offset + pos;
            const uint64_t key = abs / kPageSize;
            const uint64_t page_off = abs % kPageSize;
            const uint64_t chunk =
                std::min<uint64_t>(kPageSize - page_off, req.length - pos);
            const auto it = index_.find(key);
            lru_.splice(lru_.begin(), lru_, it->second);
            std::memcpy(req.data + pos, it->second->data.get() + page_off,
                        chunk);
            pos += chunk;
          }
        }
      }
      ++(all_hit ? hits_ : misses_);
      lock.unlock();
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
        lock.lock();
        uint64_t pos = 0;
        while (pos < req.length) {
          const uint64_t abs = req.offset + pos;
          const uint64_t key = abs / kPageSize;
          const uint64_t page_off = abs % kPageSize;
          const uint64_t chunk =
              std::min<uint64_t>(kPageSize - page_off, req.length - pos);
          bool created = false;
          Page& page = TouchOrCreate(key, &created);
          std::memcpy(page.data.get() + page_off, req.data + pos, chunk);
          pos += chunk;
        }
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
  std::scoped_lock lock(mu_, prev->mu_);
  lru_ = std::move(prev->lru_);
  index_.clear();
  for (auto it = lru_.begin(); it != lru_.end(); ++it) index_[it->key] = it;
  hits_ = prev->hits_;
  misses_ = prev->misses_;
  // Configuration (capacity_pages_) is deliberately NOT copied here:
  // it flows from Init with the stored creation params, same as on
  // first instantiation. StateUpdate migrates only mutable state.
  return Status::Ok();
}

size_t LruCacheMod::resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

LABSTOR_REGISTER_LABMOD("lru_cache", 1, LruCacheMod);

}  // namespace labstor::labmods
