#include "labmods/adaptive_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/module_registry.h"

namespace labstor::labmods {

Status AdaptiveCacheMod::Init(const yaml::NodePtr& params,
                              core::ModContext& ctx) {
  if (ctx.telemetry != nullptr) {
    hits_metric_ =
        ctx.telemetry->metrics().GetCounter("cache.adaptive_cache.hits");
    misses_metric_ =
        ctx.telemetry->metrics().GetCounter("cache.adaptive_cache.misses");
  }
  if (params != nullptr) {
    capacity_pages_ = params->GetUint("capacity_pages", 4096);
    decay_ = params->GetDouble("decay", 0.999);
  }
  if (capacity_pages_ == 0) {
    return Status::InvalidArgument("cache capacity must be > 0 pages");
  }
  if (decay_ <= 0.0 || decay_ > 1.0) {
    return Status::InvalidArgument("decay must be in (0, 1]");
  }
  return Status::Ok();
}

void AdaptiveCacheMod::Heat(Page& page) {
  // Lazy exponential decay since the page's last access, then bump.
  const uint64_t elapsed = tick_ - page.last_tick;
  if (elapsed > 0 && decay_ < 1.0) {
    page.heat *= std::pow(decay_, static_cast<double>(std::min<uint64_t>(elapsed, 512)));
  }
  page.heat += 1.0;
  page.last_tick = tick_;
}

AdaptiveCacheMod::Page& AdaptiveCacheMod::GetOrCreate(uint64_t key) {
  ++tick_;
  const auto it = pages_.find(key);
  if (it != pages_.end()) {
    Heat(it->second);
    return it->second;
  }
  if (pages_.size() >= capacity_pages_) {
    // Evict the coldest page (decayed to now).
    auto coldest = pages_.begin();
    double coldest_heat = 1e300;
    for (auto scan = pages_.begin(); scan != pages_.end(); ++scan) {
      const uint64_t idle = tick_ - scan->second.last_tick;
      const double heat =
          scan->second.heat *
          std::pow(decay_, static_cast<double>(std::min<uint64_t>(idle, 512)));
      if (heat < coldest_heat) {
        coldest_heat = heat;
        coldest = scan;
      }
    }
    pages_.erase(coldest);
  }
  Page& page = pages_[key];
  page.data = std::make_unique<uint8_t[]>(kPageSize);
  page.heat = 1.0;
  page.last_tick = tick_;
  return page;
}

void AdaptiveCacheMod::Absorb(const ipc::Request& req) {
  uint64_t pos = 0;
  while (pos < req.length) {
    const uint64_t abs = req.offset + pos;
    const uint64_t key = abs / kPageSize;
    const uint64_t page_off = abs % kPageSize;
    const uint64_t chunk =
        std::min<uint64_t>(kPageSize - page_off, req.length - pos);
    if (chunk == kPageSize || pages_.contains(key)) {
      Page& page = GetOrCreate(key);
      std::memcpy(page.data.get() + page_off, req.data + pos, chunk);
    }
    pos += chunk;
  }
}

Status AdaptiveCacheMod::Process(ipc::Request& req, core::StackExec& exec) {
  const sim::SoftwareCosts& costs = *exec.ctx().costs;
  switch (req.op) {
    case ipc::OpCode::kBlkWrite: {
      exec.trace().Charge("cache", costs.lru_cache_fixed +
                                       costs.CopyCost(req.length));
      if (req.data != nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        Absorb(req);
      }
      return exec.Forward(req);
    }
    case ipc::OpCode::kBlkRead: {
      bool all_hit = req.data != nullptr;
      std::unique_lock<std::mutex> lock(mu_);
      if (all_hit) {
        uint64_t pos = 0;
        while (pos < req.length) {
          const uint64_t abs = req.offset + pos;
          if (!pages_.contains(abs / kPageSize)) {
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
            Page& page = GetOrCreate(key);  // also heats it
            std::memcpy(req.data + pos, page.data.get() + page_off, chunk);
            pos += chunk;
          }
        }
      }
      ++(all_hit ? hits_ : misses_);
      lock.unlock();
      exec.trace().Charge("cache", costs.lru_cache_fixed +
                                       costs.CopyCost(req.length));
      if (all_hit) {
        if (hits_metric_ != nullptr) hits_metric_->Inc(req.worker);
        req.result_u64 = req.length;
        return Status::Ok();
      }
      if (misses_metric_ != nullptr) misses_metric_->Inc(req.worker);
      LABSTOR_RETURN_IF_ERROR(exec.Forward(req));
      if (req.data != nullptr) {
        lock.lock();
        Absorb(req);
      }
      return Status::Ok();
    }
    default:
      return exec.Forward(req);
  }
}

Status AdaptiveCacheMod::StateUpdate(core::LabMod& old) {
  // Accept state from a previous AdaptiveCacheMod, or warm-start from
  // a retiring LruCacheMod being hot-swapped out (cross-mod upgrades
  // are the paper's "swapping one LabMod I/O scheduler for another").
  if (auto* prev = dynamic_cast<AdaptiveCacheMod*>(&old); prev != nullptr) {
    std::scoped_lock lock(mu_, prev->mu_);
    pages_ = std::move(prev->pages_);
    tick_ = prev->tick_;
    hits_ = prev->hits_;
    misses_ = prev->misses_;
    capacity_pages_ = prev->capacity_pages_;
    decay_ = prev->decay_;
    return Status::Ok();
  }
  return Status::InvalidArgument("StateUpdate from incompatible mod");
}

size_t AdaptiveCacheMod::resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size();
}

LABSTOR_REGISTER_LABMOD("adaptive_cache", 1, AdaptiveCacheMod);

}  // namespace labstor::labmods
