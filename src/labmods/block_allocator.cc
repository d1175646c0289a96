#include "labmods/block_allocator.h"

#include <algorithm>
#include <cassert>

namespace labstor::labmods {

PerWorkerAllocator::PerWorkerAllocator(uint64_t first_block,
                                       uint64_t total_blocks,
                                       uint32_t num_workers) {
  assert(num_workers > 0);
  pools_.reserve(num_workers);
  const uint64_t per_worker = total_blocks / num_workers;
  uint64_t cursor = first_block;
  for (uint32_t w = 0; w < num_workers; ++w) {
    auto pool = std::make_unique<Pool>();
    const uint64_t count =
        w + 1 == num_workers ? first_block + total_blocks - cursor : per_worker;
    if (count > 0) {
      pool->free_ranges.emplace(cursor, count);
      pool->free_blocks = count;
    }
    cursor += count;
    pools_.push_back(std::move(pool));
  }
}

PerWorkerAllocator::PerWorkerAllocator(
    const std::vector<BlockExtent>& free_ranges, uint32_t num_workers) {
  assert(num_workers > 0);
  pools_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    pools_.push_back(std::make_unique<Pool>());
  }
  uint32_t target = 0;
  for (const BlockExtent& extent : free_ranges) {
    Pool& pool = *pools_[target % num_workers];
    GiveLocked(pool, extent);
    ++target;
  }
}

std::vector<BlockExtent> PerWorkerAllocator::TakeLocked(Pool& pool,
                                                        uint64_t count) {
  std::vector<BlockExtent> taken;
  while (count > 0 && !pool.free_ranges.empty()) {
    // Prefer the first range large enough; otherwise consume the
    // largest range and continue.
    auto it = pool.free_ranges.begin();
    for (auto scan = pool.free_ranges.begin(); scan != pool.free_ranges.end();
         ++scan) {
      if (scan->second >= count) {
        it = scan;
        break;
      }
      if (scan->second > it->second) it = scan;
    }
    const uint64_t start = it->first;
    const uint64_t available = it->second;
    const uint64_t take = std::min(count, available);
    pool.free_ranges.erase(it);
    if (take < available) {
      pool.free_ranges.emplace(start + take, available - take);
    }
    pool.free_blocks -= take;
    taken.push_back(BlockExtent{start, take});
    count -= take;
  }
  return taken;
}

void PerWorkerAllocator::GiveLocked(Pool& pool, BlockExtent extent) {
  if (extent.count == 0) return;
  uint64_t start = extent.start;
  uint64_t count = extent.count;
  // Coalesce with the predecessor and successor ranges.
  auto next = pool.free_ranges.lower_bound(start);
  if (next != pool.free_ranges.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == start) {
      start = prev->first;
      count += prev->second;
      pool.free_ranges.erase(prev);
    }
  }
  if (next != pool.free_ranges.end() && start + count == next->first) {
    count += next->second;
    pool.free_ranges.erase(next);
  }
  pool.free_ranges.emplace(start, count);
  pool.free_blocks += extent.count;
}

Result<std::vector<BlockExtent>> PerWorkerAllocator::Alloc(uint32_t worker,
                                                           uint64_t count) {
  if (count == 0) return std::vector<BlockExtent>{};
  Pool& own = *pools_[worker % pools_.size()];
  std::vector<BlockExtent> result;
  {
    std::lock_guard<std::mutex> lock(own.mu);
    result = TakeLocked(own, count);
  }
  uint64_t got = 0;
  for (const BlockExtent& e : result) got += e.count;
  while (got < count) {
    // Steal from the richest pool. Another thread may drain it between
    // this scan and the take; the take then comes up short and the
    // loop scans again.
    Pool* richest = nullptr;
    uint64_t richest_free = 0;
    for (const auto& pool : pools_) {
      std::lock_guard<std::mutex> lock(pool->mu);
      if (pool->free_blocks > richest_free) {
        richest_free = pool->free_blocks;
        richest = pool.get();
      }
    }
    if (richest == nullptr || richest_free == 0) {
      // Roll back what we took so failed allocations do not leak.
      std::lock_guard<std::mutex> lock(own.mu);
      for (const BlockExtent& e : result) GiveLocked(own, e);
      return Status::ResourceExhausted("device out of blocks");
    }
    std::lock_guard<std::mutex> lock(richest->mu);
    const std::vector<BlockExtent> stolen =
        TakeLocked(*richest, count - got);
    for (const BlockExtent& e : stolen) {
      got += e.count;
      result.push_back(e);
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

void PerWorkerAllocator::Free(uint32_t worker, BlockExtent extent) {
  Pool& pool = *pools_[worker % pools_.size()];
  std::lock_guard<std::mutex> lock(pool.mu);
  GiveLocked(pool, extent);
}

uint64_t PerWorkerAllocator::FreeBlocks() const {
  uint64_t total = 0;
  for (const auto& pool : pools_) {
    std::lock_guard<std::mutex> lock(pool->mu);
    total += pool->free_blocks;
  }
  return total;
}

uint64_t PerWorkerAllocator::FreeBlocksOf(uint32_t worker) const {
  const Pool& pool = *pools_[worker % pools_.size()];
  std::lock_guard<std::mutex> lock(pool.mu);
  return pool.free_blocks;
}

}  // namespace labstor::labmods
