// Scalable per-worker block allocator (paper §III-E):
//
//   "LabFS uses a scalable per-worker block allocator, which evenly
//    divides device blocks among the pool of workers. Workers can
//    steal from one another if more space is needed."
//
// The pools are sized once, to the runtime's worker bound, and never
// reshaped. The paper's resize cases need no code of their own: a
// decommissioned worker's free blocks stay reachable because any
// worker that runs dry steals from the richest pool, and a newly
// active worker starts with the pool it was given at startup.
//
// Pools hold coalescing free-range maps, so sequential workloads cost
// O(1) memory regardless of file size. Each pool has its own lock and
// nothing else is shared: same-worker allocations never contend,
// matching the paper's contention-minimization claim. The `worker`
// argument is req.worker: a runtime worker's index, or on a sync stack
// the slot the client took at Connect, so sync clients allocate from
// different pools too.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace labstor::labmods {

struct BlockExtent {
  uint64_t start = 0;  // block index
  uint64_t count = 0;
};

class PerWorkerAllocator {
 public:
  // Blocks [first_block, first_block + total_blocks) divided evenly
  // among `num_workers` pools.
  PerWorkerAllocator(uint64_t first_block, uint64_t total_blocks,
                     uint32_t num_workers);

  // Rebuild from an explicit free set (crash recovery: the survivors
  // are whatever the replayed inode maps do not claim). Ranges are
  // distributed round-robin across pools.
  PerWorkerAllocator(const std::vector<BlockExtent>& free_ranges,
                     uint32_t num_workers);

  // Allocate up to `count` blocks for `worker`, preferring contiguous
  // runs from its own pool, stealing from the richest pool when dry.
  // Returns fewer/multiple extents as fragmentation dictates; fails
  // only when the device is truly full.
  Result<std::vector<BlockExtent>> Alloc(uint32_t worker, uint64_t count);

  // Return blocks to `worker`'s pool (coalescing).
  void Free(uint32_t worker, BlockExtent extent);

  uint64_t FreeBlocks() const;
  uint64_t FreeBlocksOf(uint32_t worker) const;
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  struct Pool {
    mutable std::mutex mu;
    std::map<uint64_t, uint64_t> free_ranges;  // start -> count
    uint64_t free_blocks = 0;
  };

  // Takes up to `count` blocks from `pool` (caller holds pool.mu).
  std::vector<BlockExtent> TakeLocked(Pool& pool, uint64_t count);
  void GiveLocked(Pool& pool, BlockExtent extent);

  // Fixed at construction: only the pools' contents change.
  std::vector<std::unique_ptr<Pool>> pools_;
  std::atomic<uint64_t> steals_{0};
};

}  // namespace labstor::labmods
