// Sparse in-memory byte store backing the simulated devices. Pages are
// allocated on first write; unwritten ranges read as zeros, matching a
// freshly-trimmed SSD / zero-filled block device. Thread-safe (sharded
// locks) so real-mode workers can hit one device concurrently.
//
// Pages are found through a two-level radix index: a table of chunk
// pointers sized from the capacity (4096 entries for 8 GiB), each chunk
// holding kChunkPages page pointers. A chunk is created by the first
// write into it and published with a compare-and-swap, so lookups take
// no lock to reach it; a page pointer and the page's bytes are read and
// written only under the lock of the page's shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "common/hash.h"
#include "common/status.h"

namespace labstor::simdev {

class SparseStore {
 public:
  explicit SparseStore(uint64_t capacity_bytes);
  ~SparseStore();
  SparseStore(const SparseStore&) = delete;
  SparseStore& operator=(const SparseStore&) = delete;

  Status Write(uint64_t offset, std::span<const uint8_t> data);
  Status Read(uint64_t offset, std::span<uint8_t> out) const;

  uint64_t capacity() const { return capacity_; }
  // Pages actually materialized (for tests / memory accounting).
  size_t resident_pages() const;

  static constexpr uint64_t kPageSize = 4096;
  static constexpr uint64_t kChunkPages = 512;

 private:
  static constexpr size_t kShards = 16;

  struct Chunk {
    std::unique_ptr<uint8_t[]> pages[kChunkPages];
  };
  // Cache-line aligned: workers on neighbouring shards write their
  // locks.
  struct alignas(64) Shard {
    std::mutex mu;
    size_t pages = 0;  // materialized pages of this shard
  };

  // A hash of the page's 16-page run, not page_index % kShards: LabFS
  // and LabKVS usually start each worker's log slot and allocator pool
  // a multiple of 16 pages apart, so with the modulo those workers' hot
  // pages shared shard locks. Runs rather than single pages keep
  // consecutive pages (a log tail, a file's blocks) in one shard;
  // hashing single pages measured slower on both real-mode benchmark
  // workloads (DESIGN.md §11).
  static constexpr uint64_t kRunPages = 16;
  Shard& ShardFor(uint64_t page_index) const {
    return shards_[HashBucket(page_index / kRunPages, kShards)];
  }
  // The chunk holding `page_index`, created if `create`; null when
  // absent and not created.
  Chunk* ChunkFor(uint64_t page_index, bool create) const;
  bool InRange(uint64_t offset, uint64_t length) const {
    return offset <= capacity_ && length <= capacity_ - offset;
  }

  uint64_t capacity_;
  size_t num_chunks_;
  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  mutable Shard shards_[kShards];
};

}  // namespace labstor::simdev
