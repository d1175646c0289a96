// Sparse in-memory byte store backing the simulated devices. Pages are
// allocated on first write; unwritten ranges read as zeros, matching a
// freshly-trimmed SSD / zero-filled block device. Thread-safe (sharded
// locks) so real-mode workers can hit one device concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "common/hash.h"
#include "common/status.h"

namespace labstor::simdev {

class SparseStore {
 public:
  explicit SparseStore(uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  Status Write(uint64_t offset, std::span<const uint8_t> data);
  Status Read(uint64_t offset, std::span<uint8_t> out) const;

  uint64_t capacity() const { return capacity_; }
  // Pages actually materialized (for tests / memory accounting).
  size_t resident_pages() const;

 private:
  static constexpr uint64_t kPageSize = 4096;
  static constexpr size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages;
  };

  // A hash of the page's 16-page run, not page_index % kShards: LabFS
  // and LabKVS usually start each worker's log slot and allocator pool
  // a multiple of 16 pages apart, so with the modulo those workers' hot
  // pages shared shard locks. Runs rather than single pages keep
  // consecutive pages (a log tail, a file's blocks) in one shard's map;
  // hashing single pages measured slower on both real-mode benchmark
  // workloads (DESIGN.md §11).
  static constexpr uint64_t kRunPages = 16;
  Shard& ShardFor(uint64_t page_index) const {
    return shards_[HashBucket(page_index / kRunPages, kShards)];
  }

  uint64_t capacity_;
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace labstor::simdev
