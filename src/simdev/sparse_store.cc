#include "simdev/sparse_store.h"

#include <algorithm>
#include <cstring>

namespace labstor::simdev {

SparseStore::SparseStore(uint64_t capacity_bytes)
    : capacity_(capacity_bytes),
      num_chunks_((capacity_bytes + kChunkPages * kPageSize - 1) /
                  (kChunkPages * kPageSize)),
      chunks_(std::make_unique<std::atomic<Chunk*>[]>(num_chunks_)) {}

SparseStore::~SparseStore() {
  for (size_t i = 0; i < num_chunks_; ++i) {
    delete chunks_[i].load(std::memory_order_relaxed);
  }
}

SparseStore::Chunk* SparseStore::ChunkFor(uint64_t page_index,
                                          bool create) const {
  std::atomic<Chunk*>& slot = chunks_[page_index / kChunkPages];
  Chunk* chunk = slot.load(std::memory_order_acquire);
  if (chunk != nullptr || !create) return chunk;
  auto fresh = std::make_unique<Chunk>();
  // Writers under different shard locks can race to create one chunk;
  // the loser adopts the winner's.
  if (slot.compare_exchange_strong(chunk, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh.release();
  }
  return chunk;
}

Status SparseStore::Write(uint64_t offset, std::span<const uint8_t> data) {
  if (!InRange(offset, data.size())) {
    return Status::InvalidArgument("write beyond device capacity");
  }
  uint64_t pos = 0;
  while (pos < data.size()) {
    const uint64_t abs = offset + pos;
    const uint64_t page_index = abs / kPageSize;
    const uint64_t page_off = abs % kPageSize;
    const uint64_t len =
        std::min<uint64_t>(kPageSize - page_off, data.size() - pos);
    auto& page = ChunkFor(page_index, /*create=*/true)
                     ->pages[page_index % kChunkPages];
    Shard& shard = ShardFor(page_index);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (page == nullptr) {
      // Zeroed unless this write covers the whole page.
      page = len == kPageSize
                 ? std::make_unique_for_overwrite<uint8_t[]>(kPageSize)
                 : std::make_unique<uint8_t[]>(kPageSize);
      ++shard.pages;
    }
    std::memcpy(page.get() + page_off, data.data() + pos, len);
    pos += len;
  }
  return Status::Ok();
}

Status SparseStore::Read(uint64_t offset, std::span<uint8_t> out) const {
  if (!InRange(offset, out.size())) {
    return Status::InvalidArgument("read beyond device capacity");
  }
  uint64_t pos = 0;
  while (pos < out.size()) {
    const uint64_t abs = offset + pos;
    const uint64_t page_index = abs / kPageSize;
    const uint64_t page_off = abs % kPageSize;
    const uint64_t len =
        std::min<uint64_t>(kPageSize - page_off, out.size() - pos);
    const Chunk* chunk = ChunkFor(page_index, /*create=*/false);
    if (chunk == nullptr) {
      std::memset(out.data() + pos, 0, len);
    } else {
      std::lock_guard<std::mutex> lock(ShardFor(page_index).mu);
      const uint8_t* page = chunk->pages[page_index % kChunkPages].get();
      if (page == nullptr) {
        std::memset(out.data() + pos, 0, len);
      } else {
        std::memcpy(out.data() + pos, page + page_off, len);
      }
    }
    pos += len;
  }
  return Status::Ok();
}

size_t SparseStore::resident_pages() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.pages;
  }
  return total;
}

}  // namespace labstor::simdev
