#include "labmods/fslog.h"

#include <algorithm>
#include <cstddef>
#include <string>

#include "common/crc32.h"

namespace labstor::labmods {

MetadataLog::MetadataLog(simdev::SimDevice* device, uint64_t region_offset,
                         uint32_t workers, uint64_t per_worker_records)
    : device_(device),
      region_offset_(region_offset),
      workers_(workers),
      per_worker_(per_worker_records),
      cursors_(workers, 0) {
  worker_mu_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    worker_mu_.push_back(std::make_unique<std::mutex>());
  }
}

Result<uint64_t> MetadataLog::Append(uint32_t worker, LogRecord record) {
  const uint32_t w = worker % workers_;
  std::lock_guard<std::mutex> lock(*worker_mu_[w]);
  if (cursors_[w] >= per_worker_) {
    return Status::ResourceExhausted("worker " + std::to_string(w) +
                                     " log region full");
  }
  record.magic = LogRecord::kMagic;
  record.seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
  record.crc = Crc32(&record, offsetof(LogRecord, crc));
  const uint64_t offset = region_offset_ +
                          (static_cast<uint64_t>(w) * per_worker_ +
                           cursors_[w]) * kSlot;
  const auto* bytes = reinterpret_cast<const uint8_t*>(&record);
  LABSTOR_RETURN_IF_ERROR(
      device_->WriteNow(offset, std::span(bytes, sizeof(LogRecord))));
  ++cursors_[w];
  return record.seq;
}

Status MetadataLog::Replay(
    const std::function<Status(const LogRecord&)>& fn) const {
  last_replay_torn_.store(0, std::memory_order_relaxed);
  std::vector<LogRecord> records;
  for (uint32_t w = 0; w < workers_; ++w) {
    std::lock_guard<std::mutex> lock(*worker_mu_[w]);
    for (uint64_t slot = 0; slot < per_worker_; ++slot) {
      LogRecord record;
      auto* bytes = reinterpret_cast<uint8_t*>(&record);
      const uint64_t offset =
          region_offset_ + (static_cast<uint64_t>(w) * per_worker_ + slot) * kSlot;
      LABSTOR_RETURN_IF_ERROR(
          device_->ReadNow(offset, std::span(bytes, sizeof(LogRecord))));
      if (record.magic != LogRecord::kMagic) break;  // end of this region
      if (record.crc != Crc32(&record, offsetof(LogRecord, crc))) {
        // Torn write: the slot was only partially persisted before a
        // crash. Everything after it in this region is younger, so
        // treat it as the end of the region's durable tail.
        torn_dropped_.fetch_add(1, std::memory_order_relaxed);
        last_replay_torn_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      records.push_back(record);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; });
  for (const LogRecord& record : records) {
    LABSTOR_RETURN_IF_ERROR(fn(record));
  }
  return Status::Ok();
}

Result<std::unique_ptr<LogStore>> LogStore::Open(const yaml::NodePtr& params,
                                                 const core::ModContext& ctx) {
  if (ctx.devices == nullptr) {
    return Status::FailedPrecondition("no device registry in context");
  }
  const auto param = [&](const char* key, uint64_t fallback) {
    return params != nullptr ? params->GetUint(key, fallback) : fallback;
  };
  const std::string device_name =
      params != nullptr ? params->GetString("device", "nvme0") : "nvme0";
  LABSTOR_ASSIGN_OR_RETURN(device, ctx.devices->Find(device_name));
  const uint64_t capacity = device->params().capacity_bytes;
  const uint64_t region_offset = param("region_offset_mb", 0) << 20;
  uint64_t region_size = param("region_size_mb", 0) << 20;
  if (region_size == 0) {
    if (region_offset >= capacity) {
      return Status::InvalidArgument("region starts beyond the device");
    }
    region_size = capacity - region_offset;
  }
  if (region_offset + region_size > capacity) {
    return Status::InvalidArgument("region exceeds device capacity");
  }
  auto store = std::make_unique<LogStore>();
  store->device_ = device;
  store->workers_ = ctx.num_workers > 0 ? ctx.num_workers : 1;
  store->log_ = std::make_unique<MetadataLog>(
      device, region_offset, store->workers_,
      param("log_records_per_worker", 16384));
  const uint64_t log_blocks =
      (store->log_->region_bytes() + kBlockSize - 1) / kBlockSize;
  const uint64_t region_blocks = region_size / kBlockSize;
  if (log_blocks + 16 > region_blocks) {
    return Status::InvalidArgument("region too small for the metadata log");
  }
  store->data_first_block_ = region_offset / kBlockSize + log_blocks;
  store->data_blocks_ = region_blocks - log_blocks;
  store->alloc_ = std::make_unique<PerWorkerAllocator>(
      store->data_first_block_, store->data_blocks_, store->workers_);
  return store;
}

Status LogStore::Append(uint32_t worker, const LogRecord& record,
                        core::StackExec& exec) {
  return AppendGroup(worker, std::span(&record, 1), exec);
}

Status LogStore::AppendGroup(uint32_t worker,
                             std::span<const LogRecord> records,
                             core::StackExec& exec) {
  for (const LogRecord& record : records) {
    LABSTOR_RETURN_IF_ERROR(log_->Append(worker, record).status());
  }
  // Log appends are flushed asynchronously in segment-sized batches
  // (log-structured group commit): one device write absorbs
  // kLogFlushBatch units, and it never gates client completion.
  constexpr uint64_t kLogFlushBatch = 32;
  const uint64_t pending =
      pending_[worker % kChargeSlots].fetch_add(1, std::memory_order_relaxed) +
      1;
  if (pending % kLogFlushBatch == 0) {
    exec.trace().Device(device_, simdev::IoOp::kWrite, worker % 31, 0,
                        kLogFlushBatch * sizeof(LogRecord), /*async=*/true);
  }
  return Status::Ok();
}

void LogStore::RebuildAllocator(std::vector<uint64_t> used) {
  std::sort(used.begin(), used.end());
  std::vector<BlockExtent> free_ranges;
  uint64_t cursor = data_first_block_;
  const uint64_t end = data_first_block_ + data_blocks_;
  for (const uint64_t block : used) {
    if (block > cursor) {
      free_ranges.push_back(BlockExtent{cursor, block - cursor});
    }
    cursor = std::max(cursor, block + 1);
  }
  if (cursor < end) free_ranges.push_back(BlockExtent{cursor, end - cursor});
  alloc_ = std::make_unique<PerWorkerAllocator>(free_ranges, workers_);
}

}  // namespace labstor::labmods
