// The store core shared by LabFS and LabKVS: a per-worker metadata log
// and the LogStore that pairs it with the per-worker block allocator.
//
// Paper §III-E: "As opposed to storing inodes and bitmaps on-disk as
// traditional FSes do, LabFS only stores the log and reconstructs
// inodes in-memory by traversing the log." LabKVS is "similarly
// designed to LabFS", so both keep exactly this on the device.
//
// Each worker slot owns a contiguous log region on the device and
// appends fixed-size records; Replay() scans all regions, merges
// records by sequence number, and hands them to the filesystem to
// rebuild its in-memory state — which is exactly what StateRepair does
// after a Runtime crash. The slot is req.worker: a runtime worker's
// index on an async stack, the client's slot (Client::slot()) on a
// sync one, so concurrent sync clients append under different locks.
// Each record carries a CRC-32 (common/crc32.h, table-driven), computed
// inside the slot's lock on append and checked on replay.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/labmod.h"
#include "core/stack_exec.h"
#include "labmods/block_allocator.h"
#include "simdev/sim_device.h"

namespace labstor::labmods {

enum class LogOp : uint16_t {
  kInvalid = 0,
  kCreate = 1,    // a = is_dir
  kUnlink = 2,
  kRename = 3,    // path = new path
  kTruncate = 4,  // a = new size
  kMap = 5,       // a = file block index, b = phys block, c = block count
  kSize = 6,      // a = new size
  // Transaction markers bracketing a pushdown chain's mutating suffix
  // (inode_id = chain id). Replay applies the records between a begin
  // and its commit atomically; an abort (a step failed) or an
  // unmatched begin at the end of the scan (crash mid-chain) discards
  // them, so a partially executed chain leaves no acked effect.
  // Pre-txn readers ignore all three ops.
  kTxnBegin = 7,
  kTxnCommit = 8,
  kTxnAbort = 9,
};

struct LogRecord {
  static constexpr uint32_t kMagic = 0x4C414253;  // "LABS"
  static constexpr size_t kPathCapacity = 200;

  uint32_t magic = kMagic;
  LogOp op = LogOp::kInvalid;
  uint16_t reserved = 0;
  uint64_t seq = 0;       // global order across workers
  uint64_t inode_id = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  char path[kPathCapacity] = {};
  // Checksum of everything above (the first offsetof(LogRecord, crc)
  // bytes). Must stay the LAST member: Append() fills it in and
  // Replay() treats a mismatch as a torn write — a record whose slot
  // was only partially persisted before a crash — and stops scanning
  // that worker region, exactly like a missing magic.
  uint64_t crc = 0;

  void SetPath(std::string_view p) {
    const size_t n =
        p.size() < kPathCapacity - 1 ? p.size() : kPathCapacity - 1;
    std::memcpy(path, p.data(), n);
    path[n] = '\0';
  }
  std::string_view GetPath() const { return {path}; }
};
static_assert(sizeof(LogRecord) == 256, "log records are 256-byte slots");

class MetadataLog {
 public:
  // Log occupies [region_offset, region_offset + workers * per_worker
  // * 256) bytes on `device`.
  MetadataLog(simdev::SimDevice* device, uint64_t region_offset,
              uint32_t workers, uint64_t per_worker_records);

  // Appends durably (written through to the device region). Returns
  // the assigned global sequence number.
  Result<uint64_t> Append(uint32_t worker, LogRecord record);

  // Scans every worker region and invokes `fn` for each valid record
  // in global sequence order.
  Status Replay(const std::function<Status(const LogRecord&)>& fn) const;

  // Bytes region size (for capacity planning by the FS).
  uint64_t region_bytes() const {
    return static_cast<uint64_t>(workers_) * per_worker_ * kSlot;
  }
  // First byte of the log region on the device (the DST crash-point
  // enumerator classifies device writes inside
  // [region_offset, region_offset + region_bytes) as log appends).
  uint64_t region_offset() const { return region_offset_; }
  uint64_t records_appended() const { return next_seq_.load() - 1; }
  // Records dropped because their checksum did not match (torn tail
  // after a crash). Cumulative across Replay calls since construction
  // or the last ResetStats(); for a single scan's verdict use
  // last_replay_torn_dropped().
  uint64_t torn_records_dropped() const {
    return torn_dropped_.load(std::memory_order_relaxed);
  }
  // Records dropped by the MOST RECENT Replay() only. Zeroed at the
  // start of every scan, so per-replay assertions cannot pass
  // spuriously on counts left over from an earlier call.
  uint64_t last_replay_torn_dropped() const {
    return last_replay_torn_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    torn_dropped_.store(0, std::memory_order_relaxed);
    last_replay_torn_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kSlot = 256;

  simdev::SimDevice* device_;
  uint64_t region_offset_;
  uint32_t workers_;
  uint64_t per_worker_;
  std::atomic<uint64_t> next_seq_{1};
  std::vector<uint64_t> cursors_;  // records appended per worker
  std::vector<std::unique_ptr<std::mutex>> worker_mu_;
  mutable std::atomic<uint64_t> torn_dropped_{0};
  mutable std::atomic<uint64_t> last_replay_torn_{0};
};

// One device region laid out as [metadata log | data blocks], the log
// and the per-worker allocator over the data blocks. A mod's in-memory
// index (LabFS inodes, LabKVS values) is everything else.
class LogStore {
 public:
  static constexpr uint64_t kBlockSize = 4096;

  // Reads the mod's device, region and log-size parameters (names and
  // defaults are in fslog.cc). The region defaults to the whole
  // device; several I/O systems can share one device by owning
  // disjoint regions, the "multiple views over the same device" of
  // §III-B. The log gets one slot per worker of the runtime's worker
  // bound, and so do the allocator's pools.
  static Result<std::unique_ptr<LogStore>> Open(const yaml::NodePtr& params,
                                                const core::ModContext& ctx);

  // Durable append to `worker`'s log slot, then one unit of the
  // batched flush charge. Uncharged when the append fails.
  Status Append(uint32_t worker, const LogRecord& record,
                core::StackExec& exec);
  // Durable appends of `records` in order, stopping at the first that
  // fails, then one unit of the charge for the whole group (LabKVS's
  // size record and the value's block map). Uncharged unless every
  // record is durable; a failure can leave a prefix in the log, which
  // replay must tell from a whole group.
  Status AppendGroup(uint32_t worker, std::span<const LogRecord> records,
                     core::StackExec& exec);

  // Crash recovery: the free set is the data region minus `used`
  // (block indices, any order, duplicates allowed).
  void RebuildAllocator(std::vector<uint64_t> used);

  MetadataLog& log() { return *log_; }
  PerWorkerAllocator& allocator() { return *alloc_; }
  uint64_t data_first_block() const { return data_first_block_; }
  uint64_t data_blocks() const { return data_blocks_; }

 private:
  simdev::SimDevice* device_ = nullptr;
  uint32_t workers_ = 1;
  uint64_t data_first_block_ = 0;
  uint64_t data_blocks_ = 0;
  std::unique_ptr<MetadataLog> log_;
  std::unique_ptr<PerWorkerAllocator> alloc_;
  // Flush-charge units per worker: 64 counters (worker % 64) whatever
  // the worker bound, so workers 64 apart share one, as
  // bench_scaling's 256-worker values assume.
  static constexpr size_t kChargeSlots = 64;
  std::array<std::atomic<uint64_t>, kChargeSlots> pending_{};
};

}  // namespace labstor::labmods
