// LabFS (paper §III-E): a log-structured, crash-consistent POSIX
// filesystem LabMod with NVMe/PMEM-oriented optimizations and
// provenance tracking.
//
// Design properties carried over from the paper:
//   * per-worker block allocator with stealing and per-worker metadata
//     log on the device, both in the LogStore LabKVS also uses; inodes
//     are NOT stored on-disk — they are reconstructed in memory by
//     traversing the log (StateRepair does exactly this after a crash);
//   * all inodes live in a sharded hashmap for low-contention insert/
//     rename/delete;
//   * provenance: creator and write/read counts recorded per inode.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/labmod.h"
#include "core/stack_exec.h"
#include "labmods/fslog.h"
#include "labmods/zns_placement.h"

namespace labstor::labmods {

struct Provenance {
  uint32_t creator_uid = 0;
  uint32_t creator_pid = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;
};

class LabFsMod : public core::LabMod {
 public:
  static constexpr uint64_t kBlockSize = LogStore::kBlockSize;

  LabFsMod() : LabFsMod(1) {}
  explicit LabFsMod(uint32_t version)
      : core::LabMod("labfs", core::ModType::kFilesystem, version) {}

  Status Init(const yaml::NodePtr& params, core::ModContext& ctx) override;
  Status Process(ipc::Request& req, core::StackExec& exec) override;
  Status StateUpdate(core::LabMod& old) override;
  Status StateRepair() override;
  sim::Time EstProcessingTime() const override { return 3 * sim::kUs; }

  // --- introspection (tests, provenance queries, stats) ---
  Result<uint64_t> FileSize(const std::string& path) const;
  Result<Provenance> GetProvenance(const std::string& path) const;
  bool Exists(const std::string& path) const;
  size_t file_count() const;
  uint64_t allocator_free_blocks() const {
    return store_->allocator().FreeBlocks();
  }
  uint64_t allocator_free_blocks_of(uint32_t worker) const {
    return store_->allocator().FreeBlocksOf(worker);
  }
  uint64_t allocator_steals() const { return store_->allocator().steals(); }
  uint64_t log_records() const { return store_->log().records_appended(); }
  uint64_t log_torn_dropped() const {
    return store_->log().torn_records_dropped();
  }
  // Log-structured placement over a zoned namespace (zns_placement
  // param; requires a zns_driver downstream). Null in allocator mode.
  bool zns_placement_enabled() const { return placement_ != nullptr; }
  const ZnsPlacement* placement() const { return placement_.get(); }

  // --- DST invariant surface (src/dst) ---
  const MetadataLog* log() const {
    return store_ != nullptr ? &store_->log() : nullptr;
  }
  // Every path currently in the namespace, sorted (deterministic).
  std::vector<std::string> ListPaths() const;
  // Block accounting for the no-orphaned-blocks invariant: after
  // recovery every data-region block must be either free in the
  // allocator or mapped by exactly one (inode, file-block) slot.
  struct BlockAudit {
    uint64_t data_blocks = 0;
    uint64_t free_blocks = 0;
    uint64_t mapped_blocks = 0;       // distinct phys blocks mapped
    uint64_t duplicate_mappings = 0;  // phys blocks mapped more than once
    uint64_t out_of_region = 0;       // mappings outside the data region
    bool Consistent() const {
      return duplicate_mappings == 0 && out_of_region == 0 &&
             free_blocks + mapped_blocks == data_blocks;
    }
  };
  BlockAudit AuditBlocks() const;

 private:
  struct Inode {
    uint64_t id = 0;
    std::string path;
    bool is_dir = false;
    uint64_t size = 0;
    std::vector<uint64_t> blocks;  // file block -> phys block (0 = hole)
    Provenance prov;
    std::mutex mu;  // guards size/blocks during data ops
  };
  using InodePtr = std::shared_ptr<Inode>;

  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, InodePtr> inodes;
  };

  size_t ShardFor(std::string_view path) const;
  InodePtr Lookup(const std::string& path) const;
  // Creates the inode if absent; returns (inode, created).
  Result<std::pair<InodePtr, bool>> LookupOrCreate(const std::string& path,
                                                   bool is_dir,
                                                   const ipc::Request& req);
  Status EraseByPath(const std::string& path);
  // Every inode in the namespace, in no particular order.
  std::vector<InodePtr> AllInodes() const;

  Status DoOpen(ipc::Request& req, core::StackExec& exec);
  Status DoWrite(ipc::Request& req, core::StackExec& exec);
  Status DoRead(ipc::Request& req, core::StackExec& exec);
  Status DoStat(ipc::Request& req, core::StackExec& exec);
  Status DoUnlink(ipc::Request& req, core::StackExec& exec);
  Status DoRename(ipc::Request& req, core::StackExec& exec);
  Status DoMkdir(ipc::Request& req, core::StackExec& exec);
  Status DoReaddir(ipc::Request& req, core::StackExec& exec);
  Status DoTruncate(ipc::Request& req, core::StackExec& exec);
  Status DoFsync(ipc::Request& req, core::StackExec& exec);

  // Ensure blocks for file range, logging new mappings. Caller holds
  // inode->mu.
  Status EnsureBlocks(Inode& inode, uint64_t offset, uint64_t length,
                      uint32_t worker, core::StackExec& exec);
  // Forward kBlkRead/kBlkWrite requests covering [offset, offset+len)
  // along physical runs. Caller holds inode->mu.
  Status ForwardData(Inode& inode, ipc::Request& req, core::StackExec& exec,
                     bool is_write);
  // Non-ZNS write path: maps the range's missing blocks, then forwards
  // the payload. A block mapped by this write may be a freed block that
  // still holds another file's bytes, so one that the write covers only
  // in part is first written whole with zeros. Caller holds inode->mu.
  Status WriteMapped(Inode& inode, ipc::Request& req, core::StackExec& exec);
  // ZNS write path: every touched file block is RMW-merged if partial
  // and appended to the active zone; the inode remaps to wherever the
  // device says the append landed. Caller holds inode->mu.
  Status WriteZns(Inode& inode, ipc::Request& req, core::StackExec& exec);
  // Return a physical block: to the allocator, or (placement mode) by
  // decrementing its zone's valid count.
  void FreeBlock(uint32_t worker, uint64_t phys);
  void RebuildAllocatorFromInodes();
  void RebuildPlacementFromInodes();

  // --- configuration/state ---
  std::unique_ptr<LogStore> store_;
  std::unique_ptr<ZnsPlacement> placement_;
  // Serializes pick-target → (reset) → append → commit in WriteZns:
  // without it a worker could append into a zone between another
  // worker's activation and its reset, and lose the block.
  std::mutex zns_write_mu_;

  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> next_inode_id_{1};
};

class LabFsModV2 final : public LabFsMod {
 public:
  LabFsModV2() : LabFsMod(2) {}
};

}  // namespace labstor::labmods
