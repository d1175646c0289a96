// LabKVS (paper §III-E): a key-value store LabMod "similarly designed
// to LabFS" but exposing put/get/remove — one operation per request
// instead of POSIX's open-modify-close, which is exactly the syscall
// reduction Fig. 9(b) measures.
//
// Values are stored in device blocks of the same LogStore LabFS uses
// (per-worker log and allocator); key metadata is logged so the store
// survives crashes via StateRepair.
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

namespace labstor::labmods {

class LabKvsMod final : public core::LabMod {
 public:
  static constexpr uint64_t kBlockSize = LogStore::kBlockSize;

  // `version` lets upgrades install the same code under a higher
  // version (the library registers v1 and v2; the DST cluster
  // scenario registers the further versions its rounds reach).
  explicit LabKvsMod(uint32_t version = 1)
      : core::LabMod("labkvs", core::ModType::kKvs, version) {}

  Status Init(const yaml::NodePtr& params, core::ModContext& ctx) override;
  Status Process(ipc::Request& req, core::StackExec& exec) override;
  Status StateUpdate(core::LabMod& old) override;
  Status StateRepair() override;
  sim::Time EstProcessingTime() const override { return 2 * sim::kUs; }

  size_t key_count() const;
  uint64_t allocator_free_blocks() const {
    return store_->allocator().FreeBlocks();
  }

  // --- DST invariant surface (src/dst) ---
  const MetadataLog* log() const {
    return store_ != nullptr ? &store_->log() : nullptr;
  }
  // Size of the stored value, or NotFound. Keys are full request paths
  // ("kvs::/store/user42"), same as Put/Get see them.
  Result<uint64_t> ValueSize(const std::string& key) const;
  // Every key currently in the store, sorted (deterministic).
  std::vector<std::string> ListKeys() const;

 private:
  struct Value {
    uint64_t id = 0;
    uint64_t size = 0;
    std::vector<BlockExtent> extents;
  };

  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Value> values;
  };
  size_t ShardFor(std::string_view key) const {
    return std::hash<std::string_view>()(key) % kShards;
  }

  Status DoPut(ipc::Request& req, core::StackExec& exec);
  Status DoGet(ipc::Request& req, core::StackExec& exec);
  Status DoDelete(ipc::Request& req, core::StackExec& exec);
  Status ForwardValueIo(const Value& value, ipc::Request& req,
                        core::StackExec& exec, bool is_write);

  std::unique_ptr<LogStore> store_;
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace labstor::labmods
