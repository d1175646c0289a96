#include "labmods/labkvs.h"

#include <algorithm>
#include <optional>

#include "core/module_registry.h"

namespace labstor::labmods {

Status LabKvsMod::Init(const yaml::NodePtr& params, core::ModContext& ctx) {
  LABSTOR_ASSIGN_OR_RETURN(store, LogStore::Open(params, ctx));
  store_ = std::move(store);
  return Status::Ok();
}

Status LabKvsMod::ForwardValueIo(const Value& value, ipc::Request& req,
                                 core::StackExec& exec, bool is_write) {
  const ipc::OpCode orig_op = req.op;
  const uint64_t orig_offset = req.offset;
  const uint64_t orig_length = req.length;
  uint8_t* const orig_data = req.data;

  Status st;
  uint64_t consumed = 0;
  for (const BlockExtent& extent : value.extents) {
    if (consumed >= value.size || !st.ok()) break;
    const uint64_t extent_bytes =
        std::min(extent.count * kBlockSize, value.size - consumed);
    req.op = is_write ? ipc::OpCode::kBlkWrite : ipc::OpCode::kBlkRead;
    req.offset = extent.start * kBlockSize;
    req.length = extent_bytes;
    req.data = orig_data == nullptr ? nullptr : orig_data + consumed;
    st = exec.Forward(req);
    consumed += extent_bytes;
  }
  req.op = orig_op;
  req.offset = orig_offset;
  req.length = orig_length;
  req.data = orig_data;
  return st;
}

Status LabKvsMod::DoPut(ipc::Request& req, core::StackExec& exec) {
  const std::string_view key = req.GetPath();
  if (key.empty()) return Status::InvalidArgument("put with empty key");
  const uint64_t blocks_needed =
      (req.length + kBlockSize - 1) / kBlockSize;
  PerWorkerAllocator& alloc = store_->allocator();
  const auto release = [&](const std::vector<BlockExtent>& extents) {
    for (const BlockExtent& extent : extents) alloc.Free(req.worker, extent);
  };

  // Write-ahead: the new value gets fresh blocks (log-structured stores
  // never update in place) and its records are durable before the old
  // value is touched. A put that fails anywhere returns the new blocks
  // and leaves the old value readable.
  Value value;
  value.size = req.length;
  if (blocks_needed > 0) {
    LABSTOR_ASSIGN_OR_RETURN(extents, alloc.Alloc(req.worker, blocks_needed));
    value.extents = std::move(extents);
  }
  {
    Shard& shard = shards_[ShardFor(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.values.find(key);
    const bool created = it == shard.values.end();
    value.id = created ? next_id_.fetch_add(1, std::memory_order_relaxed)
                       : it->second.id;
    Status st;
    if (created) {
      LogRecord record;
      record.op = LogOp::kCreate;
      record.inode_id = value.id;
      record.SetPath(key);
      st = store_->Append(req.worker, record, exec);
    }
    if (st.ok()) {
      // The size record and the value's block map are one flush-charge
      // group.
      std::vector<LogRecord> group(1 + value.extents.size());
      group[0].op = LogOp::kSize;
      group[0].inode_id = value.id;
      group[0].a = value.size;
      uint64_t fb = 0;
      for (size_t i = 0; i < value.extents.size(); ++i) {
        LogRecord& map = group[1 + i];
        map.op = LogOp::kMap;
        map.inode_id = value.id;
        map.a = fb;
        map.b = value.extents[i].start;
        map.c = value.extents[i].count;
        fb += value.extents[i].count;
      }
      st = store_->AppendGroup(req.worker, group, exec);
    }
    if (!st.ok()) {
      // The group may be durable up to some map record, but replay
      // installs a value only once its whole map is (StateRepair), so
      // no block of a torn group stays owned.
      release(value.extents);
      return st;
    }
    if (created) {
      shard.values.emplace(std::string(key), value);
    } else {
      release(it->second.extents);
      it->second = value;
    }
  }
  LABSTOR_RETURN_IF_ERROR(ForwardValueIo(value, req, exec, /*is_write=*/true));
  req.result_u64 = req.length;
  return Status::Ok();
}

Status LabKvsMod::DoGet(ipc::Request& req, core::StackExec& exec) {
  const std::string_view key = req.GetPath();
  Value value;
  {
    Shard& shard = shards_[ShardFor(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.values.find(key);
    if (it == shard.values.end()) {
      return Status::NotFound("no key '" + std::string(key) + "'");
    }
    value = it->second;
  }
  if (req.length < value.size) {
    return Status::InvalidArgument("get buffer smaller than value");
  }
  const uint64_t orig_length = req.length;
  req.length = value.size;
  const Status st = ForwardValueIo(value, req, exec, /*is_write=*/false);
  req.length = orig_length;
  LABSTOR_RETURN_IF_ERROR(st);
  req.result_u64 = value.size;
  return Status::Ok();
}

Status LabKvsMod::DoDelete(ipc::Request& req, core::StackExec& exec) {
  const std::string_view key = req.GetPath();
  Shard& shard = shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.values.find(key);
  if (it == shard.values.end()) {
    return Status::NotFound("no key '" + std::string(key) + "'");
  }
  // Write-ahead, as in DoPut: the value stays whole until its unlink
  // record is durable.
  LogRecord record;
  record.op = LogOp::kUnlink;
  record.inode_id = it->second.id;
  LABSTOR_RETURN_IF_ERROR(store_->Append(req.worker, record, exec));
  for (const BlockExtent& extent : it->second.extents) {
    store_->allocator().Free(req.worker, extent);
  }
  shard.values.erase(it);
  return Status::Ok();
}

Status LabKvsMod::Process(ipc::Request& req, core::StackExec& exec) {
  exec.trace().Charge("labkvs", exec.ctx().costs->kvs_op);
  switch (req.op) {
    case ipc::OpCode::kPut:
      return DoPut(req, exec);
    case ipc::OpCode::kGet:
      return DoGet(req, exec);
    case ipc::OpCode::kDelete:
      return DoDelete(req, exec);
    case ipc::OpCode::kExists: {
      const std::string_view key = req.GetPath();
      const Shard& shard = shards_[ShardFor(key)];
      std::lock_guard<std::mutex> lock(shard.mu);
      req.result_u64 = shard.values.contains(key) ? 1 : 0;
      return Status::Ok();
    }
    case ipc::OpCode::kTxnBegin:
    case ipc::OpCode::kTxnCommit:
    case ipc::OpCode::kTxnAbort: {
      // Pushdown chain atomicity markers (DESIGN.md §12): append the
      // journal record and stop — markers never reach the device path.
      LogRecord record;
      record.op = req.op == ipc::OpCode::kTxnBegin    ? LogOp::kTxnBegin
                  : req.op == ipc::OpCode::kTxnCommit ? LogOp::kTxnCommit
                                                      : LogOp::kTxnAbort;
      record.inode_id = req.chain_id;
      return store_->Append(req.worker, record, exec);
    }
    default:
      return Status::InvalidArgument(std::string("labkvs cannot handle op ") +
                                     std::string(ipc::OpCodeName(req.op)));
  }
}

Status LabKvsMod::StateUpdate(core::LabMod& old) {
  auto* prev = dynamic_cast<LabKvsMod*>(&old);
  if (prev == nullptr) {
    return Status::InvalidArgument("StateUpdate from incompatible mod");
  }
  store_ = std::move(prev->store_);
  for (size_t i = 0; i < kShards; ++i) {
    std::scoped_lock lock(shards_[i].mu, prev->shards_[i].mu);
    shards_[i].values = std::move(prev->shards_[i].values);
  }
  next_id_.store(prev->next_id_.load());
  return Status::Ok();
}

Status LabKvsMod::StateRepair() {
  if (store_ == nullptr) return Status::Ok();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.values.clear();
  }
  // A put logs a size record and then its block map. Its value replaces
  // the key's once the map covers the size; a put whose group a full
  // log, a failed write or a crash cut short leaves the previous value,
  // or no key, and owns no block, as DoPut left it in memory.
  struct Rebuild {
    std::string key;
    std::optional<Value> value;    // the last put whose group is whole
    std::optional<Value> pending;  // a put whose map is still coming
    void Install() {
      value = std::move(pending);
      pending.reset();
    }
  };
  std::unordered_map<uint64_t, Rebuild> by_id;
  uint64_t max_id = 0;
  const auto apply = [&](const LogRecord& record) -> Status {
    switch (record.op) {
      case LogOp::kCreate: {
        Rebuild entry;
        entry.key = std::string(record.GetPath());
        by_id[record.inode_id] = std::move(entry);
        max_id = std::max(max_id, record.inode_id);
        return Status::Ok();
      }
      case LogOp::kSize: {
        const auto it = by_id.find(record.inode_id);
        if (it != by_id.end()) {
          it->second.pending = Value{record.inode_id, record.a, {}};
          if (record.a == 0) it->second.Install();
        }
        return Status::Ok();
      }
      case LogOp::kMap: {
        const auto it = by_id.find(record.inode_id);
        if (it != by_id.end() && it->second.pending) {
          Value& pending = *it->second.pending;
          pending.extents.push_back(BlockExtent{record.b, record.c});
          // Map records run in value-block order (a = first block), so
          // the one that reaches the size ends the group.
          if ((record.a + record.c) * kBlockSize >= pending.size) {
            it->second.Install();
          }
        }
        return Status::Ok();
      }
      case LogOp::kUnlink:
        by_id.erase(record.inode_id);
        return Status::Ok();
      default:
        return Status::Ok();
    }
  };
  // Transaction gating (pushdown chains): records between a kTxnBegin
  // and its kTxnCommit are buffered and applied atomically at the
  // commit; a kTxnAbort (a chain step failed) or an unmatched begin at
  // the end of the scan (the crash hit mid-chain) discards the buffered
  // suffix, so a partially executed RMW chain either fully replays or
  // leaves no acked effect.
  std::vector<LogRecord> txn_buffer;
  bool txn_open = false;
  LABSTOR_RETURN_IF_ERROR(store_->log().Replay([&](const LogRecord& record) -> Status {
    if (record.op == LogOp::kTxnBegin) {
      txn_open = true;
      txn_buffer.clear();  // an unmatched earlier begin stays discarded
      return Status::Ok();
    }
    if (record.op == LogOp::kTxnCommit) {
      for (const LogRecord& buffered : txn_buffer) {
        const Status applied = apply(buffered);
        if (!applied.ok()) return applied;
      }
      txn_buffer.clear();
      txn_open = false;
      return Status::Ok();
    }
    if (record.op == LogOp::kTxnAbort) {
      txn_buffer.clear();
      txn_open = false;
      return Status::Ok();
    }
    if (txn_open) {
      txn_buffer.push_back(record);
      return Status::Ok();
    }
    return apply(record);
  }));
  for (auto& [id, entry] : by_id) {
    if (!entry.value) continue;
    Shard& shard = shards_[ShardFor(entry.key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.values[entry.key] = std::move(*entry.value);
  }
  next_id_.store(max_id + 1);
  std::vector<uint64_t> used;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, value] : shard.values) {
      for (const BlockExtent& extent : value.extents) {
        for (uint64_t i = 0; i < extent.count; ++i) {
          used.push_back(extent.start + i);
        }
      }
    }
  }
  store_->RebuildAllocator(std::move(used));
  return Status::Ok();
}

size_t LabKvsMod::key_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    count += shard.values.size();
  }
  return count;
}

Result<uint64_t> LabKvsMod::ValueSize(const std::string& key) const {
  const Shard& shard = shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.values.find(key);
  if (it == shard.values.end()) {
    return Status::NotFound("no value for key '" + key + "'");
  }
  return it->second.size;
}

std::vector<std::string> LabKvsMod::ListKeys() const {
  std::vector<std::string> keys;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, value] : shard.values) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

LABSTOR_REGISTER_LABMOD("labkvs", 1, LabKvsMod);
// The same code one version up: the target of the cluster's rolling
// upgrade (Cluster::RollingUpgrade(2)).
static const core::internal::ModRegistrar labstor_labkvs_v2(
    "labkvs", 2, [] { return std::make_unique<LabKvsMod>(2); });

}  // namespace labstor::labmods
