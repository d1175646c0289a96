#include "labmods/labfs.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/string_util.h"
#include "core/module_registry.h"

namespace labstor::labmods {

Status LabFsMod::Init(const yaml::NodePtr& params, core::ModContext& ctx) {
  LABSTOR_ASSIGN_OR_RETURN(store, LogStore::Open(params, ctx));
  store_ = std::move(store);
  // Log-structured placement for zoned devices: data blocks are
  // zone-appended instead of allocator-placed, so LabFS can sit on the
  // zns_driver's sequential zones. The metadata log keeps overwriting
  // its region in place — deployments put it in conventional zones.
  if (params != nullptr && params->GetBool("zns_placement", false)) {
    const uint64_t zone_bytes = params->GetUint("zone_size_mb", 4) << 20;
    const uint64_t first = store_->data_first_block();
    placement_ = std::make_unique<ZnsPlacement>(
        first * kBlockSize, (first + store_->data_blocks()) * kBlockSize,
        zone_bytes, kBlockSize);
    if (placement_->num_zones() == 0) {
      return Status::InvalidArgument(
          "zns_placement: data region smaller than one zone");
    }
  }
  return Status::Ok();
}

size_t LabFsMod::ShardFor(std::string_view path) const {
  return std::hash<std::string_view>()(path) % kShards;
}

LabFsMod::InodePtr LabFsMod::Lookup(const std::string& path) const {
  const Shard& shard = shards_[ShardFor(path)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.inodes.find(path);
  return it == shard.inodes.end() ? nullptr : it->second;
}

Result<std::pair<LabFsMod::InodePtr, bool>> LabFsMod::LookupOrCreate(
    const std::string& path, bool is_dir, const ipc::Request& req) {
  Shard& shard = shards_[ShardFor(path)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (const auto it = shard.inodes.find(path); it != shard.inodes.end()) {
    return std::make_pair(it->second, false);
  }
  auto inode = std::make_shared<Inode>();
  inode->id = next_inode_id_.fetch_add(1, std::memory_order_relaxed);
  inode->path = path;
  inode->is_dir = is_dir;
  inode->prov.creator_uid = req.client_uid;
  inode->prov.creator_pid = req.client_pid;
  shard.inodes.emplace(path, inode);
  return std::make_pair(inode, true);
}

Status LabFsMod::EraseByPath(const std::string& path) {
  Shard& shard = shards_[ShardFor(path)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.inodes.find(path);
  if (it == shard.inodes.end()) {
    return Status::NotFound("no file '" + path + "'");
  }
  shard.inodes.erase(it);
  return Status::Ok();
}

std::vector<LabFsMod::InodePtr> LabFsMod::AllInodes() const {
  std::vector<InodePtr> inodes;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [path, inode] : shard.inodes) inodes.push_back(inode);
  }
  return inodes;
}

void LabFsMod::FreeBlock(uint32_t worker, uint64_t phys) {
  if (placement_ != nullptr) {
    // Nothing to hand back: the block just goes dead in its zone, and
    // the zone becomes reclaimable once its whole contents are dead.
    placement_->Invalidate(phys * kBlockSize);
    return;
  }
  store_->allocator().Free(worker, BlockExtent{phys, 1});
}

Status LabFsMod::Process(ipc::Request& req, core::StackExec& exec) {
  // Namespace-changing ops pay the full create path (inode init, log
  // record construction, hashmap insert); data ops pay the lighter
  // per-request metadata cost of Fig. 4(a).
  switch (req.op) {
    case ipc::OpCode::kOpen:
      exec.trace().Charge("labfs", (req.flags & ipc::kOpenCreate) != 0
                                       ? exec.ctx().costs->fs_create
                                       : exec.ctx().costs->fs_metadata);
      break;
    case ipc::OpCode::kCreate:
    case ipc::OpCode::kMkdir:
    case ipc::OpCode::kUnlink:
    case ipc::OpCode::kRename:
      exec.trace().Charge("labfs", exec.ctx().costs->fs_create);
      break;
    default:
      exec.trace().Charge("labfs", exec.ctx().costs->fs_metadata);
      break;
  }
  switch (req.op) {
    case ipc::OpCode::kOpen:
    case ipc::OpCode::kCreate:
      return DoOpen(req, exec);
    case ipc::OpCode::kWrite:
      return DoWrite(req, exec);
    case ipc::OpCode::kRead:
      return DoRead(req, exec);
    case ipc::OpCode::kStat:
      return DoStat(req, exec);
    case ipc::OpCode::kUnlink:
      return DoUnlink(req, exec);
    case ipc::OpCode::kRename:
      return DoRename(req, exec);
    case ipc::OpCode::kMkdir:
      return DoMkdir(req, exec);
    case ipc::OpCode::kReaddir:
      return DoReaddir(req, exec);
    case ipc::OpCode::kTruncate:
      return DoTruncate(req, exec);
    case ipc::OpCode::kFsync:
      return DoFsync(req, exec);
    case ipc::OpCode::kClose:
      return Status::Ok();  // fd lifecycle is GenericFS's concern
    default:
      return Status::InvalidArgument(std::string("labfs cannot handle op ") +
                                     std::string(ipc::OpCodeName(req.op)));
  }
}

Status LabFsMod::DoOpen(ipc::Request& req, core::StackExec& exec) {
  const std::string path(req.GetPath());
  if (path.empty()) return Status::InvalidArgument("open with empty path");
  const bool create =
      req.op == ipc::OpCode::kCreate || (req.flags & ipc::kOpenCreate) != 0;
  if (!create) {
    const InodePtr inode = Lookup(path);
    if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
    if (inode->is_dir) return Status::InvalidArgument("'" + path + "' is a directory");
    req.result_u64 = inode->id;
    return Status::Ok();
  }
  LABSTOR_ASSIGN_OR_RETURN(found, LookupOrCreate(path, /*is_dir=*/false, req));
  auto& [inode, created] = found;
  if (created) {
    LogRecord record;
    record.op = LogOp::kCreate;
    record.inode_id = inode->id;
    record.a = 0;
    record.SetPath(path);
    if (const Status st = store_->Append(req.worker, record, exec); !st.ok()) {
      // Roll back: an inode whose create record never made the log
      // would exist until the next crash and then silently vanish.
      (void)EraseByPath(path);
      return st;
    }
  }
  if ((req.flags & ipc::kOpenTrunc) != 0 && !created) {
    std::lock_guard<std::mutex> lock(inode->mu);
    LogRecord record;
    record.op = LogOp::kTruncate;
    record.inode_id = inode->id;
    record.a = 0;
    LABSTOR_RETURN_IF_ERROR(store_->Append(req.worker, record, exec));
    for (uint64_t phys : inode->blocks) {
      if (phys != 0) FreeBlock(req.worker, phys);
    }
    inode->blocks.clear();
    inode->size = 0;
  }
  req.result_u64 = inode->id;
  return Status::Ok();
}

Status LabFsMod::EnsureBlocks(Inode& inode, uint64_t offset, uint64_t length,
                              uint32_t worker, core::StackExec& exec) {
  const uint64_t first = offset / kBlockSize;
  const uint64_t last = (offset + length + kBlockSize - 1) / kBlockSize;
  if (inode.blocks.size() < last) inode.blocks.resize(last, 0);
  uint64_t fb = first;
  while (fb < last) {
    if (inode.blocks[fb] != 0) {
      ++fb;
      continue;
    }
    // Count the run of missing blocks and allocate it in one shot.
    uint64_t run = 0;
    while (fb + run < last && inode.blocks[fb + run] == 0) ++run;
    LABSTOR_ASSIGN_OR_RETURN(extents, store_->allocator().Alloc(worker, run));
    // Map every allocated extent into the inode BEFORE logging any of
    // them. If a log append fails partway (region full, injected EIO),
    // each block is then reachable through the inode and is returned by
    // unlink/truncate — interleaving assign-and-log used to strand the
    // not-yet-assigned extents outside both the inode and the
    // allocator, leaking them until remount. Crash consistency is
    // unaffected: an unlogged mapping simply doesn't survive replay,
    // and RebuildAllocatorFromInodes returns its blocks to the free
    // set.
    uint64_t assigned = fb;
    for (const BlockExtent& extent : extents) {
      for (uint64_t i = 0; i < extent.count; ++i) {
        inode.blocks[assigned + i] = extent.start + i;
      }
      assigned += extent.count;
    }
    assigned = fb;
    for (const BlockExtent& extent : extents) {
      LogRecord record;
      record.op = LogOp::kMap;
      record.inode_id = inode.id;
      record.a = assigned;
      record.b = extent.start;
      record.c = extent.count;
      LABSTOR_RETURN_IF_ERROR(store_->Append(worker, record, exec));
      assigned += extent.count;
    }
    fb += run;
  }
  return Status::Ok();
}

Status LabFsMod::ForwardData(Inode& inode, ipc::Request& req,
                             core::StackExec& exec, bool is_write) {
  const uint64_t offset = req.offset;
  const uint64_t length = req.length;
  uint8_t* const data = req.data;
  const ipc::OpCode orig_op = req.op;

  Status st;
  uint64_t consumed = 0;
  while (consumed < length && st.ok()) {
    const uint64_t abs = offset + consumed;
    const uint64_t fb = abs / kBlockSize;
    const uint64_t intra = abs % kBlockSize;
    // A truncate that extends the file grows its size but maps no
    // blocks, so the block map can end before the size does.
    const uint64_t phys = fb < inode.blocks.size() ? inode.blocks[fb] : 0;
    if (phys == 0) {
      if (is_write) {
        st = Status::Internal("hole in allocated write range");
        break;
      }
      // Sparse hole: reads return zeros without touching the device.
      const uint64_t run_bytes =
          std::min(kBlockSize - intra, length - consumed);
      if (data != nullptr) {
        std::memset(data + consumed, 0, run_bytes);
      }
      consumed += run_bytes;
      continue;
    }
    // Extend across physically-contiguous file blocks.
    uint64_t run_bytes = kBlockSize - intra;
    uint64_t next_fb = fb + 1;
    while (consumed + run_bytes < length &&
           next_fb < inode.blocks.size() &&
           inode.blocks[next_fb] == inode.blocks[next_fb - 1] + 1) {
      run_bytes += kBlockSize;
      ++next_fb;
    }
    run_bytes = std::min(run_bytes, length - consumed);
    if (placement_ != nullptr) {
      // The ZNS driver rejects I/O that crosses a zone boundary, and a
      // physically-contiguous run can end one zone exactly where the
      // next begins — split the forwarded request there.
      const uint64_t start = phys * kBlockSize + intra;
      const uint64_t zone_end =
          (start / placement_->zone_bytes() + 1) * placement_->zone_bytes();
      run_bytes = std::min(run_bytes, zone_end - start);
    }
    req.op = is_write ? ipc::OpCode::kBlkWrite : ipc::OpCode::kBlkRead;
    req.offset = phys * kBlockSize + intra;
    req.length = run_bytes;
    req.data = data == nullptr ? nullptr : data + consumed;
    st = exec.Forward(req);
    consumed += run_bytes;
  }
  req.op = orig_op;
  req.offset = offset;
  req.length = length;
  req.data = data;
  return st;
}

Status LabFsMod::WriteZns(Inode& inode, ipc::Request& req,
                          core::StackExec& exec) {
  const uint64_t offset = req.offset;
  const uint64_t length = req.length;
  uint8_t* const data = req.data;
  const ipc::OpCode orig_op = req.op;
  const uint32_t worker = req.worker;
  const uint64_t last = (offset + length + kBlockSize - 1) / kBlockSize;
  if (inode.blocks.size() < last) inode.blocks.resize(last, 0);

  alignas(8) uint8_t scratch[kBlockSize];
  Status st;
  uint64_t consumed = 0;
  while (consumed < length && st.ok()) {
    const uint64_t abs = offset + consumed;
    const uint64_t fb = abs / kBlockSize;
    const uint64_t intra = abs % kBlockSize;
    const uint64_t chunk = std::min(kBlockSize - intra, length - consumed);
    const uint64_t old_phys = inode.blocks[fb];
    const bool partial = intra != 0 || chunk != kBlockSize;

    // Sequential zones never overwrite in place: partial block writes
    // are read-modify-write into a scratch block, then appended whole.
    uint8_t* payload = data == nullptr ? nullptr : data + consumed;
    if (data != nullptr && partial) {
      if (old_phys != 0) {
        req.op = ipc::OpCode::kBlkRead;
        req.offset = old_phys * kBlockSize;
        req.length = kBlockSize;
        req.data = scratch;
        if (st = exec.Forward(req); !st.ok()) break;
      } else {
        std::memset(scratch, 0, kBlockSize);
      }
      std::memcpy(scratch + intra, data + consumed, chunk);
      payload = scratch;
    }

    // Pick the append target; a freshly-activated zone is reset first
    // so the device's write pointer agrees with the policy's cursor.
    std::unique_lock<std::mutex> io_lock(zns_write_mu_);
    const auto target = placement_->NextAppendTarget();
    if (!target.ok()) {
      st = target.status();
      break;
    }
    if (target->needs_reset) {
      req.op = ipc::OpCode::kZoneReset;
      req.offset = target->zone_start;
      req.length = 0;
      req.data = nullptr;
      if (st = exec.Forward(req); !st.ok()) break;
    }
    req.op = ipc::OpCode::kZoneAppend;
    req.offset = target->zone_start;
    req.length = kBlockSize;
    req.data = payload;
    if (st = exec.Forward(req); !st.ok()) break;
    // The device told us where the block landed; remap and log it.
    const uint64_t new_phys = req.result_u64 / kBlockSize;
    placement_->CommitAppend(req.result_u64);
    io_lock.unlock();
    inode.blocks[fb] = new_phys;
    LogRecord record;
    record.op = LogOp::kMap;
    record.inode_id = inode.id;
    record.a = fb;
    record.b = new_phys;
    record.c = 1;
    if (st = store_->Append(worker, record, exec); !st.ok()) break;
    if (old_phys != 0) placement_->Invalidate(old_phys * kBlockSize);
    consumed += chunk;
  }
  req.op = orig_op;
  req.offset = offset;
  req.length = length;
  req.data = data;
  return st;
}

Status LabFsMod::WriteMapped(Inode& inode, ipc::Request& req,
                             core::StackExec& exec) {
  const uint64_t end = req.offset + req.length;
  const uint64_t head = req.offset / kBlockSize;
  const uint64_t tail = (end - 1) / kBlockSize;
  const auto fresh = [&inode](uint64_t fb) {
    return fb >= inode.blocks.size() || inode.blocks[fb] == 0;
  };
  const bool zero_head = fresh(head) && (req.offset % kBlockSize != 0 ||
                                         end < (head + 1) * kBlockSize);
  const bool zero_tail = tail != head && fresh(tail) && end % kBlockSize != 0;
  LABSTOR_RETURN_IF_ERROR(
      EnsureBlocks(inode, req.offset, req.length, req.worker, exec));
  if (zero_head || zero_tail) {
    const ipc::OpCode op = req.op;
    const uint64_t offset = req.offset;
    const uint64_t length = req.length;
    uint8_t* const data = req.data;
    alignas(8) uint8_t zeros[kBlockSize] = {};
    const auto zero = [&](uint64_t fb) {
      req.op = ipc::OpCode::kBlkWrite;
      req.offset = inode.blocks[fb] * kBlockSize;
      req.length = kBlockSize;
      req.data = data == nullptr ? nullptr : zeros;
      return exec.Forward(req);
    };
    Status st = zero_head ? zero(head) : Status::Ok();
    if (st.ok() && zero_tail) st = zero(tail);
    req.op = op;
    req.offset = offset;
    req.length = length;
    req.data = data;
    LABSTOR_RETURN_IF_ERROR(st);
  }
  return ForwardData(inode, req, exec, /*is_write=*/true);
}

Status LabFsMod::DoWrite(ipc::Request& req, core::StackExec& exec) {
  const std::string path(req.GetPath());
  InodePtr inode = Lookup(path);
  if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
  if (req.length == 0) {
    req.result_u64 = 0;
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(inode->mu);
  if (placement_ != nullptr) {
    LABSTOR_RETURN_IF_ERROR(WriteZns(*inode, req, exec));
  } else {
    LABSTOR_RETURN_IF_ERROR(WriteMapped(*inode, req, exec));
  }
  const uint64_t end = req.offset + req.length;
  if (end > inode->size) {
    inode->size = end;
    LogRecord record;
    record.op = LogOp::kSize;
    record.inode_id = inode->id;
    record.a = end;
    LABSTOR_RETURN_IF_ERROR(store_->Append(req.worker, record, exec));
  }
  ++inode->prov.writes;
  req.result_u64 = req.length;
  return Status::Ok();
}

Status LabFsMod::DoRead(ipc::Request& req, core::StackExec& exec) {
  const std::string path(req.GetPath());
  InodePtr inode = Lookup(path);
  if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
  std::lock_guard<std::mutex> lock(inode->mu);
  if (req.offset >= inode->size) {
    req.result_u64 = 0;
    return Status::Ok();  // EOF
  }
  const uint64_t readable = std::min(req.length, inode->size - req.offset);
  const uint64_t orig_length = req.length;
  req.length = readable;
  const Status st = ForwardData(*inode, req, exec, /*is_write=*/false);
  req.length = orig_length;
  LABSTOR_RETURN_IF_ERROR(st);
  ++inode->prov.reads;
  req.result_u64 = readable;
  return Status::Ok();
}

Status LabFsMod::DoStat(ipc::Request& req, core::StackExec& exec) {
  (void)exec;
  const std::string path(req.GetPath());
  const InodePtr inode = Lookup(path);
  if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
  std::lock_guard<std::mutex> lock(inode->mu);
  req.result_u64 = inode->size;
  req.flags = inode->is_dir ? 1 : 0;
  return Status::Ok();
}

Status LabFsMod::DoUnlink(ipc::Request& req, core::StackExec& exec) {
  const std::string path(req.GetPath());
  const InodePtr inode = Lookup(path);
  if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
  // Write-ahead, here and in DoTruncate and DoOpen's O_TRUNC: the
  // record is durable before any block is freed, so a failed append
  // leaves the file whole.
  LogRecord record;
  record.op = LogOp::kUnlink;
  record.inode_id = inode->id;
  LABSTOR_RETURN_IF_ERROR(store_->Append(req.worker, record, exec));
  {
    std::lock_guard<std::mutex> lock(inode->mu);
    for (const uint64_t phys : inode->blocks) {
      if (phys != 0) FreeBlock(req.worker, phys);
    }
    inode->blocks.clear();
  }
  return EraseByPath(path);
}

Status LabFsMod::DoRename(ipc::Request& req, core::StackExec& exec) {
  // Convention: req.path = old path, payload = new path (NUL-free).
  const std::string from(req.GetPath());
  if (req.data == nullptr || req.length == 0) {
    return Status::InvalidArgument("rename requires a destination payload");
  }
  const std::string to(reinterpret_cast<const char*>(req.data), req.length);
  const size_t src_shard = ShardFor(from);
  const size_t dst_shard = ShardFor(to);
  InodePtr inode;
  {
    // Lock shards in index order to avoid deadlock.
    Shard& first = shards_[std::min(src_shard, dst_shard)];
    Shard& second = shards_[std::max(src_shard, dst_shard)];
    std::unique_lock<std::mutex> lock1(first.mu);
    std::unique_lock<std::mutex> lock2;
    if (src_shard != dst_shard) {
      lock2 = std::unique_lock<std::mutex>(second.mu);
    }
    Shard& src = shards_[src_shard];
    Shard& dst = shards_[dst_shard];
    const auto it = src.inodes.find(from);
    if (it == src.inodes.end()) {
      return Status::NotFound("no file '" + from + "'");
    }
    if (dst.inodes.contains(to)) {
      return Status::AlreadyExists("'" + to + "' exists");
    }
    inode = it->second;
    src.inodes.erase(it);
    inode->path = to;
    dst.inodes.emplace(to, inode);
  }
  LogRecord record;
  record.op = LogOp::kRename;
  record.inode_id = inode->id;
  record.SetPath(to);
  LABSTOR_RETURN_IF_ERROR(store_->Append(req.worker, record, exec));

  // Directory rename carries its subtree: every inode under the old
  // prefix is re-keyed (and re-logged, so replay reproduces it).
  if (inode->is_dir) {
    const std::string old_prefix = from + "/";
    std::vector<InodePtr> children;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [path, child] : shard.inodes) {
        if (StartsWith(path, old_prefix)) children.push_back(child);
      }
    }
    for (const InodePtr& child : children) {
      const std::string new_path =
          to + "/" + child->path.substr(old_prefix.size());
      Shard& old_shard = shards_[ShardFor(child->path)];
      {
        std::lock_guard<std::mutex> lock(old_shard.mu);
        old_shard.inodes.erase(child->path);
      }
      child->path = new_path;
      Shard& new_shard = shards_[ShardFor(new_path)];
      {
        std::lock_guard<std::mutex> lock(new_shard.mu);
        new_shard.inodes[new_path] = child;
      }
      LogRecord child_record;
      child_record.op = LogOp::kRename;
      child_record.inode_id = child->id;
      child_record.SetPath(new_path);
      LABSTOR_RETURN_IF_ERROR(store_->Append(req.worker, child_record, exec));
    }
  }
  return Status::Ok();
}

Status LabFsMod::DoMkdir(ipc::Request& req, core::StackExec& exec) {
  const std::string path(req.GetPath());
  LABSTOR_ASSIGN_OR_RETURN(found, LookupOrCreate(path, /*is_dir=*/true, req));
  auto& [inode, created] = found;
  if (!created) return Status::AlreadyExists("'" + path + "' exists");
  LogRecord record;
  record.op = LogOp::kCreate;
  record.inode_id = inode->id;
  record.a = 1;
  record.SetPath(path);
  if (const Status st = store_->Append(req.worker, record, exec); !st.ok()) {
    (void)EraseByPath(path);  // same rollback as DoOpen's create path
    return st;
  }
  return Status::Ok();
}

Status LabFsMod::DoReaddir(ipc::Request& req, core::StackExec& exec) {
  (void)exec;
  const std::string dir(req.GetPath());
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  uint64_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [path, inode] : shard.inodes) {
      if (StartsWith(path, prefix) &&
          path.find('/', prefix.size()) == std::string::npos) {
        ++count;
      }
    }
  }
  req.result_u64 = count;
  return Status::Ok();
}

Status LabFsMod::DoTruncate(ipc::Request& req, core::StackExec& exec) {
  const std::string path(req.GetPath());
  const InodePtr inode = Lookup(path);
  if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
  const uint64_t new_size = req.offset;
  std::lock_guard<std::mutex> lock(inode->mu);
  LogRecord record;
  record.op = LogOp::kTruncate;
  record.inode_id = inode->id;
  record.a = new_size;
  LABSTOR_RETURN_IF_ERROR(store_->Append(req.worker, record, exec));
  const uint64_t keep_blocks = (new_size + kBlockSize - 1) / kBlockSize;
  for (uint64_t fb = keep_blocks; fb < inode->blocks.size(); ++fb) {
    if (inode->blocks[fb] != 0) FreeBlock(req.worker, inode->blocks[fb]);
  }
  if (inode->blocks.size() > keep_blocks) inode->blocks.resize(keep_blocks);
  inode->size = new_size;
  return Status::Ok();
}

Status LabFsMod::DoFsync(ipc::Request& req, core::StackExec& exec) {
  const ipc::OpCode orig = req.op;
  req.op = ipc::OpCode::kBlkFlush;
  const Status st = exec.HasDownstream() ? exec.Forward(req) : Status::Ok();
  req.op = orig;
  return st;
}

Status LabFsMod::StateUpdate(core::LabMod& old) {
  auto* prev = dynamic_cast<LabFsMod*>(&old);
  if (prev == nullptr) {
    return Status::InvalidArgument("StateUpdate from incompatible mod");
  }
  store_ = std::move(prev->store_);
  placement_ = std::move(prev->placement_);
  for (size_t i = 0; i < kShards; ++i) {
    std::scoped_lock lock(shards_[i].mu, prev->shards_[i].mu);
    shards_[i].inodes = std::move(prev->shards_[i].inodes);
  }
  next_inode_id_.store(prev->next_inode_id_.load());
  return Status::Ok();
}

Status LabFsMod::StateRepair() {
  if (store_ == nullptr) return Status::Ok();  // never initialized
  // Drop all in-memory inodes and reconstruct them from the on-device
  // log — the paper's crash-consistency story, executed for real.
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inodes.clear();
  }
  uint64_t max_id = 0;
  std::unordered_map<uint64_t, InodePtr> by_id;
  const Status replay = store_->log().Replay([&](const LogRecord& record) -> Status {
    switch (record.op) {
      case LogOp::kCreate: {
        auto inode = std::make_shared<Inode>();
        inode->id = record.inode_id;
        inode->path = std::string(record.GetPath());
        inode->is_dir = record.a != 0;
        by_id[inode->id] = inode;
        max_id = std::max(max_id, inode->id);
        return Status::Ok();
      }
      case LogOp::kUnlink:
        by_id.erase(record.inode_id);
        return Status::Ok();
      case LogOp::kRename: {
        const auto it = by_id.find(record.inode_id);
        if (it == by_id.end()) {
          return Status::Corruption("rename of unknown inode in log");
        }
        it->second->path = std::string(record.GetPath());
        return Status::Ok();
      }
      case LogOp::kTruncate: {
        const auto it = by_id.find(record.inode_id);
        if (it == by_id.end()) return Status::Ok();
        Inode& inode = *it->second;
        inode.size = record.a;
        const uint64_t keep = (record.a + kBlockSize - 1) / kBlockSize;
        if (inode.blocks.size() > keep) inode.blocks.resize(keep);
        return Status::Ok();
      }
      case LogOp::kMap: {
        const auto it = by_id.find(record.inode_id);
        if (it == by_id.end()) return Status::Ok();
        Inode& inode = *it->second;
        const uint64_t last = record.a + record.c;
        if (inode.blocks.size() < last) inode.blocks.resize(last, 0);
        for (uint64_t i = 0; i < record.c; ++i) {
          inode.blocks[record.a + i] = record.b + i;
        }
        return Status::Ok();
      }
      case LogOp::kSize: {
        const auto it = by_id.find(record.inode_id);
        if (it == by_id.end()) return Status::Ok();
        it->second->size = record.a;
        return Status::Ok();
      }
      case LogOp::kTxnBegin:
      case LogOp::kTxnCommit:
      case LogOp::kTxnAbort:
        // Pushdown chain markers: LabFS has no chain-mutable state, so
        // its replay treats the bracket as a no-op.
        return Status::Ok();
      case LogOp::kInvalid:
        return Status::Corruption("invalid record in log");
    }
    return Status::Ok();
  });
  LABSTOR_RETURN_IF_ERROR(replay);
  for (const auto& [id, inode] : by_id) {
    Shard& shard = shards_[ShardFor(inode->path)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inodes[inode->path] = inode;
  }
  next_inode_id_.store(max_id + 1);
  if (placement_ != nullptr) {
    RebuildPlacementFromInodes();
  } else {
    RebuildAllocatorFromInodes();
  }
  return Status::Ok();
}

void LabFsMod::RebuildPlacementFromInodes() {
  // Valid counts = one per live (inode, file-block) mapping. The
  // active zone stays unset: the first post-recovery append activates
  // and RESETS a fully-dead zone, so the device's residual write
  // pointers never have to be trusted.
  placement_->Reset();
  for (const InodePtr& inode : AllInodes()) {
    for (const uint64_t phys : inode->blocks) {
      if (phys != 0) placement_->MarkLive(phys * kBlockSize);
    }
  }
}

void LabFsMod::RebuildAllocatorFromInodes() {
  // Free set = data region minus every block claimed by an inode.
  std::vector<uint64_t> used;
  for (const InodePtr& inode : AllInodes()) {
    for (const uint64_t phys : inode->blocks) {
      if (phys != 0) used.push_back(phys);
    }
  }
  store_->RebuildAllocator(std::move(used));
}

Result<uint64_t> LabFsMod::FileSize(const std::string& path) const {
  const InodePtr inode = Lookup(path);
  if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
  std::lock_guard<std::mutex> lock(inode->mu);
  return inode->size;
}

Result<Provenance> LabFsMod::GetProvenance(const std::string& path) const {
  const InodePtr inode = Lookup(path);
  if (inode == nullptr) return Status::NotFound("no file '" + path + "'");
  std::lock_guard<std::mutex> lock(inode->mu);
  return inode->prov;
}

bool LabFsMod::Exists(const std::string& path) const {
  return Lookup(path) != nullptr;
}

size_t LabFsMod::file_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    count += shard.inodes.size();
  }
  return count;
}

std::vector<std::string> LabFsMod::ListPaths() const {
  std::vector<std::string> paths;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [path, inode] : shard.inodes) paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

LabFsMod::BlockAudit LabFsMod::AuditBlocks() const {
  BlockAudit audit;
  if (store_ == nullptr) return audit;
  const uint64_t first = store_->data_first_block();
  audit.data_blocks = store_->data_blocks();
  audit.free_blocks = store_->allocator().FreeBlocks();
  std::vector<uint64_t> mapped;
  for (const InodePtr& inode : AllInodes()) {
    std::lock_guard<std::mutex> inode_lock(inode->mu);
    for (const uint64_t phys : inode->blocks) {
      if (phys != 0) mapped.push_back(phys);
    }
  }
  std::sort(mapped.begin(), mapped.end());
  for (size_t i = 0; i < mapped.size(); ++i) {
    if (i > 0 && mapped[i] == mapped[i - 1]) {
      ++audit.duplicate_mappings;
      continue;
    }
    if (mapped[i] < first || mapped[i] >= first + audit.data_blocks) {
      ++audit.out_of_region;
    }
    ++audit.mapped_blocks;
  }
  return audit;
}

LABSTOR_REGISTER_LABMOD("labfs", 1, LabFsMod);
LABSTOR_REGISTER_LABMOD("labfs", 2, LabFsModV2);

}  // namespace labstor::labmods
