#include "cluster/node.h"

#include <algorithm>

namespace labstor::cluster {
namespace {

constexpr const char* kDeviceName = "cl_nvme";

std::string NodeStackYaml(uint32_t id, uint64_t log_records) {
  const std::string tag = "n" + std::to_string(id);
  return std::string("mount: ") + ClusterNode::kMount +
         "\n"
         "rules:\n"
         "  exec_mode: async\n"
         "dag:\n"
         "  - mod: pushdown\n"
         "    uuid: pd_" + tag +
         "\n"
         "    outputs: [kvs_" + tag +
         "]\n"
         "  - mod: labkvs\n"
         "    uuid: kvs_" + tag +
         "\n"
         // Pinned: Instantiate defaults to the latest registered
         // version, and rolling upgrades start from v1.
         "    version: 1\n"
         "    params:\n"
         "      device: " + kDeviceName +
         "\n"
         "      log_records_per_worker: " + std::to_string(log_records) +
         "\n"
         "    outputs: [sched_" + tag +
         "]\n"
         "  - mod: noop_sched\n"
         "    uuid: sched_" + tag +
         "\n"
         "    outputs: [drv_" + tag +
         "]\n"
         "  - mod: kernel_driver\n"
         "    uuid: drv_" + tag +
         "\n"
         "    params:\n"
         "      device: " + std::string(kDeviceName) + "\n";
}

std::string KvsUuid(uint32_t id) { return "kvs_n" + std::to_string(id); }
std::string PushdownUuid(uint32_t id) { return "pd_n" + std::to_string(id); }

template <typename Mod>
Mod* FindMod(core::SimRuntime& rt, const std::string& uuid) {
  const auto mod = rt.registry().Find(uuid);
  return mod.ok() ? dynamic_cast<Mod*>(*mod) : nullptr;
}

}  // namespace

ClusterNode::ClusterNode(sim::Environment& env, uint32_t id)
    : ClusterNode(env, id, Options{}) {}

ClusterNode::ClusterNode(sim::Environment& env, uint32_t id, Options options)
    : env_(env),
      id_(id),
      options_(options),
      devices_(&env),
      resume_event_(env) {
  simdev::DeviceParams params =
      simdev::DeviceParams::NvmeP3700(options_.device_bytes);
  params.name = kDeviceName;
  if (const auto dev = devices_.Create(params); !dev.ok()) {
    init_status_ = dev.status();
    return;
  }
  rt_ = std::make_unique<core::SimRuntime>(env_, devices_, options_.workers);
  auto stack =
      rt_->MountYaml(NodeStackYaml(id_, options_.log_records_per_worker));
  if (!stack.ok()) {
    init_status_ = stack.status();
    return;
  }
  stack_ = *stack;
  if (kvs() == nullptr || pushdown() == nullptr) {
    init_status_ = Status::Internal("cluster node stack lacks its mods");
    return;
  }
  init_status_ = Status::Ok();
}

labmods::LabKvsMod* ClusterNode::kvs() const {
  if (rt_ == nullptr) return nullptr;
  return FindMod<labmods::LabKvsMod>(*rt_, KvsUuid(id_));
}

labmods::PushdownMod* ClusterNode::pushdown() const {
  if (rt_ == nullptr) return nullptr;
  return FindMod<labmods::PushdownMod>(*rt_, PushdownUuid(id_));
}

uint32_t ClusterNode::version() const {
  const labmods::LabKvsMod* store = kvs();
  return store == nullptr ? 0 : store->version();
}

void ClusterNode::AdoptMap(std::shared_ptr<const ShardMap> map) {
  if (map == nullptr) return;
  if (map_ != nullptr && map->generation() <= map_->generation()) return;
  prev_map_ = std::move(map_);
  map_ = std::move(map);
}

void ClusterNode::Crash() {
  up_ = false;
  // A crashed node forgets any quiesce it was holding; restart admits.
  draining_ = false;
  resume_event_.Trigger();
}

Status ClusterNode::Restart() {
  if (up_) return Status::FailedPrecondition("node is already up");
  // Volatile state is gone; the real recovery path rebuilds the KVS
  // index from the on-device metadata log.
  LABSTOR_RETURN_IF_ERROR(rt_->registry().RepairAll());
  up_ = true;
  return Status::Ok();
}

sim::Task<Status> ClusterNode::Quiesce() {
  if (!up_) co_return Status::Unavailable("node is down");
  draining_ = true;
  // Admissions are held at the door (Execute blocks on resume_event_);
  // wait for the in-flight window to drain.
  while (in_flight_ > 0) co_await env_.Delay(sim::kUs);
  co_return Status::Ok();
}

Status ClusterNode::Upgrade(uint32_t new_version) {
  if (rt_ == nullptr) return Status::Internal("node not initialized");
  core::Runtime& runtime = rt_->runtime();
  runtime.SubmitUpgrade(core::UpgradeRequest{"labkvs", new_version,
                                             core::UpgradeKind::kCentralized});
  return runtime.StepAdmin();
}

void ClusterNode::Resume() {
  draining_ = false;
  resume_event_.Trigger();
}

void ClusterNode::EnsureQueue(uint32_t qid) {
  if (registered_queues_.insert(qid).second) {
    rt_->RegisterQueue(qid, 3 * sim::kUs);
  }
}

sim::Task<Status> ClusterNode::Submit(uint32_t qid, ipc::Request& req,
                                      const std::string& label,
                                      bool client_mutation) {
  // Held at the door during a quiesce; released by Resume (or Crash).
  while (draining_) co_await resume_event_.Wait();
  if (!up_) {
    co_return Status::Unavailable("node " + std::to_string(id_) + " is down");
  }
  // Client mutations park while a migration commit holds the label; a
  // concurrent interleave could silently destroy whichever applied
  // first. Rebalancer traffic (kInternalQid) is the lock holder itself.
  if (client_mutation) {
    while (up_ && locked_labels_.count(label) != 0) {
      co_await env_.Delay(sim::kUs);
    }
    if (!up_) {
      co_return Status::Unavailable("node " + std::to_string(id_) +
                                    " is down");
    }
    ++mutating_[label];
  }
  EnsureQueue(qid);
  ++in_flight_;
  const Status st = co_await rt_->Execute(qid, *stack_, req);
  --in_flight_;
  ++executed_;
  if (client_mutation) {
    if (const auto it = mutating_.find(label); it != mutating_.end()) {
      if (--it->second == 0) mutating_.erase(it);
    }
  }
  co_return st;
}

sim::Task<Status> ClusterNode::Execute(uint32_t qid, ipc::OpCode op,
                                       const std::string& label, uint64_t size,
                                       uint64_t* size_out) {
  const bool client_mutation =
      qid != kInternalQid &&
      (op == ipc::OpCode::kPut || op == ipc::OpCode::kDelete);
  ipc::Request req;
  req.op = op;
  req.client_pid = qid;
  req.length = size;
  req.SetPath(KeyFor(label));
  const Status st = co_await Submit(qid, req, label, client_mutation);
  if (size_out != nullptr) *size_out = req.result_u64;
  co_return st;
}

sim::Task<Status> ClusterNode::PutBytes(uint32_t qid, const std::string& label,
                                        std::vector<uint8_t> bytes) {
  // Pointer-chase chains dereference stored content, so the value
  // bytes must actually reach the device store (plain Put carries only
  // a size and the driver skips the copy for a null payload).
  ipc::Request req;
  req.op = ipc::OpCode::kPut;
  req.client_pid = qid;
  req.length = bytes.size();
  req.data = bytes.data();
  req.SetPath(KeyFor(label));
  co_return co_await Submit(qid, req, label, qid != kInternalQid);
}

Status ClusterNode::RegisterChain(const ipc::ChainProgram& program) {
  labmods::PushdownMod* pd = pushdown();
  if (pd == nullptr) return Status::Internal("node not initialized");
  if (!up_) return Status::Unavailable("node is down");
  return pd->Register(program,
                      rt_->ns().epoch_ref().load(std::memory_order_acquire));
}

sim::Task<Status> ClusterNode::ExecChain(uint32_t qid, uint32_t chain_id,
                                         const std::string& label,
                                         uint64_t* size_out,
                                         uint32_t* steps_out) {
  // A mutating chain rewrites its start label; take the same
  // migration-lock path as a direct Put on it.
  bool mutates = false;
  if (const labmods::PushdownMod* pd = pushdown(); pd != nullptr) {
    for (const auto& info : pd->ListChains()) {
      if (info.id == chain_id) {
        mutates = info.mutates;
        break;
      }
    }
  }
  // Local receive buffer: the chain's final scratch contents land
  // here, so size_out reports how many bytes the last hop produced
  // (and the response hop is billed for shipping them back).
  std::vector<uint8_t> recv(4096);
  ipc::Request req;
  req.op = ipc::OpCode::kChainExec;
  req.client_pid = qid;
  req.chain_id = chain_id;
  req.length = recv.size();
  req.data = recv.data();
  req.SetPath(KeyFor(label));
  const Status st =
      co_await Submit(qid, req, label, mutates && qid != kInternalQid);
  if (size_out != nullptr) *size_out = req.result_u64;
  if (steps_out != nullptr) *steps_out = req.chain_step;
  co_return st;
}

sim::Task<Status> ClusterNode::Put(uint32_t qid, const std::string& label,
                                   uint64_t size) {
  return Execute(qid, ipc::OpCode::kPut, label, size, nullptr);
}

sim::Task<Status> ClusterNode::Get(uint32_t qid, const std::string& label,
                                   uint64_t* size_out) {
  // Clients read with an always-sufficient buffer: LabKvs rejects gets
  // whose req.length is smaller than the stored value, and the actual
  // value size comes back via result_u64 regardless.
  return Execute(qid, ipc::OpCode::kGet, label, ~uint64_t{0}, size_out);
}

sim::Task<Status> ClusterNode::Delete(uint32_t qid, const std::string& label) {
  return Execute(qid, ipc::OpCode::kDelete, label, 0, nullptr);
}

void ClusterNode::SetRecordVersion(const std::string& label,
                                   uint64_t version) {
  record_versions_[label] = version;
  tombstones_.erase(label);
}

void ClusterNode::SetTombstone(const std::string& label, uint64_t version) {
  tombstones_[label] = version;
  record_versions_.erase(label);
}

void ClusterNode::ClearTombstone(const std::string& label) {
  tombstones_.erase(label);
}

void ClusterNode::ForgetRecord(const std::string& label) {
  record_versions_.erase(label);
}

uint64_t ClusterNode::RecordVersion(const std::string& label) const {
  const auto it = record_versions_.find(label);
  return it == record_versions_.end() ? 0 : it->second;
}

uint64_t ClusterNode::TombstoneVersion(const std::string& label) const {
  const auto it = tombstones_.find(label);
  return it == tombstones_.end() ? 0 : it->second;
}

uint64_t ClusterNode::MaxVersion(const std::string& label) const {
  return std::max(RecordVersion(label), TombstoneVersion(label));
}

bool ClusterNode::Has(const std::string& label) const {
  const labmods::LabKvsMod* store = kvs();
  return store != nullptr && store->ValueSize(KeyFor(label)).ok();
}

Result<uint64_t> ClusterNode::ValueSize(const std::string& label) const {
  const labmods::LabKvsMod* store = kvs();
  if (store == nullptr) return Status::Internal("node not initialized");
  return store->ValueSize(KeyFor(label));
}

std::vector<std::string> ClusterNode::Labels() const {
  std::vector<std::string> labels;
  const labmods::LabKvsMod* store = kvs();
  if (store == nullptr) return labels;
  const std::string prefix = std::string(kMount) + "/";
  for (std::string& key : store->ListKeys()) {
    if (key.rfind(prefix, 0) == 0) {
      labels.push_back(key.substr(prefix.size()));
    }
  }
  return labels;  // ListKeys is sorted; the prefix strip preserves it
}

size_t ClusterNode::label_count() const {
  const labmods::LabKvsMod* store = kvs();
  return store == nullptr ? 0 : store->key_count();
}

}  // namespace labstor::cluster
