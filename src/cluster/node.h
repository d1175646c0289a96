// ClusterNode: one simulated LabStor runtime node in the cluster.
//
// Every node is a full single-node LabStor instance under the shared
// DES: its own DeviceRegistry + NVMe device, its own SimRuntime (a
// real, never-Started Runtime under the virtual clock), and an async
// LabKVS stack mounted at the cluster-wide mount point `kvs::/shard`.
// Label puts/gets execute the *real* LabKVS mod code — block
// allocation, metadata-log appends, the works — so node crash /
// rejoin recovery rides the same StateRepair log replay the DST
// harness verifies for single nodes, and a rolling upgrade swaps the
// labkvs instance through the Runtime's ModuleManager.
//
// Routing state: each node holds an RCU snapshot of the ShardMap (and
// the previous one). Snapshots may be stale; the cluster routing layer
// (cluster.cc) turns staleness into forwarded hops, and the previous
// map powers the read-fallback during migrations ("ask the new owner,
// fall back to the old").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/shard_map.h"
#include "core/sim_runtime.h"
#include "ipc/chain.h"
#include "labmods/labkvs.h"
#include "labmods/pushdown.h"
#include "sim/environment.h"
#include "simdev/registry.h"

namespace labstor::cluster {

class ClusterNode {
 public:
  // Cluster-wide mount point: keys are identical strings on every
  // node, so migration moves a label without rewriting its key.
  static constexpr const char* kMount = "kvs::/shard";

  struct Options {
    size_t workers = 2;
    uint64_t device_bytes = 32ull << 20;
    uint64_t log_records_per_worker = 8192;
  };

  ClusterNode(sim::Environment& env, uint32_t id, Options options);
  ClusterNode(sim::Environment& env, uint32_t id);  // default Options
  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  Status init_status() const { return init_status_; }
  uint32_t id() const { return id_; }
  bool up() const { return up_; }
  // Version of the running labkvs instance (0 before a good init).
  uint32_t version() const;
  bool draining() const { return draining_; }
  uint64_t in_flight() const { return in_flight_; }
  uint64_t executed() const { return executed_; }
  core::SimRuntime& rt() { return *rt_; }

  // --- shard-map snapshot (RCU adoption) ---
  void AdoptMap(std::shared_ptr<const ShardMap> map);
  std::shared_ptr<const ShardMap> map() const { return map_; }
  std::shared_ptr<const ShardMap> prev_map() const { return prev_map_; }
  uint64_t map_generation() const {
    return map_ == nullptr ? 0 : map_->generation();
  }

  // --- lifecycle ---
  // Abrupt offline: subsequent ops fail Unavailable. Durable state
  // (device contents, metadata log) is retained for Restart.
  void Crash();
  // Back online after a crash: replays the metadata log through the
  // real StateRepair path before serving.
  Status Restart();
  // Per-node quiesce for rolling upgrades: hold new admissions, wait
  // for in-flight requests to drain.
  sim::Task<Status> Quiesce();
  // Live-upgrade the labkvs instance to `new_version` through the
  // Runtime's ModuleManager (a centralized UpgradeRequest, processed
  // inline by StepAdmin): UpgradeAll stages the new instance,
  // StateUpdate moves the store, RefreshBindings rebinds the stack.
  // Runs between Quiesce and Resume.
  Status Upgrade(uint32_t new_version);
  // Release held requests.
  void Resume();

  // --- label operations (local execution through the real stack) ---
  sim::Task<Status> Put(uint32_t qid, const std::string& label, uint64_t size);
  sim::Task<Status> Get(uint32_t qid, const std::string& label,
                        uint64_t* size_out = nullptr);
  sim::Task<Status> Delete(uint32_t qid, const std::string& label);
  // Put with real value bytes: pointer-chase chains dereference stored
  // content, so it must survive the trip through the device store.
  sim::Task<Status> PutBytes(uint32_t qid, const std::string& label,
                             std::vector<uint8_t> bytes);

  // --- pushdown chains (DESIGN.md §12) ---
  // Admin-plane registration, same epoch rules as the IPC path; the
  // epoch is read from this node's own namespace.
  Status RegisterChain(const ipc::ChainProgram& program);
  // Run a registered chain starting at `label`, entirely on this node.
  // `steps_out` reports how many chain steps executed.
  sim::Task<Status> ExecChain(uint32_t qid, uint32_t chain_id,
                              const std::string& label,
                              uint64_t* size_out = nullptr,
                              uint32_t* steps_out = nullptr);
  labmods::PushdownMod* pushdown() const;

  // --- store introspection (invariants / rebalancer planning) ---
  bool Has(const std::string& label) const;
  Result<uint64_t> ValueSize(const std::string& label) const;
  // Labels held by this node's store (mount prefix stripped), sorted.
  std::vector<std::string> Labels() const;
  size_t label_count() const;

  // --- versioned record metadata (migration conflict resolution) ---
  // Every client-acked mutation carries a cluster-issued version, and a
  // delete leaves a versioned tombstone instead of plain absence.
  // Migration compares versions, so a stale copy stranded on a down
  // node can neither overwrite a newer value nor resurrect a deleted
  // one when the node rejoins. Durable alongside the store itself.
  void SetRecordVersion(const std::string& label, uint64_t version);
  void SetTombstone(const std::string& label, uint64_t version);
  void ClearTombstone(const std::string& label);
  void ForgetRecord(const std::string& label);
  uint64_t RecordVersion(const std::string& label) const;     // 0 = none
  uint64_t TombstoneVersion(const std::string& label) const;  // 0 = none
  uint64_t MaxVersion(const std::string& label) const;
  const std::map<std::string, uint64_t>& tombstones() const {
    return tombstones_;
  }
  size_t tombstone_count() const { return tombstones_.size(); }

  // --- migration commit coordination ---
  // A rebalancer write or delete against a label must not interleave
  // with a client mutation of the same label: the loser's bytes would
  // silently vanish. The rebalancer brackets its store access with
  // LockLabel/UnlockLabel and drains MutationsInFlight first; client
  // mutations (any qid but kInternalQid) park until the lock clears.
  static constexpr uint32_t kInternalQid = 900000;
  void LockLabel(const std::string& label) { locked_labels_.insert(label); }
  void UnlockLabel(const std::string& label) { locked_labels_.erase(label); }
  bool LabelLocked(const std::string& label) const {
    return locked_labels_.count(label) != 0;
  }
  uint32_t MutationsInFlight(const std::string& label) const {
    const auto it = mutating_.find(label);
    return it == mutating_.end() ? 0 : it->second;
  }

  static std::string KeyFor(const std::string& label) {
    return std::string(kMount) + "/" + label;
  }

 private:
  sim::Task<Status> Execute(uint32_t qid, ipc::OpCode op,
                            const std::string& label, uint64_t size,
                            uint64_t* size_out);
  // Shared admission path: quiesce gate, migration lock, in-flight
  // accounting around one request through the node's stack.
  sim::Task<Status> Submit(uint32_t qid, ipc::Request& req,
                           const std::string& label, bool client_mutation);
  void EnsureQueue(uint32_t qid);
  // Resolved through the registry on every use: an upgrade destroys
  // the instance a held pointer would name.
  labmods::LabKvsMod* kvs() const;

  sim::Environment& env_;
  uint32_t id_;
  Options options_;
  Status init_status_;

  simdev::DeviceRegistry devices_;
  std::unique_ptr<core::SimRuntime> rt_;
  core::Stack* stack_ = nullptr;
  std::set<uint32_t> registered_queues_;

  bool up_ = true;
  bool draining_ = false;
  uint64_t in_flight_ = 0;
  uint64_t executed_ = 0;
  sim::Event resume_event_;

  std::shared_ptr<const ShardMap> map_;
  std::shared_ptr<const ShardMap> prev_map_;

  // label -> version of the held value / of the acked delete. At most
  // one of the two has an entry per label.
  std::map<std::string, uint64_t> record_versions_;
  std::map<std::string, uint64_t> tombstones_;

  // Migration commit coordination (see LockLabel above).
  std::set<std::string> locked_labels_;
  std::map<std::string, uint32_t> mutating_;
};

}  // namespace labstor::cluster
