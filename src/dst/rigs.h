// Crash rigs: disposable sync-mode Runtime + stack + client bundles
// the crash-point enumerator rebuilds for every crash point.
//
// Rigs run decentralized (sync) stacks and never Start() the Runtime,
// so there are no threads: a LabFS or LabKVS request executes inline
// in the caller, every fslog append lands in worker region 0 in
// strict sequence order, and building hundreds of rigs per test is
// cheap. The journal-replay crash model depends on that ordering — a
// journal prefix cleanly partitions the log into durable records and
// never-happened records.
#pragma once

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "core/client.h"
#include "core/runtime.h"
#include "labmods/genericfs.h"
#include "labmods/generickvs.h"
#include "labmods/labfs.h"
#include "labmods/labkvs.h"
#include "labmods/pushdown.h"
#include "sim/environment.h"
#include "simdev/registry.h"
#include "telemetry/telemetry.h"

namespace labstor::dst {

// What a crash rig hosts. Each kind differs only in its stack YAML
// and in which mods the rig looks up; every stack is sync mode on a
// 1-worker Runtime over one kernel_driver device.
enum class StackKind : uint8_t {
  kLabFs,        // labfs -> kernel_driver, mounted at fs::/dst
  kLabKvs,       // labkvs -> kernel_driver, mounted at kvs::/dst
  // pushdown -> labkvs -> kernel_driver, mounted at kvs::/dst: the
  // chain interpreter runs inline in the caller, so every journal
  // append a chain step produces lands in strict sequence order and
  // the crash-point enumerator can tear the log at every chain-step
  // boundary.
  kPushdownKvs,
};

class CrashRig {
 public:
  static Result<std::unique_ptr<CrashRig>> Create(StackKind kind);

  simdev::SimDevice& device() { return *device_; }
  core::Runtime& runtime() { return runtime_; }
  core::Client& client() { return client_; }
  core::Stack& stack() { return *stack_; }
  // The metadata log under test (defines the crash-point boundaries).
  const labmods::MetadataLog* log() const {
    return labfs_ != nullptr ? labfs_->log() : labkvs_->log();
  }

  // What a restarted administrator does: StateRepair on every mod.
  Status Recover() { return runtime_.registry().RepairAll(); }

  // Typed access; null on rigs that don't host that mod.
  labmods::GenericFs* fs() { return labfs_ != nullptr ? &fs_ : nullptr; }
  labmods::GenericKvs* kvs() { return labkvs_ != nullptr ? &kvs_ : nullptr; }
  labmods::LabFsMod* labfs() { return labfs_; }
  labmods::LabKvsMod* labkvs() { return labkvs_; }
  labmods::PushdownMod* pushdown() { return pushdown_; }

 private:
  CrashRig();
  Status Init(StackKind kind);

  simdev::DeviceRegistry devices_;
  core::Runtime runtime_;
  core::Client client_;
  labmods::GenericFs fs_;
  labmods::GenericKvs kvs_;
  simdev::SimDevice* device_ = nullptr;
  core::Stack* stack_ = nullptr;
  labmods::LabFsMod* labfs_ = nullptr;
  labmods::LabKvsMod* labkvs_ = nullptr;
  labmods::PushdownMod* pushdown_ = nullptr;
};

// Multi-node cluster under one DES: its own Environment, a
// virtual-time Telemetry, and a cluster::Cluster of full per-node
// LabStor runtimes. Unlike the sync crash rigs there IS concurrency —
// in virtual time — but it is deterministic: the scenario driver
// (dst/cluster_scenario.h) steps the environment to quiescence between
// schedule decisions.
class ClusterRig {
 public:
  static Result<std::unique_ptr<ClusterRig>> Create(
      const cluster::ClusterConfig& config = {});

  sim::Environment& env() { return env_; }
  telemetry::Telemetry& telemetry() { return tel_; }
  cluster::Cluster& cluster() { return *cluster_; }

 private:
  explicit ClusterRig(const cluster::ClusterConfig& config);
  Status init_status_;

  sim::Environment env_;
  telemetry::Telemetry tel_;
  std::unique_ptr<cluster::Cluster> cluster_;
};

}  // namespace labstor::dst
