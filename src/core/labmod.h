// LabMod: the unit of modularity in LabStor (paper §III-A).
//
// A LabMod is a single-purpose, self-contained code object with four
// elements: a *type* (the API set it implements), an *operation*
// (Process), *state* (its private members), and a *connector* (the
// client-side code that builds requests — GenericFS/GenericKVS here).
//
// Required platform APIs beyond Process:
//   * StateUpdate  — copy state from the previous version (live upgrade)
//   * StateRepair  — revalidate state after a Runtime crash/restart
//   * EstProcessingTime / EstTotalTime — performance counters the Work
//     Orchestrator uses to classify queues as latency-sensitive vs
//     computational.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/yaml.h"
#include "core/exec_trace.h"
#include "ipc/request.h"
#include "sim/cost_model.h"
#include "simdev/registry.h"

namespace labstor::core {

class StackExec;

// The set of APIs a LabMod implements. Stacked mods are validated for
// type compatibility when a LabStack is mounted.
enum class ModType : uint8_t {
  kFilesystem,   // POSIX-ish file ops -> block ops
  kKvs,          // put/get/delete -> block ops
  kPushdown,     // sandboxed op chains -> any server-side op (passes
                 // non-chain requests through unchanged)
  kScheduler,    // block ops -> block ops (queue selection)
  kCache,        // block ops -> block ops (may absorb)
  kPermissions,  // any -> same (gate)
  kTransform,    // block ops -> block ops (compression etc.)
  kConsistency,  // block ops -> block ops (durability policy)
  kDriver,       // block ops -> device (terminal)
  kGeneric,      // client-side interface mod (connector host)
  kDummy,        // control/testing
};

std::string_view ModTypeName(ModType type);

// Services the Runtime hands to module operations.
struct ModContext {
  simdev::DeviceRegistry* devices = nullptr;
  const sim::SoftwareCosts* costs = &sim::DefaultCosts();
  uint32_t num_workers = 1;
  // Namespace mutation epoch of the owning runtime (nullptr = no
  // namespace, treated as epoch 0). The pushdown mod keys chain
  // re-registration off this: replacing a registered chain id requires
  // the namespace to have advanced past the epoch it was installed in.
  const std::atomic<uint64_t>* ns_epoch = nullptr;
  // Optional metrics/tracing sink (nullptr = telemetry off, zero
  // cost). Mods that keep private stats (cache hit/miss) mirror them
  // here; the per-mod span capture lives in StackExec/SimRuntime.
  telemetry::Telemetry* telemetry = nullptr;
};

class LabMod {
 public:
  LabMod(std::string mod_name, ModType type, uint32_t version)
      : mod_name_(std::move(mod_name)), type_(type), version_(version) {}
  virtual ~LabMod() = default;

  LabMod(const LabMod&) = delete;
  LabMod& operator=(const LabMod&) = delete;

  const std::string& mod_name() const { return mod_name_; }
  const std::string& instance_uuid() const { return instance_uuid_; }
  ModType type() const { return type_; }
  uint32_t version() const { return version_; }

  // Called by the Module Registry when instantiated into a stack.
  void Bind(std::string instance_uuid) {
    instance_uuid_ = std::move(instance_uuid);
  }

  // Lifecycle: `params` is the vertex's attribute map from the
  // LabStack YAML (may be null).
  virtual Status Init(const yaml::NodePtr& params, ModContext& ctx) {
    (void)params;
    (void)ctx;
    return Status::Ok();
  }

  // The operation. Implementations do their functional work, charge
  // their software cost to exec.trace(), and forward downstream via
  // exec.Forward(req) when the request continues through the DAG.
  virtual Status Process(ipc::Request& req, StackExec& exec) = 0;

  // Live upgrade: copy state out of the retiring instance. `old` is
  // guaranteed to be the same mod_name with version() < this->version().
  virtual Status StateUpdate(LabMod& old) {
    (void)old;
    return Status::Ok();
  }

  // Crash recovery: revalidate/rebuild state after a Runtime restart.
  virtual Status StateRepair() { return Status::Ok(); }

  // Work Orchestrator counters: expected software processing time for
  // one request (ns), and expected end-to-end time including device.
  virtual sim::Time EstProcessingTime() const { return 1 * sim::kUs; }
  virtual sim::Time EstTotalTime(const ipc::Request& req) const {
    (void)req;
    return EstProcessingTime();
  }

 private:
  std::string mod_name_;
  std::string instance_uuid_;
  ModType type_;
  uint32_t version_;
};

inline std::string_view ModTypeName(ModType type) {
  switch (type) {
    case ModType::kFilesystem: return "filesystem";
    case ModType::kKvs: return "kvs";
    case ModType::kPushdown: return "pushdown";
    case ModType::kScheduler: return "scheduler";
    case ModType::kCache: return "cache";
    case ModType::kPermissions: return "permissions";
    case ModType::kTransform: return "transform";
    case ModType::kConsistency: return "consistency";
    case ModType::kDriver: return "driver";
    case ModType::kGeneric: return "generic";
    case ModType::kDummy: return "dummy";
  }
  return "?";
}

}  // namespace labstor::core
