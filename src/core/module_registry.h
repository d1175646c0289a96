// Module factory and Module Registry.
//
// ModFactory is the in-process stand-in for LabMod repos + dlopen: a
// plugin registry keyed by (mod name, version). Mods self-register via
// LABSTOR_REGISTER_LABMOD from their translation units; live upgrades
// register a higher version and ask the Module Manager to swap.
//
// ModuleRegistry holds *instances* keyed by the human-readable
// instance UUID (paper: "a key-value store where keys are LabMod UUIDs
// and values are the LabMod instances"). Mounting a stack instantiates
// a vertex only if its UUID is not yet present, so stacks can share
// instances (e.g. two stacks over one allocator).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/labmod.h"

namespace labstor::core {

using ModMaker = std::function<std::unique_ptr<LabMod>()>;

class ModFactory {
 public:
  // The process-wide factory (what "installed LabMod repos" resolve
  // against). Tests may build private factories.
  static ModFactory& Global();

  Status Register(const std::string& name, uint32_t version, ModMaker maker);
  bool Has(const std::string& name) const;
  // Highest registered version for `name`.
  Result<uint32_t> LatestVersion(const std::string& name) const;
  // version == 0 means "latest".
  Result<std::unique_ptr<LabMod>> Create(const std::string& name,
                                         uint32_t version = 0) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::map<uint32_t, ModMaker>> makers_;
};

namespace internal {
struct ModRegistrar {
  ModRegistrar(const char* name, uint32_t version, ModMaker maker) {
    (void)ModFactory::Global().Register(name, version, std::move(maker));
  }
};
}  // namespace internal

// Place in a .cc file:
//   LABSTOR_REGISTER_LABMOD("labfs", 1, LabFs);
#define LABSTOR_REGISTER_LABMOD(name, version, Type)                   \
  static const ::labstor::core::internal::ModRegistrar                 \
      labstor_mod_registrar_##Type##_##version(                        \
          name, version, [] { return std::make_unique<Type>(); })

class ModuleRegistry {
 public:
  explicit ModuleRegistry(const ModFactory* factory = &ModFactory::Global())
      : factory_(factory) {}

  // Instantiates `mod_name` (version 0 = latest) under `instance_uuid`
  // unless that UUID already exists, in which case the existing
  // instance is returned (after a mod-name consistency check).
  Result<LabMod*> Instantiate(const std::string& mod_name,
                              const std::string& instance_uuid,
                              const yaml::NodePtr& params, ModContext& ctx,
                              uint32_t version = 0);

  Result<LabMod*> Find(const std::string& instance_uuid) const;
  bool Has(const std::string& instance_uuid) const;

  // Live upgrade of every instance of `mod_name` to `new_version`
  // (0 = latest), all-or-nothing under one lock hold. Each fresh
  // instance is staged first: Create, Init with the *stored creation
  // params* (the ones the old instance was configured with), then
  // StateUpdate(old). The registry swaps only after *all* of them
  // succeed. Any failure destroys the staged instances and leaves
  // every entry on its old version — no mixed-version states.
  // Instances already on the target version are counted in `noops`
  // and left untouched (no Create/Init/StateUpdate churn); strict
  // downgrades are rejected. Existing LabMod* pointers become invalid
  // after a real swap; callers must re-resolve (stacks re-resolve by
  // UUID after upgrades).
  struct UpgradeAllResult {
    size_t swapped = 0;
    size_t noops = 0;
  };
  Result<UpgradeAllResult> UpgradeAll(const std::string& mod_name,
                                      uint32_t new_version, ModContext& ctx);

  // The creation params recorded for an instance (null if it was
  // instantiated without params).
  Result<yaml::NodePtr> ParamsOf(const std::string& instance_uuid) const;

  std::vector<std::string> InstancesOf(const std::string& mod_name) const;
  std::vector<std::string> AllInstances() const;

  // Crash recovery: invoke StateRepair on every instance.
  Status RepairAll();

 private:
  struct Entry {
    std::unique_ptr<LabMod> mod;
    // Creation params, kept so live upgrades can re-Init the fresh
    // instance with the configuration the operator actually mounted
    // (Init(nullptr) would silently reset every param to defaults).
    yaml::NodePtr params;
  };

  // Stage a replacement for `entry` at `version` (resolved, > old
  // version): Create + Bind + Init(stored params) + StateUpdate(old).
  // Pure with respect to the registry: failure just destroys the
  // staged instance. Caller holds mu_.
  Result<std::unique_ptr<LabMod>> StageLocked(const std::string& uuid,
                                              const Entry& entry,
                                              uint32_t version,
                                              ModContext& ctx);

  const ModFactory* factory_;
  // No request path touches the registry: Instantiate and Find run at
  // mount and upgrade time, under StackNamespace's own lock. The map
  // is ordered, so every sweep (UpgradeAll's staging, RepairAll, the
  // listings) visits instances in sorted UUID order and DST replays
  // stay deterministic.
  mutable std::mutex mu_;
  std::map<std::string, Entry> instances_;
};

}  // namespace labstor::core
