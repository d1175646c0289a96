#include "core/module_registry.h"

#include <utility>

#include "faultinject/faultinject.h"

namespace labstor::core {

ModFactory& ModFactory::Global() {
  static ModFactory factory;
  return factory;
}

Status ModFactory::Register(const std::string& name, uint32_t version,
                            ModMaker maker) {
  if (version == 0) return Status::InvalidArgument("version must be >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  auto& versions = makers_[name];
  if (versions.contains(version)) {
    return Status::AlreadyExists(name + " v" + std::to_string(version) +
                                 " already registered");
  }
  versions.emplace(version, std::move(maker));
  return Status::Ok();
}

bool ModFactory::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return makers_.contains(name);
}

Result<uint32_t> ModFactory::LatestVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = makers_.find(name);
  if (it == makers_.end() || it->second.empty()) {
    return Status::NotFound("no LabMod named '" + name + "'");
  }
  return it->second.rbegin()->first;
}

Result<std::unique_ptr<LabMod>> ModFactory::Create(const std::string& name,
                                                   uint32_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = makers_.find(name);
  if (it == makers_.end() || it->second.empty()) {
    return Status::NotFound("no LabMod named '" + name + "'");
  }
  const ModMaker* maker = nullptr;
  if (version == 0) {
    maker = &it->second.rbegin()->second;
  } else {
    const auto vit = it->second.find(version);
    if (vit == it->second.end()) {
      return Status::NotFound(name + " has no version " +
                              std::to_string(version));
    }
    maker = &vit->second;
  }
  return (*maker)();
}

std::vector<std::string> ModFactory::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(makers_.size());
  for (const auto& [name, _] : makers_) names.push_back(name);
  return names;
}

Result<LabMod*> ModuleRegistry::Instantiate(const std::string& mod_name,
                                            const std::string& instance_uuid,
                                            const yaml::NodePtr& params,
                                            ModContext& ctx,
                                            uint32_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = instances_.find(instance_uuid); it != instances_.end()) {
    if (it->second.mod->mod_name() != mod_name) {
      return Status::AlreadyExists("instance '" + instance_uuid +
                                   "' already bound to mod '" +
                                   it->second.mod->mod_name() + "'");
    }
    return it->second.mod.get();
  }
  auto created = factory_->Create(mod_name, version);
  if (!created.ok()) return created.status();
  std::unique_ptr<LabMod> mod = std::move(created).value();
  mod->Bind(instance_uuid);
  LABSTOR_RETURN_IF_ERROR(mod->Init(params, ctx));
  LabMod* raw = mod.get();
  instances_.emplace(instance_uuid, Entry{std::move(mod), params});
  return raw;
}

Result<LabMod*> ModuleRegistry::Find(const std::string& instance_uuid) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = instances_.find(instance_uuid);
  if (it == instances_.end()) {
    return Status::NotFound("no instance '" + instance_uuid + "'");
  }
  return it->second.mod.get();
}

bool ModuleRegistry::Has(const std::string& instance_uuid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return instances_.contains(instance_uuid);
}

Result<std::unique_ptr<LabMod>> ModuleRegistry::StageLocked(
    const std::string& uuid, const Entry& entry, uint32_t version,
    ModContext& ctx) {
  LABSTOR_ASSIGN_OR_RETURN(fresh,
                           factory_->Create(entry.mod->mod_name(), version));
  fresh->Bind(uuid);
  LABSTOR_RETURN_IF_ERROR(fresh->Init(entry.params, ctx));
  // StateUpdate failure mid-batch is the classic mixed-version hazard
  // UpgradeAll exists to close; this site lets the regression test
  // fail instance N of M deterministically.
  LABSTOR_FAULTPOINT("core.upgrade.stage");
  LABSTOR_RETURN_IF_ERROR(fresh->StateUpdate(*entry.mod));
  return std::move(fresh);
}

Result<ModuleRegistry::UpgradeAllResult> ModuleRegistry::UpgradeAll(
    const std::string& mod_name, uint32_t new_version, ModContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t version = new_version;
  if (version == 0) {
    LABSTOR_ASSIGN_OR_RETURN(latest, factory_->LatestVersion(mod_name));
    version = latest;
  }
  // Sorted UUID order (the map's), so which instance a mid-batch
  // failure lands on is the same on every DST replay.
  UpgradeAllResult result;
  bool found = false;
  std::vector<std::pair<Entry*, std::unique_ptr<LabMod>>> staged;
  for (auto& [uuid, entry] : instances_) {
    if (entry.mod->mod_name() != mod_name) continue;
    found = true;
    const uint32_t running = entry.mod->version();
    if (version < running) {
      return Status::FailedPrecondition(
          "downgrade to v" + std::to_string(version) + " from running v" +
          std::to_string(running) + " ('" + uuid + "') refused");
    }
    if (version == running) {
      ++result.noops;
      continue;
    }
    auto fresh = StageLocked(uuid, entry, version, ctx);
    // Any failure: the staged instances die with this scope and every
    // entry keeps its old version — all-or-nothing.
    if (!fresh.ok()) return fresh.status();
    staged.emplace_back(&entry, std::move(fresh).value());
  }
  if (!found) {
    return Status::NotFound("no running instances of '" + mod_name + "'");
  }
  for (auto& [entry, fresh] : staged) entry->mod = std::move(fresh);
  result.swapped = staged.size();
  return result;
}

Result<yaml::NodePtr> ModuleRegistry::ParamsOf(
    const std::string& instance_uuid) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = instances_.find(instance_uuid);
  if (it == instances_.end()) {
    return Status::NotFound("no instance '" + instance_uuid + "'");
  }
  return it->second.params;
}

std::vector<std::string> ModuleRegistry::InstancesOf(
    const std::string& mod_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [uuid, entry] : instances_) {
    if (entry.mod->mod_name() == mod_name) out.push_back(uuid);
  }
  return out;
}

std::vector<std::string> ModuleRegistry::AllInstances() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(instances_.size());
  for (const auto& [uuid, _] : instances_) out.push_back(uuid);
  return out;
}

Status ModuleRegistry::RepairAll() {
  std::lock_guard<std::mutex> lock(mu_);
  // Sorted UUID order (see UpgradeAll): which instance a partial-repair
  // fault lands on is the same on every DST replay.
  for (auto& [uuid, entry] : instances_) {
    // Partial-repair injection: a failure here leaves some mods
    // repaired and some not. That is safe because StateRepair is
    // clear-and-rebuild (idempotent), and Runtime::EnsureRepaired only
    // advances the repaired epoch on full success — the client's next
    // attempt re-runs the whole sweep and converges.
    LABSTOR_FAULTPOINT("core.repair.partial");
    LABSTOR_RETURN_IF_ERROR(entry.mod->StateRepair());
  }
  return Status::Ok();
}

}  // namespace labstor::core
