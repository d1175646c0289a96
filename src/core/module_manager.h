// Module Manager: live-upgradable, hot-pluggable LabMods (§III-C2).
//
// Upgrade requests name a LabMod (by mod name), a target version, and
// a protocol. The centralized protocol quiesces the Runtime: primary
// queues are marked UPDATE_PENDING, workers acknowledge, intermediate
// traffic drains, every registry instance of the mod is replaced (with
// StateUpdate migrating state), stack bindings refresh, and queues
// reopen. The decentralized protocol performs the same swap but also
// refreshes every connected client's view (client-resident operators).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/module_registry.h"
#include "core/stack.h"
#include "ipc/ipc_manager.h"

namespace labstor::core {

// Centralized: quiesce every primary queue at once (full barrier),
// swap, reopen — the protocol §III-C2 details. Decentralized: the
// update propagates to clients one at a time; each client's queue is
// paused, its view refreshed, and reopened before the next (a rolling
// upgrade — at most one queue is ever paused, trading total upgrade
// latency for per-client availability).
enum class UpgradeKind : uint8_t { kCentralized, kDecentralized };

struct UpgradeRequest {
  std::string mod_name;
  uint32_t new_version = 0;  // 0 = latest registered
  UpgradeKind kind = UpgradeKind::kCentralized;
  // Size of the "updated code object" (the paper's dummy module is
  // 1MB on NVMe); benches charge its load time.
  uint64_t code_size_bytes = 1 << 20;
};

class ModuleManager {
 public:
  ModuleManager(ModuleRegistry& registry, StackNamespace& ns,
                ipc::IpcManager& ipc)
      : registry_(registry), ns_(ns), ipc_(ipc) {}

  // The modify.mods API: enqueue an upgrade.
  void SubmitUpgrade(UpgradeRequest request);
  size_t pending() const;
  // Requests that performed at least one real instance swap.
  uint64_t upgrades_applied() const {
    return applied_.load(std::memory_order_acquire);
  }
  // Requests that completed successfully without swapping anything
  // (every instance already ran the target version). Counted apart
  // from upgrades_applied so "how many times did code actually change"
  // stays answerable.
  uint64_t noop_upgrades() const {
    return noops_.load(std::memory_order_acquire);
  }

  // Hook invoked once per applied upgrade, before the swap — models
  // loading the updated code object from storage (the dominant cost in
  // the paper's Table I: ~5ms for a 1MB module on NVMe). Default: none.
  using CodeLoadFn = std::function<void(const UpgradeRequest&)>;
  void SetCodeLoadFn(CodeLoadFn fn) { code_load_ = std::move(fn); }

  // Test/DST observability: invoked (from the upgrading thread) at
  // named points of the upgrade protocols —
  //   "centralized.quiesced"        every primary paused, traffic drained
  //   "centralized.applied"         swaps + rebinding done, still paused
  //   "decentralized.swap.quiesced" global swap barrier reached
  //   "decentralized.roll.paused"   one client's queue paused (rolling)
  // The hook runs with no ModuleManager/IpcManager lock held, so it
  // may connect clients, submit requests, or inspect queues.
  using PhaseHook = std::function<void(std::string_view)>;
  void SetPhaseHook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  // Invoked by the Runtime Admin every t ms. `wait_quiesce` blocks
  // until all marked primary queues are acknowledged and in-flight
  // work has drained; the Runtime supplies a worker-aware
  // implementation (tests may pass a no-op).
  Status ProcessUpgrades(ModContext& ctx,
                         const std::function<void()>& wait_quiesce);

 private:
  // Applies one request to every instance of its mod (all-or-nothing
  // via ModuleRegistry::UpgradeAll); reports how many instances
  // actually swapped vs were already on the target version.
  Status ApplyOne(const UpgradeRequest& request, ModContext& ctx,
                  size_t* swapped, size_t* noops);
  void Phase(std::string_view phase) const {
    if (phase_hook_) phase_hook_(phase);
  }

  ModuleRegistry& registry_;
  StackNamespace& ns_;
  ipc::IpcManager& ipc_;
  mutable std::mutex mu_;
  std::deque<UpgradeRequest> queue_;
  CodeLoadFn code_load_;
  PhaseHook phase_hook_;
  // Bumped by the upgrading (admin) thread, polled by other threads.
  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> noops_{0};
};

}  // namespace labstor::core
