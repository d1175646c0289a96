// Deterministic lifecycle scheduler (DESIGN.md §9).
//
// PR 4's harness enumerates *crash points*; this module schedules
// *lifecycle events* — centralized and decentralized live upgrades,
// worker rebalances, client restarts, crash+recover, and live stack
// modification — interleaved with LabFS/LabKVS/probe traffic in one
// seed-replayable action stream. Every decision is drawn from the
// per-site salted Schedule streams, so a failing run prints a seed and
// --dst_seed=<seed> replays the exact event order, byte-identical
// trace included.
//
// Pluggable invariants are checked after every step and at end of run:
//   (a) upgrade atomicity     — all instances of an upgraded mod on
//                               the same version; acked requests only
//                               ever executed against live instances;
//   (b) config preservation   — upgraded instances observe their
//                               predecessors' creation params;
//   (c) quiesce correctness   — nothing admitted past MarkUpdatePending
//                               and every paused queue reopened, even
//                               queues born mid-upgrade;
//   (d) namespace-epoch coherence — stack vertex bindings always match
//                               the registry, and the per-worker stack
//                               cache never serves a stale Stack*
//                               across RefreshBindings/Modify.
// This file is the permanent home for reproducing lifecycle bugs:
// every one we fix grows either an invariant or an event here.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "dst/model.h"
#include "dst/schedule.h"
#include "labmods/genericfs.h"
#include "labmods/generickvs.h"

namespace labstor::dst {

// Param-and-state-sensitive canary mod ("dst_probe", versions
// 1..kMaxVersion). Each Process adds `units` (an Init param) to
// req.result_u64 and bumps an op counter, so a single request through
// the probe stack proves three things at once: the binding is live
// (IsLive canary against executed-after-destroy), the configuration
// survived the last upgrade (result == sum of configured units), and
// the op history survived StateUpdate. StateUpdate migrates *only*
// mutable state (ops) — configuration must come from Init with the
// stored creation params, which is exactly what the pre-fix
// Init(nullptr, ctx) upgrade path failed to do.
class ProbeMod final : public core::LabMod {
 public:
  // Registered headroom: enough versions that a full-length lifecycle
  // run can keep stepping cur+1 without ever saturating (a saturated
  // upgrade would degrade to a no-op and starve the coverage floors).
  static constexpr uint32_t kMaxVersion = 240;

  explicit ProbeMod(uint32_t version);
  ~ProbeMod() override;

  Status Init(const yaml::NodePtr& params, core::ModContext& ctx) override;
  Status Process(ipc::Request& req, core::StackExec& exec) override;
  Status StateUpdate(core::LabMod& old) override;

  uint64_t units() const { return units_; }
  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  bool inited_with_params() const { return inited_with_params_; }

  // Membership in the process-wide set of constructed-and-not-yet-
  // destroyed ProbeMods: a registry/stack pointer to a destroyed
  // instance fails this before it turns into use-after-free.
  static bool IsLive(const core::LabMod* mod);

 private:
  uint64_t units_ = 1;
  bool inited_with_params_ = false;
  std::atomic<uint64_t> ops_{0};
};

// Idempotently registers dst_probe v1..kMaxVersion in the global
// factory. labstor_dst is a static library, so registration cannot
// rely on static-initializer side effects surviving the link; rigs
// call this explicitly.
void EnsureProbeModsRegistered();

// One runtime hosting the three lifecycle stacks, sync mode, never
// Started (thread-free — events and I/O interleave deterministically
// on the caller's thread, and StepAdmin drives the real quiesce
// machinery inline):
//   fs::/dst    labfs -> kernel_driver           (device nvme0)
//   kvs::/dst   labkvs -> kernel_driver          (device nvme1)
//   ctl::/probe dst_probe(probe_a, units: 7) -> dst_probe(probe_b, units: 3)
// Two probe instances of one mod name make every upgrade
// multi-instance — the shape the all-or-nothing staging protects.
class LifecycleRig {
 public:
  static Result<std::unique_ptr<LifecycleRig>> Create();

  core::Runtime& runtime() { return runtime_; }
  core::Client& client() { return client_; }
  // Second connected client: restart/reconnect events toggle between
  // the two so one channel churns while the other carries traffic.
  core::Client& aux_client() { return aux_client_; }
  labmods::GenericFs& fs() { return fs_; }
  labmods::GenericKvs& kvs() { return kvs_; }

  // Always resolved fresh from the namespace: Modify replaces Stack
  // objects, so holding one across events is exactly the stale-pointer
  // bug invariant (d) polices.
  Result<core::Stack*> fs_stack();
  Result<core::Stack*> probe_stack();
  const core::StackSpec& fs_spec() const { return fs_spec_; }

 private:
  LifecycleRig();
  Status init_status_;

  simdev::DeviceRegistry devices_;
  core::Runtime runtime_;
  core::Client client_;
  core::Client aux_client_;
  labmods::GenericFs fs_;
  labmods::GenericKvs kvs_;
  core::StackSpec fs_spec_;
};

struct LifecycleStats {
  size_t steps = 0;
  size_t fs_ops = 0;
  size_t kvs_ops = 0;
  size_t probe_ops = 0;
  size_t upgrades_centralized = 0;
  size_t upgrades_decentralized = 0;
  size_t upgrade_noops = 0;
  size_t rebalances = 0;
  size_t client_restarts = 0;
  size_t runtime_restarts = 0;
  size_t stack_modifies = 0;
  size_t invariant_checks = 0;
};

struct LifecycleOptions {
  size_t num_steps = 140;
  // Coverage floors: if the random stream missed an event class, it is
  // forced (sandwiched between fs and kvs ops, deterministically) so
  // every run exercises every class.
  size_t min_centralized_upgrades = 1;
  size_t min_decentralized_upgrades = 1;
  size_t min_rebalances = 1;
  size_t min_client_restarts = 1;
  size_t min_runtime_restarts = 1;
};

// What the runner believes the system should look like; invariants
// compare the live system against this.
struct LifecycleExpectation {
  uint32_t probe_version = 1;  // all dst_probe instances must agree
  std::map<std::string, uint64_t> probe_units;  // uuid -> configured units
  uint64_t probe_ops = 0;  // per-instance executed-op count
};

struct LifecycleContext {
  LifecycleRig& rig;
  const LifecycleStats& stats;
  const LifecycleExpectation& expect;
  uint64_t seed = 0;
  std::string_view event;  // the step just performed
};

class LifecycleInvariant {
 public:
  virtual ~LifecycleInvariant() = default;
  virtual std::string_view name() const = 0;
  virtual Status Check(const LifecycleContext& ctx) const = 0;
};

// (a) Every dst_probe instance reports expect.probe_version, and every
// registry pointer refers to a live (never-destroyed) instance.
class UpgradeAtomicityInvariant final : public LifecycleInvariant {
 public:
  std::string_view name() const override { return "upgrade-atomicity"; }
  Status Check(const LifecycleContext& ctx) const override;
};

// (b) Every dst_probe instance observes its predecessor's creation
// params (units), was actually Init'ed with params, and the registry
// still stores those params for the next upgrade.
class ConfigPreservationInvariant final : public LifecycleInvariant {
 public:
  std::string_view name() const override { return "config-preservation"; }
  Status Check(const LifecycleContext& ctx) const override;
};

// (c) Between upgrades no queue is left UPDATE_PENDING, every pause
// transition has a matching clear, and the manager is not latched in a
// quiesce.
class QuiesceCorrectnessInvariant final : public LifecycleInvariant {
 public:
  std::string_view name() const override { return "quiesce-correctness"; }
  Status Check(const LifecycleContext& ctx) const override;
  // Reads only the Runtime, so the cluster scenario runs it on every
  // node after each rolling-upgrade round.
  static Status Check(core::Runtime& runtime);
};

// (d) Every mounted stack resolves by id to itself and every vertex's
// cached LabMod* matches the registry (RefreshBindings left nothing
// stale behind).
class NamespaceEpochCoherenceInvariant final : public LifecycleInvariant {
 public:
  std::string_view name() const override { return "namespace-epoch-coherence"; }
  Status Check(const LifecycleContext& ctx) const override;
  // Reads only the Runtime (see QuiesceCorrectnessInvariant).
  static Status Check(core::Runtime& runtime);
};

// The four shipped invariants (static storage; pointers stay valid).
const std::vector<const LifecycleInvariant*>& DefaultLifecycleInvariants();

// Drives `opts.num_steps` schedule-drawn steps against the rig,
// checking `invariants` after every one, then forces any unmet
// coverage floors and runs the end-of-run audit: final invariant pass,
// byte-exact LabFS/LabKVS read-back against the acked-op models, and
// probe op-count continuity across every upgrade/restart in the run.
Result<LifecycleStats> RunLifecycle(
    LifecycleRig& rig, Schedule& sched,
    const std::vector<const LifecycleInvariant*>& invariants,
    const LifecycleOptions& opts = {});

}  // namespace labstor::dst
