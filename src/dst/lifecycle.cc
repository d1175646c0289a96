#include "dst/lifecycle.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <mutex>
#include <set>
#include <utility>

#include "dst/workloads.h"
#include "ipc/request.h"
#include "simdev/device_params.h"

namespace labstor::dst {

// ---------------------------------------------------------------------------
// ProbeMod

namespace {

std::mutex& ProbeLiveMutex() {
  static std::mutex mu;
  return mu;
}

std::set<const core::LabMod*>& ProbeLiveSet() {
  static std::set<const core::LabMod*> live;
  return live;
}

}  // namespace

ProbeMod::ProbeMod(uint32_t version)
    : core::LabMod("dst_probe", core::ModType::kDummy, version) {
  std::lock_guard<std::mutex> lock(ProbeLiveMutex());
  ProbeLiveSet().insert(this);
}

ProbeMod::~ProbeMod() {
  std::lock_guard<std::mutex> lock(ProbeLiveMutex());
  ProbeLiveSet().erase(this);
}

bool ProbeMod::IsLive(const core::LabMod* mod) {
  std::lock_guard<std::mutex> lock(ProbeLiveMutex());
  return ProbeLiveSet().count(mod) != 0;
}

Status ProbeMod::Init(const yaml::NodePtr& params, core::ModContext& ctx) {
  (void)ctx;
  if (params != nullptr) {
    units_ = params->GetUint("units", 1);
    inited_with_params_ = true;
  }
  return Status::Ok();
}

Status ProbeMod::Process(ipc::Request& req, core::StackExec& exec) {
  // A stale binding (registry pointer or cached Stack*) executing a
  // retired instance surfaces here as an error instead of silent
  // use-after-free.
  if (!IsLive(this)) {
    return Status::Internal("dst_probe executed after destruction");
  }
  ops_.fetch_add(1, std::memory_order_relaxed);
  req.result_u64 += units_;
  if (exec.HasDownstream()) return exec.Forward(req);
  return Status::Ok();
}

Status ProbeMod::StateUpdate(core::LabMod& old) {
  auto* prev = dynamic_cast<ProbeMod*>(&old);
  if (prev == nullptr) {
    return Status::InvalidArgument("StateUpdate from incompatible mod");
  }
  // Only mutable state migrates. Configuration (units_) must arrive
  // via Init with the stored creation params — copying it here would
  // mask the Init(nullptr) upgrade bug this mod exists to catch.
  ops_.store(prev->ops(), std::memory_order_relaxed);
  return Status::Ok();
}

void EnsureProbeModsRegistered() {
  static const bool registered = [] {
    for (uint32_t v = 1; v <= ProbeMod::kMaxVersion; ++v) {
      // kAlreadyExists is fine: another binary section may have
      // registered the same versions first.
      (void)core::ModFactory::Global().Register(
          "dst_probe", v, [v] { return std::make_unique<ProbeMod>(v); });
    }
    return true;
  }();
  (void)registered;
}

// ---------------------------------------------------------------------------
// LifecycleRig

namespace {

constexpr uint64_t kDeviceBytes = 16 << 20;

constexpr const char* kLifecycleFsYaml =
    "mount: fs::/dst\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: labfs\n"
    "    uuid: labfs_life\n"
    "    params:\n"
    "      log_records_per_worker: 512\n"
    "    outputs: [drv_labfs_life]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv_labfs_life\n";

constexpr const char* kLifecycleKvsYaml =
    "mount: kvs::/dst\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: labkvs\n"
    "    uuid: labkvs_life\n"
    "    params:\n"
    "      device: nvme1\n"
    "      log_records_per_worker: 512\n"
    "    outputs: [drv_labkvs_life]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv_labkvs_life\n"
    "    params:\n"
    "      device: nvme1\n";

// Two instances of one mod name, chained, each with distinct params:
// every upgrade is multi-instance (the all-or-nothing shape) and a
// single dummy request proves both configs survived (7 + 3 == 10).
constexpr const char* kLifecycleProbeYaml =
    "mount: ctl::/probe\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: dst_probe\n"
    "    uuid: probe_a\n"
    "    version: 1\n"
    "    params:\n"
    "      units: 7\n"
    "    outputs: [probe_b]\n"
    "  - mod: dst_probe\n"
    "    uuid: probe_b\n"
    "    version: 1\n"
    "    params:\n"
    "      units: 3\n";

core::Runtime::Options LifecycleRigOptions() {
  core::Runtime::Options options;
  // One worker, never Started: every event runs inline on the caller's
  // thread, so the schedule stream is the only source of ordering.
  options.max_workers = 1;
  return options;
}

}  // namespace

LifecycleRig::LifecycleRig()
    : devices_(nullptr),
      runtime_(LifecycleRigOptions(), devices_),
      client_(runtime_, ipc::Credentials{100, 1000, 1000}),
      aux_client_(runtime_, ipc::Credentials{200, 1000, 1000}),
      fs_(client_),
      kvs_(client_) {
  init_status_ = [&]() -> Status {
    EnsureProbeModsRegistered();
    LABSTOR_ASSIGN_OR_RETURN(
        dev0, devices_.Create(simdev::DeviceParams::NvmeP3700(kDeviceBytes)));
    (void)dev0;
    simdev::DeviceParams second = simdev::DeviceParams::NvmeP3700(kDeviceBytes);
    second.name = "nvme1";
    LABSTOR_ASSIGN_OR_RETURN(dev1, devices_.Create(second));
    (void)dev1;

    LABSTOR_ASSIGN_OR_RETURN(fs_spec,
                             core::StackSpec::Parse(kLifecycleFsYaml));
    fs_spec_ = fs_spec;
    LABSTOR_ASSIGN_OR_RETURN(
        fs_stack, runtime_.MountStack(fs_spec_, ipc::Credentials{1, 0, 0}));
    (void)fs_stack;
    LABSTOR_ASSIGN_OR_RETURN(kvs_spec,
                             core::StackSpec::Parse(kLifecycleKvsYaml));
    LABSTOR_ASSIGN_OR_RETURN(
        kvs_stack, runtime_.MountStack(kvs_spec, ipc::Credentials{1, 0, 0}));
    (void)kvs_stack;
    LABSTOR_ASSIGN_OR_RETURN(probe_spec,
                             core::StackSpec::Parse(kLifecycleProbeYaml));
    LABSTOR_ASSIGN_OR_RETURN(
        probe_stack,
        runtime_.MountStack(probe_spec, ipc::Credentials{1, 0, 0}));
    (void)probe_stack;

    LABSTOR_RETURN_IF_ERROR(client_.Connect());
    LABSTOR_RETURN_IF_ERROR(aux_client_.Connect());
    return Status::Ok();
  }();
}

Result<std::unique_ptr<LifecycleRig>> LifecycleRig::Create() {
  std::unique_ptr<LifecycleRig> rig(new LifecycleRig());
  LABSTOR_RETURN_IF_ERROR(rig->init_status_);
  return rig;
}

Result<core::Stack*> LifecycleRig::fs_stack() {
  return runtime_.ns().FindByMount("fs::/dst");
}

Result<core::Stack*> LifecycleRig::probe_stack() {
  return runtime_.ns().FindByMount("ctl::/probe");
}

// ---------------------------------------------------------------------------
// Invariants

namespace {

// Sorted instance list: invariant failure messages must not depend on
// unordered_map layout (byte-identical traces across runs).
std::vector<std::string> SortedProbeInstances(const core::ModuleRegistry& reg) {
  std::vector<std::string> uuids = reg.InstancesOf("dst_probe");
  std::sort(uuids.begin(), uuids.end());
  return uuids;
}

}  // namespace

Status UpgradeAtomicityInvariant::Check(const LifecycleContext& ctx) const {
  const core::ModuleRegistry& reg = ctx.rig.runtime().registry();
  const std::vector<std::string> uuids = SortedProbeInstances(reg);
  if (uuids.size() != ctx.expect.probe_units.size()) {
    return Status::Internal("probe instance count changed: " +
                            std::to_string(uuids.size()));
  }
  for (const std::string& uuid : uuids) {
    LABSTOR_ASSIGN_OR_RETURN(mod, reg.Find(uuid));
    if (!ProbeMod::IsLive(mod)) {
      return Status::Internal("registry serves destroyed instance '" + uuid +
                              "'");
    }
    if (mod->version() != ctx.expect.probe_version) {
      return Status::Internal(
          "mixed versions: '" + uuid + "' runs v" +
          std::to_string(mod->version()) + ", expected v" +
          std::to_string(ctx.expect.probe_version));
    }
  }
  return Status::Ok();
}

Status ConfigPreservationInvariant::Check(const LifecycleContext& ctx) const {
  const core::ModuleRegistry& reg = ctx.rig.runtime().registry();
  for (const auto& [uuid, units] : ctx.expect.probe_units) {
    LABSTOR_ASSIGN_OR_RETURN(mod, reg.Find(uuid));
    const auto* probe = dynamic_cast<const ProbeMod*>(mod);
    if (probe == nullptr) {
      return Status::Internal("'" + uuid + "' is not a ProbeMod");
    }
    if (!probe->inited_with_params()) {
      return Status::Internal("'" + uuid +
                              "' was Init'ed without creation params");
    }
    if (probe->units() != units) {
      return Status::Internal("'" + uuid + "' lost its config: units=" +
                              std::to_string(probe->units()) + ", expected " +
                              std::to_string(units));
    }
    // The registry must still hold the params for the *next* upgrade.
    LABSTOR_ASSIGN_OR_RETURN(params, reg.ParamsOf(uuid));
    if (params == nullptr || params->GetUint("units", 0) != units) {
      return Status::Internal("registry dropped creation params for '" +
                              uuid + "'");
    }
  }
  return Status::Ok();
}

Status QuiesceCorrectnessInvariant::Check(const LifecycleContext& ctx) const {
  return Check(ctx.rig.runtime());
}

Status QuiesceCorrectnessInvariant::Check(core::Runtime& runtime) {
  ipc::IpcManager& ipc = runtime.ipc();
  // Checks run between events, never inside an upgrade: the barrier
  // must be fully released.
  if (ipc.quiescing()) {
    return Status::Internal("quiesce barrier still latched");
  }
  if (const size_t paused = ipc.PausedPrimaryCount(); paused != 0) {
    return Status::Internal(std::to_string(paused) +
                            " primary queue(s) left paused");
  }
  for (ipc::QueuePair* qp : ipc.PrimaryQueues()) {
    if (qp->update_pending()) {
      return Status::Internal("queue left UPDATE_PENDING");
    }
    if (qp->pauses() != qp->clears()) {
      return Status::Internal(
          "pause/clear imbalance: " + std::to_string(qp->pauses()) +
          " pauses vs " + std::to_string(qp->clears()) + " clears");
    }
  }
  return Status::Ok();
}

Status NamespaceEpochCoherenceInvariant::Check(
    const LifecycleContext& ctx) const {
  return Check(ctx.rig.runtime());
}

Status NamespaceEpochCoherenceInvariant::Check(core::Runtime& runtime) {
  const core::StackNamespace& ns = runtime.ns();
  const core::ModuleRegistry& reg = runtime.registry();
  std::vector<std::string> mounts = ns.Mounts();
  std::sort(mounts.begin(), mounts.end());
  for (const std::string& mount : mounts) {
    LABSTOR_ASSIGN_OR_RETURN(stack, ns.FindByMount(mount));
    LABSTOR_ASSIGN_OR_RETURN(by_id, ns.FindById(stack->id));
    if (by_id != stack) {
      return Status::Internal("id/mount lookup disagree for '" + mount + "'");
    }
    for (const core::Stack::Vertex& vertex : stack->vertices) {
      LABSTOR_ASSIGN_OR_RETURN(mod, reg.Find(vertex.uuid));
      if (mod != vertex.mod) {
        return Status::Internal("stale binding: vertex '" + vertex.uuid +
                                "' in '" + mount +
                                "' does not match the registry");
      }
    }
  }
  return Status::Ok();
}

const std::vector<const LifecycleInvariant*>& DefaultLifecycleInvariants() {
  static const UpgradeAtomicityInvariant atomicity;
  static const ConfigPreservationInvariant config;
  static const QuiesceCorrectnessInvariant quiesce;
  static const NamespaceEpochCoherenceInvariant coherence;
  static const std::vector<const LifecycleInvariant*> all = {
      &atomicity, &config, &quiesce, &coherence};
  return all;
}

// ---------------------------------------------------------------------------
// RunLifecycle

Result<LifecycleStats> RunLifecycle(
    LifecycleRig& rig, Schedule& sched,
    const std::vector<const LifecycleInvariant*>& invariants,
    const LifecycleOptions& opts) {
  LifecycleStats stats;
  LifecycleExpectation expect;
  core::Runtime& runtime = rig.runtime();
  core::ModuleRegistry& reg = runtime.registry();
  core::ModuleManager& mm = runtime.module_manager();

  // Seed the expectation from the freshly-mounted rig.
  {
    const std::vector<std::string> uuids = SortedProbeInstances(reg);
    if (uuids.empty()) {
      return Status::FailedPrecondition("rig has no dst_probe instances");
    }
    for (const std::string& uuid : uuids) {
      LABSTOR_ASSIGN_OR_RETURN(mod, reg.Find(uuid));
      const auto* probe = dynamic_cast<const ProbeMod*>(mod);
      if (probe == nullptr) {
        return Status::Internal("'" + uuid + "' is not a ProbeMod");
      }
      expect.probe_units[uuid] = probe->units();
      expect.probe_version = mod->version();
    }
  }
  uint64_t units_sum = 0;
  for (const auto& [uuid, units] : expect.probe_units) units_sum += units;

  FsModel fs_model;
  KvModel kv_model;
  FsWorkloadState fs_state;
  KvsWorkloadState kvs_state;

  auto check_all = [&](std::string_view event) -> Status {
    const LifecycleContext ctx{rig, stats, expect, sched.seed(), event};
    for (const LifecycleInvariant* inv : invariants) {
      ++stats.invariant_checks;
      const Status st = inv->Check(ctx);
      if (!st.ok()) {
        return Status(st.code(), "invariant '" + std::string(inv->name()) +
                                     "' violated after " + std::string(event) +
                                     ": " + st.message() + " (" +
                                     sched.ReplayHint() + ")");
      }
    }
    return Status::Ok();
  };

  // --- events -------------------------------------------------------------

  auto do_fs = [&]() -> Status {
    LABSTOR_ASSIGN_OR_RETURN(stack, rig.fs_stack());
    LABSTOR_RETURN_IF_ERROR(StepFsOp(rig.fs(), rig.client(), *stack, sched,
                                     /*journal=*/nullptr, fs_model, fs_state));
    ++stats.fs_ops;
    return Status::Ok();
  };

  auto do_kvs = [&]() -> Status {
    LABSTOR_RETURN_IF_ERROR(
        StepKvsOp(rig.kvs(), sched, /*journal=*/nullptr, kv_model, kvs_state));
    ++stats.kvs_ops;
    return Status::Ok();
  };

  // One dummy request through probe_a -> probe_b. result_u64 carries
  // the sum of both instances' configured units, so a lost config or
  // stale binding fails the very next probe.
  auto probe_once = [&]() -> Status {
    LABSTOR_ASSIGN_OR_RETURN(stack, rig.probe_stack());
    ipc::Request req;
    req.op = ipc::OpCode::kDummy;
    LABSTOR_RETURN_IF_ERROR(rig.client().Execute(req, *stack));
    LABSTOR_RETURN_IF_ERROR(req.ToStatus());
    if (req.result_u64 != units_sum) {
      return Status::Internal("probe sum " + std::to_string(req.result_u64) +
                              ", expected " + std::to_string(units_sum));
    }
    ++expect.probe_ops;
    ++stats.probe_ops;
    sched.Note("life op=probe");
    return Status::Ok();
  };

  auto do_upgrade = [&](core::UpgradeKind kind) -> Status {
    LABSTOR_ASSIGN_OR_RETURN(mod, reg.Find("probe_a"));
    const uint32_t cur = mod->version();
    if (cur >= ProbeMod::kMaxVersion) {
      return Status::FailedPrecondition(
          "dst_probe version headroom exhausted; raise "
          "ProbeMod::kMaxVersion");
    }
    const uint32_t target = cur + 1;
    const uint64_t applied_before = mm.upgrades_applied();
    const uint64_t epoch_before = runtime.ns().epoch();
    core::UpgradeRequest request;
    request.mod_name = "dst_probe";
    request.new_version = target;
    request.kind = kind;
    runtime.SubmitUpgrade(request);
    LABSTOR_RETURN_IF_ERROR(runtime.StepAdmin());
    if (mm.upgrades_applied() != applied_before + 1) {
      return Status::Internal("upgrade to v" + std::to_string(target) +
                              " did not apply");
    }
    if (runtime.ns().epoch() == epoch_before) {
      return Status::Internal("upgrade swapped without rebinding stacks");
    }
    expect.probe_version = target;
    const bool centralized = kind == core::UpgradeKind::kCentralized;
    if (centralized) {
      ++stats.upgrades_centralized;
    } else {
      ++stats.upgrades_decentralized;
    }
    sched.Note(std::string("life op=upgrade kind=") +
               (centralized ? "centralized" : "decentralized") + " v=" +
               std::to_string(target));
    // Immediately prove the swapped instances serve correctly.
    return probe_once();
  };

  // Same-version request: must complete as a counted no-op, with the
  // full quiesce protocol still balancing its pauses and clears.
  auto do_noop_upgrade = [&](core::UpgradeKind kind) -> Status {
    LABSTOR_ASSIGN_OR_RETURN(mod, reg.Find("probe_a"));
    const uint32_t cur = mod->version();
    const uint64_t applied_before = mm.upgrades_applied();
    const uint64_t noops_before = mm.noop_upgrades();
    core::UpgradeRequest request;
    request.mod_name = "dst_probe";
    request.new_version = cur;
    request.kind = kind;
    runtime.SubmitUpgrade(request);
    LABSTOR_RETURN_IF_ERROR(runtime.StepAdmin());
    if (mm.upgrades_applied() != applied_before) {
      return Status::Internal("same-version upgrade counted as applied");
    }
    if (mm.noop_upgrades() != noops_before + 1) {
      return Status::Internal("same-version upgrade not counted as no-op");
    }
    ++stats.upgrade_noops;
    sched.Note("life op=upgrade-noop v=" + std::to_string(cur));
    return probe_once();
  };

  auto do_rebalance = [&]() -> Status {
    runtime.RebalanceNow();
    ++stats.rebalances;
    sched.Note("life op=rebalance");
    return Status::Ok();
  };

  auto do_client_restart = [&]() -> Status {
    const bool aux = sched.Chance("life.client.aux", 0.5);
    core::Client& client = aux ? rig.aux_client() : rig.client();
    LABSTOR_RETURN_IF_ERROR(client.Reconnect());
    ++stats.client_restarts;
    sched.Note(std::string("life op=client-restart which=") +
               (aux ? "aux" : "primary"));
    return Status::Ok();
  };

  // Runtime crash + administrator restart, thread-free: liveness flips
  // and every mod runs StateRepair, exactly what the threaded recovery
  // path does, minus the threads.
  auto do_runtime_restart = [&]() -> Status {
    ipc::IpcManager& ipc = runtime.ipc();
    ipc.MarkOffline();
    ipc.MarkOnline();
    LABSTOR_RETURN_IF_ERROR(runtime.EnsureRepaired(ipc.epoch()));
    ++stats.runtime_restarts;
    sched.Note("life op=runtime-restart");
    return Status::Ok();
  };

  // Re-apply the fs stack's own spec: a diff-less Modify still replaces
  // the Stack object and bumps the namespace epoch — the stale-pointer
  // stressor for every cached Stack*.
  auto do_modify = [&]() -> Status {
    LABSTOR_RETURN_IF_ERROR(
        runtime.ModifyStack(rig.fs_spec(), ipc::Credentials{1, 0, 0}));
    ++stats.stack_modifies;
    sched.Note("life op=stack-modify mount=fs::/dst");
    return Status::Ok();
  };

  auto upgrade_kind = [&](std::string_view site) {
    return sched.Chance(site, 0.5) ? core::UpgradeKind::kCentralized
                                   : core::UpgradeKind::kDecentralized;
  };

  // --- main action stream -------------------------------------------------

  LABSTOR_RETURN_IF_ERROR(check_all("initial"));
  for (size_t step = 0; step < opts.num_steps; ++step) {
    ++stats.steps;
    const uint64_t roll = sched.Range("life.action", 0, 99);
    std::string_view event;
    Status st;
    if (roll < 32) {
      event = "fs-op";
      st = do_fs();
    } else if (roll < 58) {
      event = "kvs-op";
      st = do_kvs();
    } else if (roll < 70) {
      event = "probe";
      st = probe_once();
    } else if (roll < 82) {
      const core::UpgradeKind kind = upgrade_kind("life.upgrade.kind");
      event = kind == core::UpgradeKind::kCentralized
                  ? "upgrade-centralized"
                  : "upgrade-decentralized";
      st = do_upgrade(kind);
    } else if (roll < 86) {
      event = "upgrade-noop";
      st = do_noop_upgrade(upgrade_kind("life.noop.kind"));
    } else if (roll < 90) {
      event = "rebalance";
      st = do_rebalance();
    } else if (roll < 94) {
      event = "client-restart";
      st = do_client_restart();
    } else if (roll < 97) {
      event = "runtime-restart";
      st = do_runtime_restart();
    } else {
      event = "stack-modify";
      st = do_modify();
    }
    if (!st.ok()) {
      return Status(st.code(), std::string(event) + " failed at step " +
                                   std::to_string(step) + ": " + st.message() +
                                   " (" + sched.ReplayHint() + ")");
    }
    LABSTOR_RETURN_IF_ERROR(check_all(event));
  }

  // --- coverage floors ----------------------------------------------------
  // Any event class the random stream missed is forced now, sandwiched
  // between I/O so it still runs against live traffic.
  auto force = [&](const size_t& counter, size_t need, std::string_view event,
                   const std::function<Status()>& fire) -> Status {
    while (counter < need) {
      LABSTOR_RETURN_IF_ERROR(do_fs());
      LABSTOR_RETURN_IF_ERROR(check_all("fs-op"));
      Status st = fire();
      if (!st.ok()) {
        return Status(st.code(), "forced " + std::string(event) +
                                     " failed: " + st.message() + " (" +
                                     sched.ReplayHint() + ")");
      }
      LABSTOR_RETURN_IF_ERROR(check_all(event));
      LABSTOR_RETURN_IF_ERROR(do_kvs());
      LABSTOR_RETURN_IF_ERROR(check_all("kvs-op"));
    }
    return Status::Ok();
  };
  LABSTOR_RETURN_IF_ERROR(force(
      stats.upgrades_centralized, opts.min_centralized_upgrades,
      "upgrade-centralized",
      [&] { return do_upgrade(core::UpgradeKind::kCentralized); }));
  LABSTOR_RETURN_IF_ERROR(force(
      stats.upgrades_decentralized, opts.min_decentralized_upgrades,
      "upgrade-decentralized",
      [&] { return do_upgrade(core::UpgradeKind::kDecentralized); }));
  LABSTOR_RETURN_IF_ERROR(
      force(stats.rebalances, opts.min_rebalances, "rebalance", do_rebalance));
  LABSTOR_RETURN_IF_ERROR(force(stats.client_restarts,
                                opts.min_client_restarts, "client-restart",
                                do_client_restart));
  LABSTOR_RETURN_IF_ERROR(force(stats.runtime_restarts,
                                opts.min_runtime_restarts, "runtime-restart",
                                do_runtime_restart));

  // --- end-of-run audit ---------------------------------------------------

  LABSTOR_RETURN_IF_ERROR(check_all("end-of-run"));

  // Byte-exact LabFS read-back. Every op was synchronously acked with
  // no journal (windows [0, 0]), so the whole ledger is durable at
  // boundary 0.
  const auto fs_want = fs_model.StateAt(0);
  for (const auto& [path, file] : fs_want) {
    if (file.is_dir) continue;
    LABSTOR_ASSIGN_OR_RETURN(size, rig.fs().StatSize(path));
    if (size != file.content.size()) {
      return Status::Internal("fs size mismatch for " + path + ": " +
                              std::to_string(size) + " vs " +
                              std::to_string(file.content.size()) + " (" +
                              sched.ReplayHint() + ")");
    }
    if (file.content.empty()) continue;
    std::vector<uint8_t> got(file.content.size());
    LABSTOR_ASSIGN_OR_RETURN(fd, rig.fs().Open(path, 0));
    LABSTOR_ASSIGN_OR_RETURN(read, rig.fs().Read(fd, got, 0));
    LABSTOR_RETURN_IF_ERROR(rig.fs().Close(fd));
    if (read != got.size() || got != file.content) {
      return Status::Internal("fs content mismatch for " + path + " (" +
                              sched.ReplayHint() + ")");
    }
  }
  for (size_t i = 0; i < kWorkloadPoolSize; ++i) {
    const std::string path = WorkloadFsPath(i);
    if (fs_want.count(path) != 0) continue;
    if (rig.fs().Stat(path).ok()) {
      return Status::Internal("unlinked file still present: " + path + " (" +
                              sched.ReplayHint() + ")");
    }
  }

  // Byte-exact LabKVS read-back, including absence of deleted keys.
  const auto kvs_want = kv_model.StateAt(0);
  for (const auto& [key, value] : kvs_want) {
    std::vector<uint8_t> got(value.size());
    LABSTOR_ASSIGN_OR_RETURN(read, rig.kvs().Get(key, got));
    if (read != value.size() || got != value) {
      return Status::Internal("kvs value mismatch for " + key + " (" +
                              sched.ReplayHint() + ")");
    }
  }
  for (size_t i = 0; i < kWorkloadPoolSize; ++i) {
    const std::string key = WorkloadKvsKey(i);
    if (kvs_want.count(key) != 0) continue;
    LABSTOR_ASSIGN_OR_RETURN(exists, rig.kvs().Exists(key));
    if (exists) {
      return Status::Internal("deleted key still present: " + key + " (" +
                              sched.ReplayHint() + ")");
    }
  }

  // Probe op-count continuity: every request this run executed must
  // have survived every StateUpdate and StateRepair in between.
  for (const auto& [uuid, units] : expect.probe_units) {
    (void)units;
    LABSTOR_ASSIGN_OR_RETURN(mod, reg.Find(uuid));
    const auto* probe = dynamic_cast<const ProbeMod*>(mod);
    if (probe == nullptr) {
      return Status::Internal("'" + uuid + "' is not a ProbeMod");
    }
    if (probe->ops() != expect.probe_ops) {
      return Status::Internal(
          "op history lost across upgrades: '" + uuid + "' counts " +
          std::to_string(probe->ops()) + ", expected " +
          std::to_string(expect.probe_ops) + " (" + sched.ReplayHint() + ")");
    }
  }

  sched.Note("life done steps=" + std::to_string(stats.steps) +
             " fs=" + std::to_string(stats.fs_ops) +
             " kvs=" + std::to_string(stats.kvs_ops) +
             " probe=" + std::to_string(stats.probe_ops) +
             " upc=" + std::to_string(stats.upgrades_centralized) +
             " upd=" + std::to_string(stats.upgrades_decentralized) +
             " noop=" + std::to_string(stats.upgrade_noops) +
             " reb=" + std::to_string(stats.rebalances) +
             " crst=" + std::to_string(stats.client_restarts) +
             " rrst=" + std::to_string(stats.runtime_restarts) +
             " mod=" + std::to_string(stats.stack_modifies));
  return stats;
}

}  // namespace labstor::dst
