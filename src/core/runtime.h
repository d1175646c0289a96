// The LabStor Runtime (paper §III-C): warehouse and execution engine
// for LabStacks.
//
// Real-mode composition:
//   * worker threads poll request queues assigned by the Work
//     Orchestrator and execute stack DAGs;
//   * an admin thread periodically processes module upgrades
//     (quiescing via UPDATE_PENDING/ACKED) and rebalances queues;
//   * clients connect through the IPC Manager and either submit into
//     shared-memory queues (async stacks) or execute DAGs inline
//     (sync stacks).
//
// Hot-path design (DESIGN.md §7):
//   * queue assignments are published RCU-style — the rebalancer
//     builds an immutable AssignmentTable and swaps it into an atomic
//     shared_ptr; workers poll a generation counter and reload only
//     when it changes (no mutex, no copy per pass);
//   * workers drain queues in batches (PollSubmissionBatch),
//     amortizing ring CAS traffic, telemetry clock reads, and EWMA
//     updates; completion is signalled in the request slot itself;
//   * one request lifecycle (ExecuteWith) serves the worker loop, the
//     inline sync path and the DES (SimRuntime hosts a never-Started
//     Runtime and adds only the virtual clock);
//   * execution is allocation-free steady-state: per-thread scratch
//     reuses the ExecTrace/StackExec and caches stack_id → Stack*
//     lookups validated against the namespace epoch;
//   * idle workers follow a spin → yield → exponential-sleep backoff
//     that resets to spinning the moment work appears.
//
// The Runtime can be crash-tested: CrashForTesting() drops it offline
// with state intact; Restart() brings a fresh epoch online, after
// which client libraries trigger StateRepair on every LabMod.
#pragma once

#include <atomic>
#include <unordered_map>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/module_manager.h"
#include "core/module_registry.h"
#include "core/orchestrator.h"
#include "core/stack.h"
#include "core/stack_exec.h"
#include "ipc/ipc_manager.h"
#include "simdev/registry.h"

namespace labstor::core {

class Runtime {
 public:
  struct Options {
    size_t max_workers = 4;
    std::unique_ptr<WorkOrchestrator> orchestrator;  // default: dynamic
    std::chrono::milliseconds admin_poll{5};
    ipc::IpcManager::Options ipc;
    StackNamespace::Options ns;
    // Optional metrics/tracing sink (not owned; must outlive the
    // Runtime). nullptr keeps every instrumentation site inert.
    telemetry::Telemetry* telemetry = nullptr;
  };

  Runtime(Options options, simdev::DeviceRegistry& devices);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  Status Start();
  Status Stop();

  // Abrupt failure injection: runtime goes offline, worker/admin
  // threads die, but registry/namespace state survives (it lives in
  // "shared memory").
  void CrashForTesting();
  // Administrator restart: new epoch, threads resume draining the
  // same queues.
  Status Restart();

  // --- control plane (the mount.stack / modify.stack / modify.mods
  // utilities call these) ---
  Result<Stack*> MountStack(const StackSpec& spec,
                            const ipc::Credentials& actor);
  Status ModifyStack(const StackSpec& updated, const ipc::Credentials& actor);
  Status UnmountStack(const std::string& mount, const ipc::Credentials& actor);
  void SubmitUpgrade(UpgradeRequest request) {
    module_manager_.SubmitUpgrade(std::move(request));
  }

  // Executes one request inline in the caller (the sync-mode client
  // path): the lifecycle below, behind the quiesce gate, with the
  // thread's own ledger. Steady-state calls perform no heap allocation.
  Status Execute(ipc::Request& req);

  // The request lifecycle, one for every executor and both clocks
  // (DESIGN.md §4 decision 2): the inline quiesce gate, StackExec
  // dispatch into the caller's `trace`, Request::Complete, and the
  // telemetry tap on ModContext::telemetry. `queued` executions (the
  // worker loop) skip the gate: their queue's UPDATE_PENDING mark
  // holds them back instead. A null `stack` resolves req.stack_id
  // through the thread's epoch-validated cache, after the gate;
  // SimRuntime hands over the Stack it holds, because one DES thread
  // drives several runtimes and would thrash that cache.
  Status ExecuteWith(ipc::Request& req, ExecTrace& trace,
                     Stack* stack = nullptr, bool queued = false);

  // --- deterministic admin stepping (DST lifecycle scheduler) ---
  // One admin pass, inline in the caller: process queued upgrades
  // (with the real quiesce barrier) and rebalance. On a never-Started
  // runtime this is single-threaded and fully deterministic — the
  // quiesce converges because no queue is worker-assigned, so
  // WaitQuiesce acknowledges marked queues itself. The threaded
  // AdminLoop does exactly this on a timer.
  Status StepAdmin();
  // One rebalance pass, inline (the admin timer's other half).
  void RebalanceNow() { Rebalance(); }

  // Crash recovery: run StateRepair across all mods once per epoch.
  Status EnsureRepaired(uint64_t epoch);

  // execve support (paper §III-F): the client library parks its open
  // fd state in the Runtime before the address space is replaced and
  // reclaims it afterwards.
  Status SaveFdState(ipc::ProcessId pid, std::string blob);
  Result<std::string> TakeFdState(ipc::ProcessId pid);

  // --- accessors ---
  ipc::IpcManager& ipc() { return ipc_; }
  ModuleRegistry& registry() { return registry_; }
  StackNamespace& ns() { return namespace_; }
  ModuleManager& module_manager() { return module_manager_; }
  simdev::DeviceRegistry& devices() { return devices_; }
  ModContext& mod_context() { return mod_context_; }
  telemetry::Telemetry* telemetry() const { return options_.telemetry; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  size_t active_workers() const;
  // Workers that exited abnormally (injected death, escaped exception
  // path) since the last Start/Restart. Their queues are redistributed
  // to the survivors.
  size_t dead_workers() const;
  bool worker_dead(size_t worker_id) const {
    return worker_dead_ != nullptr && worker_id < options_.max_workers &&
           worker_dead_[worker_id].load(std::memory_order_acquire);
  }
  // Inline (sync-path) executions that arrived during an upgrade
  // quiesce and were held at the gate until it lifted. Strictly
  // monotonic evidence — the mirror of QueuePair::refused_while_paused
  // for the path that never touches a queue.
  uint64_t inline_execs_paused() const {
    return inline_paused_.load(std::memory_order_relaxed);
  }
  // Current assignment-table generation (bumped by every Rebalance).
  uint64_t assignment_generation() const {
    return assign_generation_.load(std::memory_order_acquire);
  }
  // Submission doorbell: clients ring after every enqueue. Workers
  // poll, so a ring only ticks the counter.
  void RingDoorbell() {
    doorbell_rings_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t doorbell_rings() const {
    return doorbell_rings_.load(std::memory_order_relaxed);
  }
  // Idle passes that reached a sleep rung — the idle-poll work the
  // spin/yield rungs did not absorb.
  uint64_t idle_sleeps() const {
    return idle_sleeps_.load(std::memory_order_relaxed);
  }
  // Copy of worker_id's currently-published queue list (test/debug
  // visibility into the lock-free table).
  std::vector<ipc::QueuePair*> AssignedQueues(size_t worker_id) const;

 private:
  // Immutable queue→worker map published by Rebalance. Workers hold a
  // shared_ptr, so a table stays alive while any worker still drains
  // from it even after a newer one is published (classic RCU shape).
  struct AssignmentTable {
    uint64_t generation = 0;
    std::vector<std::vector<ipc::QueuePair*>> per_worker;
  };

  // Hot-path metric handles, resolved once at construction so worker
  // loops never hit the registry map (see MetricsRegistry docs).
  struct WiredMetrics {
    telemetry::Counter* worker_requests = nullptr;
    telemetry::LatencyHistogram* exec_ns = nullptr;
    telemetry::LatencyHistogram* queue_wait_ns = nullptr;
    telemetry::LatencyHistogram* queue_depth = nullptr;
    telemetry::Counter* rebalances = nullptr;
    telemetry::Gauge* active_workers = nullptr;
  };

  // One upgrade-processing pass with the quiesce gate raised for its
  // duration (shared by StepAdmin and AdminLoop).
  Status RunUpgradePass();
  void WorkerLoop(size_t worker_id);
  void AdminLoop();
  void Rebalance();
  void WaitQuiesce();
  void PublishAssignments(std::shared_ptr<AssignmentTable> table);
  std::shared_ptr<const AssignmentTable> LoadAssignments() const {
    std::lock_guard<std::mutex> lock(assign_mu_);
    return assign_table_;
  }
  void StartThreads();
  void StopThreads();

  Options options_;
  simdev::DeviceRegistry& devices_;
  ipc::IpcManager ipc_;
  ModuleRegistry registry_;
  StackNamespace namespace_;
  ModuleManager module_manager_;
  ModContext mod_context_;
  WiredMetrics wired_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> in_flight_{0};
  // Raised while an upgrade pass is quiescing/applying. Worker-path
  // requests are held back by the UPDATE_PENDING queue marks; inline
  // sync executions never cross a queue, so without this gate they
  // could slip between WaitQuiesce observing in_flight_ == 0 and the
  // registry swap — running a stale Stack binding mid-replacement.
  // Execute() joins in_flight_ and re-checks the gate, closing the
  // namespace-epoch validation-to-execution window.
  std::atomic<bool> quiescing_{false};
  std::atomic<uint64_t> inline_paused_{0};
  uint64_t repaired_epoch_ = 0;
  std::mutex repair_mu_;
  std::mutex fd_depot_mu_;
  std::unordered_map<ipc::ProcessId, std::string> fd_depot_;

  std::vector<std::thread> workers_;
  std::thread admin_;
  // worker_dead_[i] is set when WorkerLoop i returns while the runtime
  // is still running; Rebalance() skips dead workers so their queues
  // are not stranded. Reset on Start/Restart.
  std::unique_ptr<std::atomic<bool>[]> worker_dead_;

  // Publication protocol: the generation counter is the lock-free
  // fast-path signal — workers poll it (acquire) once per pass and
  // only when it changed do they take assign_mu_ to refetch the
  // shared_ptr (a reader can observe a table newer than the generation
  // that woke it; it adopts that table's own generation, so nothing is
  // lost). Publishers set the table and then bump the generation
  // (release) under the same lock. So the mutex is touched only on
  // rebalance — never in the steady-state loop. (The shared_ptr itself
  // is mutex-guarded rather than std::atomic<std::shared_ptr> because
  // libstdc++-12's _Sp_atomic lock-bit protocol is opaque to TSan.)
  mutable std::mutex assign_mu_;
  std::shared_ptr<const AssignmentTable> assign_table_;
  std::atomic<uint64_t> assign_generation_{0};

  std::atomic<uint64_t> doorbell_rings_{0};
  std::atomic<uint64_t> idle_sleeps_{0};
};

}  // namespace labstor::core
