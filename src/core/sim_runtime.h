// SimRuntime: the Runtime under the DES clock.
//
// Benches cannot use wall-clock worker threads to reproduce the
// paper's 24-core results on this host, so SimRuntime wraps a real
// core::Runtime that is never Started and adds only the virtual clock
// (DESIGN.md §4 decision 2: the DES replaces *when*, not *what*):
//   * stacks mount through the Runtime's StackNamespace/ModuleRegistry,
//     and module upgrades run its ModuleManager (StepAdmin);
//   * requests run through Runtime::ExecuteWith, the one lifecycle the
//     worker loop and inline sync path share (functional effects are
//     immediate);
//   * the recorded ExecTrace is then replayed as virtual time: IPC
//     hops, worker occupancy (FIFO per simulated worker, as assigned
//     by a real WorkOrchestrator policy), and contended device ops.
//
// Worker model: a request occupies its worker for its *software* time
// only; device ops are forwarded asynchronously (paper §III-E's
// "asynchronous message passing and polling" pattern). Computational
// mods (compression) therefore block their worker — exactly the
// head-of-line effect Fig. 5(b) measures.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/orchestrator.h"
#include "core/runtime.h"
#include "sim/cost_model.h"
#include "sim/environment.h"
#include "simdev/registry.h"

namespace labstor::core {

class SimRuntime {
 public:
  SimRuntime(sim::Environment& env, simdev::DeviceRegistry& devices,
             size_t num_workers,
             const sim::SoftwareCosts& costs = sim::DefaultCosts());

  Result<Stack*> Mount(const StackSpec& spec);
  Result<Stack*> MountYaml(const std::string& yaml);

  // Declare a client queue. `est_processing` feeds the orchestrator's
  // LQ/CQ classification (the paper reads it from EstProcessingTime).
  void RegisterQueue(uint32_t qid, sim::Time est_processing);

  // Execute one request from queue `qid` through `stack`, honoring its
  // exec mode. Returns when the completion would reach the client.
  // A non-null `ledger` receives a copy of the request's ExecTrace.
  sim::Task<Status> Execute(uint32_t qid, Stack& stack, ipc::Request& req,
                            ExecTrace* ledger = nullptr);

  // --- orchestration ---
  void ApplyAssignment(const Assignment& assignment);
  // Spawn a periodic rebalance process using `policy` (caller keeps it
  // alive). Runs until the environment drains.
  void StartRebalancer(WorkOrchestrator* policy, sim::Time period);

  // --- deterministic simulation (src/dst) ---
  // When set, every scheduling decision in Execute() asks the hook for
  // an extra virtual-time delay keyed by the decision site ("submit",
  // "worker_poll", "completion", "shm_complete"). A seeded
  // dst::Schedule supplies the hook, so one 64-bit seed reproducibly
  // perturbs the order in which submissions, worker visits, and device
  // completions interleave under the DES — without touching the cost
  // model when no hook is installed.
  using ScheduleHook = std::function<sim::Time(const char* site)>;
  void SetScheduleHook(ScheduleHook hook) { schedule_hook_ = std::move(hook); }

  // --- telemetry ---
  // Attach a metrics/trace sink (not owned; must outlive the
  // SimRuntime). Switches it to virtual time: every span below is
  // stamped with sim::Environment::now(), so the exported Chrome
  // trace renders the DES timeline exactly as a real-mode one.
  void AttachTelemetry(telemetry::Telemetry* tel);
  telemetry::Telemetry* telemetry() const { return tel_; }

  // --- stats ---
  // Average number of busy cores over [0, elapsed].
  double AvgBusyCores(sim::Time elapsed) const;
  size_t ActiveWorkers() const;
  uint64_t requests_done() const { return requests_done_; }
  // Completion-delivery split across all device waits this run
  // (polled CQE observations vs interrupt-delivered wakeups).
  uint64_t polled_completions() const { return polled_completions_; }
  uint64_t interrupt_completions() const { return interrupt_completions_; }

  // The hosted Runtime (control plane: SubmitUpgrade, StepAdmin).
  Runtime& runtime() { return rt_; }
  ModuleRegistry& registry() { return rt_.registry(); }
  StackNamespace& ns() { return rt_.ns(); }
  const sim::SoftwareCosts& costs() const { return costs_; }

 private:
  struct QueueState {
    sim::Time est_processing = 3 * sim::kUs;
    uint64_t backlog = 0;           // submitted, not yet picked up
    uint64_t arrivals_in_epoch = 0; // since the last rebalance
    size_t worker = 0;
  };

  sim::Task<void> RebalanceLoop(WorkOrchestrator* policy, sim::Time period);
  std::vector<QueueLoad> SnapshotLoads() const;

  // Virtual-time metric handles, resolved once in AttachTelemetry.
  struct WiredMetrics {
    telemetry::Counter* rebalances = nullptr;
    telemetry::Gauge* active_workers = nullptr;
    telemetry::Counter* polled_completions = nullptr;
    telemetry::Counter* interrupt_completions = nullptr;
    telemetry::LatencyHistogram* wakeup_ns = nullptr;
    telemetry::Counter* worker_requests = nullptr;
    telemetry::LatencyHistogram* latency_ns = nullptr;
    telemetry::LatencyHistogram* queue_wait_ns = nullptr;
    telemetry::LatencyHistogram* queue_depth = nullptr;
  };

  // Trace pool: an Execute coroutine's ExecTrace must outlive its
  // suspensions (device replay reads it after co_awaits), so it cannot
  // be the thread's shared ledger — but allocating a fresh ledger per
  // request made the 100+-core sweep allocation-bound.
  // Acquire pops a recycled ledger (or mints one); the lease returns
  // it when the coroutine frame dies.
  ExecTrace* AcquireTrace();
  void ReleaseTrace(ExecTrace* trace);
  struct TraceLease {
    SimRuntime* rt = nullptr;
    ExecTrace* trace = nullptr;
    TraceLease(SimRuntime* r, ExecTrace* t) : rt(r), trace(t) {}
    TraceLease(const TraceLease&) = delete;
    TraceLease& operator=(const TraceLease&) = delete;
    ~TraceLease() {
      if (trace != nullptr) rt->ReleaseTrace(trace);
    }
  };

  // Occupy the device for `op`, emitting a "device" span when traced.
  sim::Task<void> TimedDevOp(ExecTrace::DevOp op, uint32_t worker);
  bool Traced() const { return tel_ != nullptr && tel_->enabled(); }

  sim::Environment& env_;
  const sim::SoftwareCosts& costs_;
  Runtime rt_;
  WiredMetrics wired_;

  std::vector<std::unique_ptr<sim::Resource>> workers_;
  std::vector<sim::Time> busy_ns_;
  std::vector<uint64_t> worker_requests_;
  // Reap visits where the worker slept on an interrupt-delivered
  // completion instead of busy-polling the CQ — each one removes a
  // worker_spin_cap of idle-poll work from AvgBusyCores.
  std::vector<uint64_t> worker_irq_waits_;
  std::vector<bool> worker_active_;
  std::unordered_map<uint32_t, QueueState> queues_;
  uint64_t polled_completions_ = 0;
  uint64_t interrupt_completions_ = 0;
  // Recycled ExecTrace ledgers (see AcquireTrace).
  std::vector<std::unique_ptr<ExecTrace>> trace_pool_;
  std::vector<ExecTrace*> free_traces_;
  uint64_t requests_done_ = 0;
  telemetry::Telemetry* tel_ = nullptr;
  ScheduleHook schedule_hook_;
  sim::Time Perturb(const char* site) const {
    return schedule_hook_ ? schedule_hook_(site) : 0;
  }
};

}  // namespace labstor::core
