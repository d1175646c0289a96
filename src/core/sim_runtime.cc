#include "core/sim_runtime.h"

#include <algorithm>

namespace labstor::core {
namespace {

Runtime::Options HostedOptions(size_t num_workers) {
  Runtime::Options options;
  options.max_workers = num_workers;
  return options;
}

}  // namespace

SimRuntime::SimRuntime(sim::Environment& env, simdev::DeviceRegistry& devices,
                       size_t num_workers, const sim::SoftwareCosts& costs)
    : env_(env), costs_(costs), rt_(HostedOptions(num_workers), devices) {
  rt_.mod_context().costs = &costs_;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<sim::Resource>(env_, 1));
  }
  busy_ns_.assign(num_workers, 0);
  worker_requests_.assign(num_workers, 0);
  worker_irq_waits_.assign(num_workers, 0);
  worker_active_.assign(num_workers, true);
}

Result<Stack*> SimRuntime::Mount(const StackSpec& spec) {
  return rt_.MountStack(spec, ipc::kRuntimeCreds);
}

Result<Stack*> SimRuntime::MountYaml(const std::string& yaml) {
  LABSTOR_ASSIGN_OR_RETURN(spec, StackSpec::Parse(yaml));
  return Mount(spec);
}

void SimRuntime::AttachTelemetry(telemetry::Telemetry* tel) {
  // The sink rides on the hosted Runtime's ModContext only: its
  // Options::telemetry stays null, so the wall-clock rebalance spans
  // MountStack records never reach a virtual-time trace.
  tel_ = tel;
  rt_.mod_context().telemetry = tel;
  wired_ = WiredMetrics{};
  if (tel == nullptr) return;
  tel->set_virtual_time(true);
  telemetry::MetricsRegistry& m = tel->metrics();
  wired_.rebalances = m.GetCounter("orchestrator.rebalance.count");
  wired_.active_workers = m.GetGauge("orchestrator.workers.active");
  wired_.polled_completions = m.GetCounter("device.completion.polled");
  wired_.interrupt_completions = m.GetCounter("device.completion.interrupts");
  wired_.wakeup_ns = m.GetHistogram("device.wakeup.latency_ns");
  wired_.worker_requests = m.GetCounter("runtime.worker.requests");
  wired_.latency_ns = m.GetHistogram("runtime.request.latency_ns");
  wired_.queue_wait_ns = m.GetHistogram("ipc.queue.wait_ns");
  wired_.queue_depth = m.GetHistogram("ipc.queue.depth");
}

void SimRuntime::RegisterQueue(uint32_t qid, sim::Time est_processing) {
  QueueState state;
  state.est_processing = est_processing;
  state.worker = qid % workers_.size();  // provisional round-robin
  queues_[qid] = state;
}

void SimRuntime::ApplyAssignment(const Assignment& assignment) {
  worker_active_.assign(workers_.size(), false);
  for (size_t w = 0; w < assignment.worker_queues.size() && w < workers_.size();
       ++w) {
    for (const uint32_t qid : assignment.worker_queues[w]) {
      const auto it = queues_.find(qid);
      if (it != queues_.end()) {
        it->second.worker = w;
        worker_active_[w] = true;
      }
    }
  }
  if (Traced()) {
    const size_t active = ActiveWorkers();
    wired_.rebalances->Inc();
    wired_.active_workers->Set(static_cast<int64_t>(active));
    // The decision itself is instantaneous in virtual time (dur 0);
    // the span marks *when* the load was repartitioned.
    tel_->trace().Span(0, telemetry::kCatOrchestrator, "rebalance",
                       env_.now(), 0, "workers", active);
  }
}

std::vector<QueueLoad> SimRuntime::SnapshotLoads() const {
  std::vector<QueueLoad> loads;
  loads.reserve(queues_.size());
  for (const auto& [qid, state] : queues_) {
    // Load signal = instantaneous backlog plus the arrivals observed
    // over the last epoch (sustained-rate information the capacity
    // floor needs).
    loads.push_back(QueueLoad{qid, state.est_processing,
                              state.backlog + state.arrivals_in_epoch});
  }
  // Deterministic order (unordered_map iteration varies).
  std::sort(loads.begin(), loads.end(),
            [](const QueueLoad& a, const QueueLoad& b) { return a.qid < b.qid; });
  return loads;
}

sim::Task<void> SimRuntime::RebalanceLoop(WorkOrchestrator* policy,
                                          sim::Time period) {
  while (true) {
    co_await env_.Delay(period);
    // Stop when the simulation is otherwise idle (this process would
    // keep the event queue alive forever).
    if (env_.pending_events() == 0) co_return;
    ApplyAssignment(policy->Rebalance(SnapshotLoads(), workers_.size()));
    for (auto& [qid, state] : queues_) state.arrivals_in_epoch = 0;
  }
}

void SimRuntime::StartRebalancer(WorkOrchestrator* policy, sim::Time period) {
  ApplyAssignment(policy->Rebalance(SnapshotLoads(), workers_.size()));
  env_.Spawn(RebalanceLoop(policy, period));
}

sim::Task<void> SimRuntime::TimedDevOp(ExecTrace::DevOp op, uint32_t worker) {
  const sim::Time t0 = env_.now();
  co_await op.device->OccupyTimed(op.op, op.channel, op.offset, op.length);
  // Completion delivery (DESIGN.md §13): a polled CQE is observed the
  // moment it lands (the observation cost is the spin the waiter is
  // already burning); an interrupt-mode device charges the controller's
  // delivery latency plus the software IRQ path before the waiter sees
  // the CQE — in exchange the waiter spun zero cycles meanwhile (see
  // AvgBusyCores). Functional bytes moved at dispatch time, so the
  // recovery-visible state is identical across modes.
  sim::Time delivery = 0;
  if (op.device->completion_mode() == simdev::CompletionMode::kInterrupt) {
    delivery = costs_.irq_completion + op.device->params().interrupt_latency;
    co_await env_.Delay(delivery);
    ++interrupt_completions_;
  } else {
    ++polled_completions_;
  }
  if (Traced()) {
    tel_->trace().Span(worker, telemetry::kCatDevice, op.Summary(), t0,
                       env_.now() - t0, "channel", op.channel);
    if (delivery != 0) {
      wired_.interrupt_completions->Inc(worker);
      wired_.wakeup_ns->Record(delivery, worker);
    } else {
      wired_.polled_completions->Inc(worker);
    }
  }
}

ExecTrace* SimRuntime::AcquireTrace() {
  if (!free_traces_.empty()) {
    ExecTrace* trace = free_traces_.back();
    free_traces_.pop_back();
    return trace;
  }
  trace_pool_.push_back(std::make_unique<ExecTrace>());
  trace_pool_.back()->Reserve(/*sw_entries=*/32, /*dev_ops=*/16);
  return trace_pool_.back().get();
}

void SimRuntime::ReleaseTrace(ExecTrace* trace) {
  trace->Clear();
  free_traces_.push_back(trace);
}

sim::Task<Status> SimRuntime::Execute(uint32_t qid, Stack& stack,
                                      ipc::Request& req, ExecTrace* ledger) {
  // Functional execution is immediate (the Runtime's own lifecycle);
  // the trace carries the time.
  const TraceLease lease(this, AcquireTrace());
  ExecTrace& trace = *lease.trace;
  // Pointer, not iterator: QueueState nodes are stable across rehash,
  // iterators are not, and this value lives across suspensions.
  const auto qit = queues_.find(qid);
  QueueState* qstate = qit != queues_.end() ? &qit->second : nullptr;
  req.worker = static_cast<uint32_t>(qstate != nullptr ? qstate->worker
                                                       : qid % workers_.size());
  const Status st = rt_.ExecuteWith(req, trace, &stack);
  if (ledger != nullptr) *ledger = trace;
  const sim::Time submitted = env_.now();
  // Replays the ledger as per-mod "mod" spans in virtual time: spans
  // are stamped arithmetically across the one Delay covering the
  // worker visit, so tracing never perturbs the event schedule.
  const auto emit_mod_spans = [this](const ExecTrace& t, sim::Time at,
                                     uint32_t wid) {
    for (const ExecTrace::SwEntry& e : t.software()) {
      tel_->trace().Span(wid, telemetry::kCatMod, std::string(e.component),
                         at, e.cost);
      at += e.cost;
    }
  };

  if (stack.exec_mode() == ExecMode::kSync) {
    // Decentralized: all software runs in the client; no IPC.
    co_await env_.Delay(Perturb("submit"));
    const sim::Time sw_start = env_.now();
    co_await env_.Delay(trace.TotalSoftware());
    if (Traced()) emit_mod_spans(trace, sw_start, req.worker);
    for (const ExecTrace::DevOp& op : trace.device_ops()) {
      if (op.async) {
        env_.Spawn(TimedDevOp(op, req.worker));
      } else {
        co_await TimedDevOp(op, req.worker);
      }
    }
    ++requests_done_;
    if (Traced()) {
      wired_.worker_requests->Inc(req.worker);
      wired_.latency_ns->Record(env_.now() - submitted, req.worker);
    }
    co_return st;
  }

  // Async: shared-memory submission to the assigned worker.
  co_await env_.Delay(costs_.shm_submit + Perturb("submit"));
  if (qstate == nullptr) qstate = &queues_.try_emplace(qid).first->second;
  QueueState& queue = *qstate;
  ++queue.backlog;
  ++queue.arrivals_in_epoch;
  sim::Resource& worker = *workers_[queue.worker % workers_.size()];
  const size_t wid = queue.worker % workers_.size();
  const sim::Time enqueued = env_.now();
  co_await worker.Acquire();
  --queue.backlog;
  if (Traced()) {
    tel_->trace().Span(static_cast<uint32_t>(wid), telemetry::kCatQueue,
                       "queue.wait", enqueued, env_.now() - enqueued, "qid",
                       qid);
    wired_.queue_wait_ns->Record(env_.now() - enqueued, wid);
    wired_.queue_depth->Record(queue.backlog, wid);
  }
  sim::Time start = env_.now();
  co_await env_.Delay(costs_.worker_poll + Perturb("worker_poll") +
                      trace.TotalSoftware());
  if (Traced()) {
    emit_mod_spans(trace, start + costs_.worker_poll,
                   static_cast<uint32_t>(wid));
  }
  busy_ns_[wid] += env_.now() - start;
  ++worker_requests_[wid];
  worker.Release();
  // Device ops complete asynchronously from the worker's perspective;
  // the client polls the CQ for the data ops, while async (log/group-
  // commit) writes never gate completion.
  bool waited_on_device = false;
  bool irq_wait = false;
  for (const ExecTrace::DevOp& op : trace.device_ops()) {
    if (op.async) {
      env_.Spawn(TimedDevOp(op, static_cast<uint32_t>(wid)));
    } else {
      if (op.device->completion_mode() ==
          simdev::CompletionMode::kInterrupt) {
        irq_wait = true;
      }
      co_await TimedDevOp(op, static_cast<uint32_t>(wid));
      waited_on_device = true;
    }
  }
  if (waited_on_device) {
    // The worker reaps the device CQE and posts the client's
    // completion (paper: workers poll intermediate completions and
    // continue the DAG's message-passing). Pure metadata requests
    // complete within the first worker visit and skip this hop.
    co_await worker.Acquire();
    start = env_.now();
    co_await env_.Delay(costs_.worker_poll + costs_.completion_post +
                        Perturb("completion"));
    busy_ns_[wid] += env_.now() - start;
    ++worker_requests_[wid];
    // An interrupt-delivered completion woke the worker — it slept
    // through the device time instead of burning its spin budget.
    if (irq_wait) ++worker_irq_waits_[wid];
    worker.Release();
  }
  co_await env_.Delay(costs_.shm_complete + Perturb("shm_complete"));
  ++requests_done_;
  if (Traced()) {
    wired_.worker_requests->Inc(wid);
    wired_.latency_ns->Record(env_.now() - submitted, wid);
  }
  co_return st;
}

double SimRuntime::AvgBusyCores(sim::Time elapsed) const {
  if (elapsed == 0) return 0.0;
  // A worker's core time = request processing + the busy-polling it
  // burns between requests (capped per request by the idle-backoff
  // threshold, and by the wall clock). This is the CPU the dynamic
  // policy saves by decommissioning workers.
  double total = 0;
  for (size_t w = 0; w < workers_.size(); ++w) {
    // Interrupt-delivered completions replace a spin gap with a sleep:
    // the worker visits still happened (worker_requests_), but the
    // idle-poll budget for those gaps was never burned.
    const uint64_t spinning_gaps =
        worker_requests_[w] > worker_irq_waits_[w]
            ? worker_requests_[w] - worker_irq_waits_[w]
            : 0;
    const double spin = static_cast<double>(spinning_gaps) *
                        static_cast<double>(costs_.worker_spin_cap);
    const double core_ns =
        std::min(static_cast<double>(elapsed),
                 static_cast<double>(busy_ns_[w]) + spin);
    total += core_ns;
  }
  return total / static_cast<double>(elapsed);
}

size_t SimRuntime::ActiveWorkers() const {
  size_t active = 0;
  for (const bool on : worker_active_) active += on ? 1 : 0;
  return active;
}

}  // namespace labstor::core
