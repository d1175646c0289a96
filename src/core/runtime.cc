#include "core/runtime.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "faultinject/faultinject.h"

namespace labstor::core {

namespace {

// One spin-loop iteration's pause hint (keeps the core from
// speculating down the poll loop and frees pipeline slots for the
// sibling hyperthread).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Max requests a worker pulls from one queue per visit. Bounds both
// the amortization win and the fairness cost: another queue waits at
// most kWorkerBatch executions.
constexpr size_t kWorkerBatch = 16;

// Spin → yield → exponential sleep, reset on work (DESIGN.md §7): spin
// kSpinPolls empty passes (cpu-relax), yield kYieldPolls passes, then
// sleep with exponential backoff from kIdleSleepMin up to the
// kIdleSleepMax ceiling. Spinning keeps dequeue latency in the
// sub-µs range for ping-pong traffic; the sleep ceiling bounds idle
// CPU burn at the old fixed-sleep level. SleepAtCeiling() is the
// bulk-traffic escape hatch: a worker that just drained a full batch
// knows producers are streaming, so the kindest idle move is a long
// sleep that gives them the core to refill (spinning here would
// preempt the producer on a single-CPU host and serialize the
// pipeline into one context switch per request).
class IdleBackoff {
 public:
  static constexpr uint32_t kSpinPolls = 64;
  static constexpr uint32_t kYieldPolls = 16;
  static constexpr std::chrono::nanoseconds kIdleSleepMin =
      std::chrono::microseconds(4);
  static constexpr std::chrono::nanoseconds kIdleSleepMax =
      std::chrono::microseconds(100);

  void Reset() {
    idle_passes_ = 0;
    cur_sleep_ = kIdleSleepMin;
  }

  // Advance the ladder one idle pass. Spin/yield rungs pause inline
  // and return zero; sleep rungs return the duration and leave the
  // sleep (and its count) to the caller.
  std::chrono::nanoseconds Idle() {
    if (idle_passes_ < kSpinPolls) {
      ++idle_passes_;
      CpuRelax();
      return std::chrono::nanoseconds::zero();
    }
    if (idle_passes_ < kSpinPolls + kYieldPolls) {
      ++idle_passes_;
      std::this_thread::yield();
      return std::chrono::nanoseconds::zero();
    }
    const std::chrono::nanoseconds d = cur_sleep_;
    cur_sleep_ = std::min(cur_sleep_ * 2, kIdleSleepMax);
    return d;
  }

  std::chrono::nanoseconds SleepAtCeiling() {
    idle_passes_ = kSpinPolls + kYieldPolls;
    cur_sleep_ = kIdleSleepMax;
    return kIdleSleepMax;
  }

 private:
  uint32_t idle_passes_ = 0;
  std::chrono::nanoseconds cur_sleep_ = kIdleSleepMin;
};

// Per-thread dispatch state, reused by every request the thread runs
// so the steady state allocates nothing: the rebindable StackExec, the
// ledger for callers that keep none (worker loop, inline path), and a
// stack_id → Stack* cache validated against the namespace epoch. No
// dispatch nests inside another on one thread.
struct ThreadScratch {
  ThreadScratch() {
    trace.Reserve(/*sw_entries=*/32, /*dev_ops=*/16);
    exec.ReserveCallStack(32);
    stacks.reserve(16);
  }
  StackExec exec;
  ExecTrace trace;
  std::vector<std::pair<uint32_t, Stack*>> stacks;
  uint64_t ns_epoch = 0;
};
thread_local ThreadScratch tl_scratch;

// Set on the thread driving RunUpgradePass for its duration. A
// PhaseHook (or a mod's StateUpdate) that executes requests inline
// from inside the pass must bypass the quiesce gate — it IS the
// quiescer, and waiting on itself would deadlock.
thread_local bool tl_upgrade_pass_owner = false;

Stack* LookupStack(const StackNamespace& ns, uint32_t stack_id,
                   ThreadScratch& scratch) {
  // Per-thread cache keyed on the namespace mutation epoch: any mount
  // / unmount / modify / rebind invalidates every cached pointer, so
  // the common case is a handful of pointer compares with no lock.
  const uint64_t epoch = ns.epoch();
  if (epoch != scratch.ns_epoch) {
    scratch.stacks.clear();
    scratch.ns_epoch = epoch;
  }
  for (const auto& [id, stack] : scratch.stacks) {
    if (id == stack_id) return stack;
  }
  auto found = ns.FindById(stack_id);
  if (!found.ok()) return nullptr;
  // Don't cache across a concurrent mutation: the pointer we resolved
  // under the namespace lock may already be about to dangle.
  if (ns.epoch() == scratch.ns_epoch) {
    scratch.stacks.emplace_back(stack_id, *found);
  }
  return *found;
}

}  // namespace

Runtime::Runtime(Options options, simdev::DeviceRegistry& devices)
    : options_(std::move(options)),
      devices_(devices),
      ipc_(options_.ipc),
      namespace_(options_.ns),
      module_manager_(registry_, namespace_, ipc_) {
  if (options_.orchestrator == nullptr) {
    options_.orchestrator = std::make_unique<DynamicOrchestrator>();
  }
  mod_context_.devices = &devices_;
  mod_context_.num_workers = static_cast<uint32_t>(options_.max_workers);
  mod_context_.telemetry = options_.telemetry;
  mod_context_.ns_epoch = &namespace_.epoch_ref();
  // Non-null empty table so pre-Start readers (active_workers, tests)
  // never special-case.
  auto empty = std::make_shared<AssignmentTable>();
  empty->per_worker.assign(options_.max_workers, {});
  assign_table_ = std::move(empty);
  if (telemetry::Telemetry* tel = options_.telemetry; tel != nullptr) {
    telemetry::MetricsRegistry& m = tel->metrics();
    wired_.worker_requests = m.GetCounter("runtime.worker.requests");
    wired_.exec_ns = m.GetHistogram("runtime.worker.exec_ns");
    wired_.queue_wait_ns = m.GetHistogram("ipc.queue.wait_ns");
    wired_.queue_depth = m.GetHistogram("ipc.queue.depth");
    wired_.rebalances = m.GetCounter("orchestrator.rebalance.count");
    wired_.active_workers = m.GetGauge("orchestrator.workers.active");
  }
}

Runtime::~Runtime() {
  if (running()) (void)Stop();
}

Status Runtime::Start() {
  if (running()) return Status::FailedPrecondition("runtime already running");
  ipc_.MarkOnline();
  StartThreads();
  return Status::Ok();
}

Status Runtime::Stop() {
  if (!running()) return Status::FailedPrecondition("runtime not running");
  StopThreads();
  ipc_.MarkOffline();
  return Status::Ok();
}

void Runtime::CrashForTesting() {
  // Offline first so clients observe the crash, then kill threads.
  ipc_.MarkOffline();
  StopThreads();
}

Status Runtime::Restart() {
  if (running()) return Status::FailedPrecondition("runtime already running");
  ipc_.MarkOnline();  // new epoch
  StartThreads();
  return Status::Ok();
}

void Runtime::StartThreads() {
  stop_.store(false, std::memory_order_release);
  worker_dead_ = std::make_unique<std::atomic<bool>[]>(options_.max_workers);
  Rebalance();
  workers_.reserve(options_.max_workers);
  for (size_t i = 0; i < options_.max_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  admin_ = std::thread([this] { AdminLoop(); });
  running_.store(true, std::memory_order_release);
}

void Runtime::StopThreads() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  if (admin_.joinable()) admin_.join();
  running_.store(false, std::memory_order_release);
}

Result<Stack*> Runtime::MountStack(const StackSpec& spec,
                                   const ipc::Credentials& actor) {
  auto mounted = namespace_.Mount(spec, registry_, mod_context_, actor);
  if (mounted.ok()) Rebalance();
  return mounted;
}

Status Runtime::ModifyStack(const StackSpec& updated,
                            const ipc::Credentials& actor) {
  return namespace_.Modify(updated, registry_, mod_context_, actor);
}

Status Runtime::UnmountStack(const std::string& mount,
                             const ipc::Credentials& actor) {
  return namespace_.Unmount(mount, actor);
}

Status Runtime::ExecuteWith(ipc::Request& req, ExecTrace& trace, Stack* stack,
                            bool queued) {
  // An execution that crossed no queue joins the upgrade quiesce here:
  // join the in-flight count first, then check the gate — seq_cst on
  // both sides of the handshake (this add + load, the quiescer's gate
  // store + in-flight load) makes the classic store-buffer outcome
  // impossible: the quiescer either sees us in flight (and waits us
  // out) or we see its gate (and wait it out); there is no
  // interleaving where an inline execution runs concurrently with the
  // registry swap / vertex rebinding. The stack is resolved after the
  // gate, so a stale binding can never run.
  const bool gated = !queued && !tl_upgrade_pass_owner;
  while (gated) {
    in_flight_.fetch_add(1, std::memory_order_seq_cst);
    if (!quiescing_.load(std::memory_order_seq_cst)) break;
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    inline_paused_.fetch_add(1, std::memory_order_relaxed);
    while (quiescing_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  ThreadScratch& scratch = tl_scratch;
  if (stack == nullptr) stack = LookupStack(namespace_, req.stack_id, scratch);
  // Complete() hands the slot back to the client, which may Reuse() it
  // at once, so every field read happens before it.
  if (stack == nullptr) {
    Status missing =
        Status::NotFound("no stack with id " + std::to_string(req.stack_id));
    req.Complete(StatusCode::kNotFound);
    if (gated) in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return missing;
  }
  trace.Clear();
  scratch.exec.Reset(*stack, mod_context_, trace);
  const Status st = scratch.exec.Dispatch(req);
  const uint32_t worker = req.worker;
  req.Complete(st.ok() ? StatusCode::kOk : st.code(), req.result_u64);
  if (telemetry::Telemetry* tel = mod_context_.telemetry;
      tel != nullptr && tel->enabled()) {
    trace.PublishTo(*tel, worker);
  }
  if (gated) in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return st;
}

Status Runtime::Execute(ipc::Request& req) {
  return ExecuteWith(req, tl_scratch.trace);
}

Status Runtime::RunUpgradePass() {
  tl_upgrade_pass_owner = true;
  const Status st = module_manager_.ProcessUpgrades(mod_context_, [this] {
    quiescing_.store(true, std::memory_order_seq_cst);
    WaitQuiesce();
  });
  // The gate stays up from the quiesce barrier through the apply +
  // RefreshBindings that follow it inside ProcessUpgrades; inline
  // executions resume only once the pass is fully over.
  quiescing_.store(false, std::memory_order_release);
  tl_upgrade_pass_owner = false;
  return st;
}

Status Runtime::StepAdmin() {
  const Status st = RunUpgradePass();
  Rebalance();
  return st;
}

Status Runtime::EnsureRepaired(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(repair_mu_);
  if (repaired_epoch_ >= epoch) return Status::Ok();
  LABSTOR_RETURN_IF_ERROR(registry_.RepairAll());
  repaired_epoch_ = epoch;
  return Status::Ok();
}

Status Runtime::SaveFdState(ipc::ProcessId pid, std::string blob) {
  std::lock_guard<std::mutex> lock(fd_depot_mu_);
  fd_depot_[pid] = std::move(blob);
  return Status::Ok();
}

Result<std::string> Runtime::TakeFdState(ipc::ProcessId pid) {
  std::lock_guard<std::mutex> lock(fd_depot_mu_);
  const auto it = fd_depot_.find(pid);
  if (it == fd_depot_.end()) {
    return Status::NotFound("no parked fd state for pid " +
                            std::to_string(pid));
  }
  std::string blob = std::move(it->second);
  fd_depot_.erase(it);
  return blob;
}

size_t Runtime::dead_workers() const {
  if (worker_dead_ == nullptr) return 0;
  size_t dead = 0;
  for (size_t w = 0; w < options_.max_workers; ++w) {
    if (worker_dead_[w].load(std::memory_order_acquire)) ++dead;
  }
  return dead;
}

size_t Runtime::active_workers() const {
  const std::shared_ptr<const AssignmentTable> table = LoadAssignments();
  size_t active = 0;
  for (const auto& queues : table->per_worker) {
    if (!queues.empty()) ++active;
  }
  return active;
}

std::vector<ipc::QueuePair*> Runtime::AssignedQueues(size_t worker_id) const {
  const std::shared_ptr<const AssignmentTable> table = LoadAssignments();
  if (worker_id >= table->per_worker.size()) return {};
  return table->per_worker[worker_id];
}

void Runtime::WorkerLoop(size_t worker_id) {
  telemetry::Telemetry* tel = options_.telemetry;
  // Per-worker state, sized once: the drained-batch buffer, the
  // thread's ledger, and the idle ladder. Nothing below allocates
  // once these are warm.
  std::array<ipc::Request*, kWorkerBatch> batch{};
  ExecTrace& trace = tl_scratch.trace;
  IdleBackoff idle;
  // RCU read side: hold the published table; re-load only when the
  // generation counter moves (one relaxed-ish atomic load per pass in
  // steady state, no mutex, no vector copy).
  std::shared_ptr<const AssignmentTable> table = LoadAssignments();
  uint64_t seen_generation = table->generation;
  // Bulk-traffic latch: set when a pass drains a full batch from some
  // queue (producers are streaming faster than one visit clears), so
  // the next idle moment should cede the core wholesale instead of
  // spinning. Cleared by any partial-drain working pass.
  bool bulk_traffic = false;
  const auto sleep = [this](std::chrono::nanoseconds d) {
    if (d <= std::chrono::nanoseconds::zero()) return;
    idle_sleeps_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(d);
  };

  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t generation =
        assign_generation_.load(std::memory_order_acquire);
    if (generation != seen_generation) {
      table = LoadAssignments();
      // The freshly-loaded table may be newer than `generation`; adopt
      // whatever we actually got.
      seen_generation = table->generation;
    }
    bool did_work = false;
    size_t max_drain = 0;
    static const std::vector<ipc::QueuePair*> kNoQueues;
    const std::vector<ipc::QueuePair*>& queues =
        worker_id < table->per_worker.size() ? table->per_worker[worker_id]
                                             : kNoQueues;
    for (ipc::QueuePair* qp : queues) {
      if (qp->update_pending()) {
        qp->AckUpdate();
        continue;  // paused for upgrade
      }
      size_t n = qp->PollSubmissionBatch(batch.data(), kWorkerBatch);
      if (n == 0) continue;
      did_work = true;
      max_drain = std::max(max_drain, n);

      if (faultinject::FaultInjector* fi = faultinject::Active();
          fi != nullptr) {
        size_t kept = 0;
        for (size_t i = 0; i < n; ++i) {
          ipc::Request* req = batch[i];
          // Worker death mid-batch: the thread exits with the drained
          // requests never completed. Checked before the in_flight_
          // increment so upgrade quiescing still converges; clients
          // recover via their Wait timeout + resubmission path, and
          // the immediate rebalance hands this worker's queues
          // (including the one holding the resubmissions) to a
          // survivor.
          if (fi->Evaluate("core.worker.death").has_value()) {
            worker_dead_[worker_id].store(true, std::memory_order_release);
            Rebalance();
            return;
          }
          // Poisoned slot: the request arrives unusable (stale
          // pointer, scribbled header); the worker rejects it without
          // executing, completing it with the injected error.
          if (auto poison = fi->Evaluate("ipc.slot.poison")) {
            req->Complete(poison->code == StatusCode::kOk
                              ? StatusCode::kCorruption
                              : poison->code);
            continue;
          }
          batch[kept++] = req;
        }
        n = kept;
        if (n == 0) continue;
      }

      in_flight_.fetch_add(n, std::memory_order_acq_rel);
      const bool instrument = tel != nullptr && tel->enabled();
      uint64_t now = 0;
      if (instrument) {
        // One epoch-clock read covers queue-wait accounting for the
        // whole batch.
        now = tel->NowNs();
        wired_.queue_depth->Record(qp->PendingSubmissions(), worker_id);
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < n; ++i) {
        ipc::Request* req = batch[i];
        req->worker = static_cast<uint32_t>(worker_id);
        if (instrument && req->submit_ns != 0 && now >= req->submit_ns) {
          wired_.queue_wait_ns->Record(now - req->submit_ns, worker_id);
          tel->trace().Span(static_cast<uint32_t>(worker_id),
                            telemetry::kCatQueue, "queue.wait",
                            req->submit_ns, now - req->submit_ns, "qid",
                            qp->id());
        }
        (void)ExecuteWith(*req, trace, nullptr, /*queued=*/true);
      }
      // Feed the measured processing time back to the orchestrator as
      // an EWMA (the paper: workers "periodically monitor LabMods to
      // get performance metrics, useful to work orchestration"). One
      // sample per batch — the batch mean — via a lost-update-free
      // CAS fold.
      const auto batch_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      const uint64_t per_request_ns = batch_ns / n;
      qp->UpdateEstProcessing(per_request_ns);
      in_flight_.fetch_sub(n, std::memory_order_acq_rel);
      if (instrument) {
        wired_.worker_requests->Add(n, worker_id);
        wired_.exec_ns->RecordN(per_request_ns, n, worker_id);
      }
    }
    if (did_work) {
      idle.Reset();
      bulk_traffic = max_drain >= kWorkerBatch;
    } else if (bulk_traffic) {
      sleep(idle.SleepAtCeiling());
    } else {
      sleep(idle.Idle());
    }
  }
}

void Runtime::AdminLoop() {
  auto last_rebalance = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    const Status st = RunUpgradePass();
    if (!st.ok()) {
      LOG_WARN << "upgrade processing: " << st.ToString();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now - last_rebalance >= 10 * options_.admin_poll) {
      Rebalance();
      last_rebalance = now;
    }
    std::this_thread::sleep_for(options_.admin_poll);
  }
}

void Runtime::PublishAssignments(std::shared_ptr<AssignmentTable> table) {
  // assign_mu_ serializes publishers (so generations stay monotonic
  // with the tables they describe) and guards the shared_ptr swap
  // against the rare reader refetch. Order matters: table first, then
  // generation (release), so a reader woken by the generation bump
  // always finds a table at least that new.
  std::lock_guard<std::mutex> lock(assign_mu_);
  const uint64_t generation =
      assign_generation_.load(std::memory_order_relaxed) + 1;
  table->generation = generation;
  assign_table_ = std::shared_ptr<const AssignmentTable>(std::move(table));
  assign_generation_.store(generation, std::memory_order_release);
}

void Runtime::Rebalance() {
  telemetry::Telemetry* tel = options_.telemetry;
  const bool instrument = tel != nullptr && tel->enabled();
  const uint64_t t0 = instrument ? tel->NowNs() : 0;
  std::vector<QueueLoad> loads;
  for (ipc::QueuePair* qp : ipc_.PrimaryQueues()) {
    QueueLoad load;
    load.qid = qp->id();
    load.est_processing_ns = qp->est_processing_ns.load(std::memory_order_relaxed);
    if (load.est_processing_ns == 0) load.est_processing_ns = 3 * sim::kUs;
    load.backlog = qp->PendingSubmissions();
    loads.push_back(load);
  }
  // Pack across LIVE workers only: a queue left on a dead worker would
  // never be drained again, wedging every client that submits to it.
  std::vector<size_t> live;
  live.reserve(options_.max_workers);
  for (size_t w = 0; w < options_.max_workers; ++w) {
    if (worker_dead_ == nullptr ||
        !worker_dead_[w].load(std::memory_order_acquire)) {
      live.push_back(w);
    }
  }
  const Assignment assignment =
      options_.orchestrator->Rebalance(loads, live.size());
  if (instrument) {
    size_t commissioned = 0;
    for (const auto& queues : assignment.worker_queues) {
      if (!queues.empty()) ++commissioned;
    }
    wired_.rebalances->Inc();
    wired_.active_workers->Set(static_cast<int64_t>(commissioned));
    tel->trace().Span(0, telemetry::kCatOrchestrator,
                      std::string(options_.orchestrator->name()) + ".rebalance",
                      t0, tel->NowNs() - t0, "workers", commissioned);
  }
  auto table = std::make_shared<AssignmentTable>();
  table->per_worker.assign(options_.max_workers, {});
  for (size_t b = 0; b < assignment.worker_queues.size() && b < live.size();
       ++b) {
    for (const uint32_t qid : assignment.worker_queues[b]) {
      if (ipc::QueuePair* qp = ipc_.FindQueue(qid); qp != nullptr) {
        table->per_worker[live[b]].push_back(qp);
      }
    }
  }
  PublishAssignments(std::move(table));
}

void Runtime::WaitQuiesce() {
  // 1. Every assigned, marked primary queue must be acknowledged by
  //    its worker; queues no worker drains are acknowledged here. A
  //    queue's assignment-table entry only promises an ack while
  //    worker threads are actually running — on a never-Started (or
  //    crashed) runtime the table may still name queues, but nobody
  //    will ever drain them, so the barrier acks on their behalf.
  while (!stop_.load(std::memory_order_acquire)) {
    const bool workers_running = running_.load(std::memory_order_acquire);
    const std::shared_ptr<const AssignmentTable> table = LoadAssignments();
    std::vector<ipc::QueuePair*> assigned;
    for (const auto& queues : table->per_worker) {
      assigned.insert(assigned.end(), queues.begin(), queues.end());
    }
    bool all_acked = true;
    for (ipc::QueuePair* qp : ipc_.PrimaryQueues()) {
      if (!qp->update_pending()) continue;
      const bool is_assigned =
          workers_running &&
          std::find(assigned.begin(), assigned.end(), qp) != assigned.end();
      if (!is_assigned) qp->AckUpdate();
      if (!qp->update_acked()) all_acked = false;
    }
    if (all_acked) break;
    std::this_thread::yield();
  }
  // 2. In-flight requests must drain (the seq_cst load pairs with the
  //    inline gate in Execute()).
  while (!stop_.load(std::memory_order_acquire) &&
         in_flight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

}  // namespace labstor::core
