#include "core/module_manager.h"

#include "common/logging.h"

namespace labstor::core {

void ModuleManager::SubmitUpgrade(UpgradeRequest request) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(request));
}

size_t ModuleManager::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

Status ModuleManager::ApplyOne(const UpgradeRequest& request, ModContext& ctx,
                               size_t* swapped, size_t* noops) {
  if (code_load_) code_load_(request);
  // UpgradeAll resolves the target version once (every instance lands
  // on the same code object) and stages all fresh instances before
  // swapping any, so a failure on instance N of M leaves all M on
  // their old version — never a mixed-version registry.
  auto result = registry_.UpgradeAll(request.mod_name, request.new_version, ctx);
  if (!result.ok()) return result.status();
  *swapped += result->swapped;
  *noops += result->noops;
  return Status::Ok();
}

Status ModuleManager::ProcessUpgrades(
    ModContext& ctx, const std::function<void()>& wait_quiesce) {
  std::unique_lock<std::mutex> lock(mu_);
  // Early-out before constructing the batch deque: libstdc++'s deque
  // allocates on default construction, which would make every idle
  // admin pass heap-churn.
  if (queue_.empty()) return Status::Ok();
  std::deque<UpgradeRequest> batch;
  batch.swap(queue_);
  lock.unlock();

  // Split by protocol: centralized requests share one global quiesce;
  // decentralized requests roll across clients afterwards.
  std::deque<UpgradeRequest> centralized;
  std::deque<UpgradeRequest> decentralized;
  for (UpgradeRequest& request : batch) {
    (request.kind == UpgradeKind::kCentralized ? centralized : decentralized)
        .push_back(std::move(request));
  }

  Status first_error;
  const auto note = [&](const UpgradeRequest& request, const Status& st,
                        size_t swapped) {
    if (!st.ok()) {
      LOG_WARN << "upgrade of '" << request.mod_name
               << "' failed: " << st.ToString();
      if (first_error.ok()) first_error = st;
    } else if (swapped > 0) {
      applied_.fetch_add(1, std::memory_order_release);
    } else {
      noops_.fetch_add(1, std::memory_order_release);
    }
  };

  if (!centralized.empty()) {
    // Quiesce everything: stop new submissions, wait for workers to
    // acknowledge and in-flight requests to complete. The mark and
    // clear sweeps live in the IpcManager (Begin/EndQuiesce) under its
    // connection lock, so a queue registering mid-upgrade is born
    // paused and is reopened by the same EndQuiesce as everyone else —
    // it can neither admit traffic through the quiesce nor be left
    // pending forever.
    ipc_.BeginQuiesce();
    wait_quiesce();
    Phase("centralized.quiesced");
    for (const UpgradeRequest& request : centralized) {
      size_t swapped = 0;
      size_t noops = 0;
      // Sequenced: note()'s swapped argument is passed by value, so
      // ApplyOne must run before the call is built.
      const Status st = ApplyOne(request, ctx, &swapped, &noops);
      note(request, st, swapped);
    }
    // Stacks must point at the new instances before traffic resumes.
    const Status refresh = ns_.RefreshBindings(registry_);
    if (!refresh.ok() && first_error.ok()) first_error = refresh;
    Phase("centralized.applied");
    ipc_.EndQuiesce();
  }

  for (const UpgradeRequest& request : decentralized) {
    // The instance swap itself still needs a global barrier (the old
    // code object is destroyed; no worker may be inside it)...
    ipc_.BeginQuiesce();
    wait_quiesce();
    Phase("decentralized.swap.quiesced");
    size_t swapped = 0;
    size_t noops = 0;
    const Status st = ApplyOne(request, ctx, &swapped, &noops);
    note(request, st, swapped);
    const Status refresh = ns_.RefreshBindings(registry_);
    if (!refresh.ok() && first_error.ok()) first_error = refresh;
    ipc_.EndQuiesce();
    // ...then the update propagates client by client: each connected
    // client's view is refreshed with only that client's queue briefly
    // paused — the per-client work that makes decentralized upgrades
    // slightly slower in Table I.
    for (ipc::QueuePair* qp : ipc_.PrimaryQueues()) {
      qp->MarkUpdatePending();
      wait_quiesce();  // drains just this pause (others stay open)
      Phase("decentralized.roll.paused");
      qp->ClearUpdate();
    }
  }
  return first_error;
}

}  // namespace labstor::core
