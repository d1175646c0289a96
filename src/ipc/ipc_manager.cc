#include "ipc/ipc_manager.h"

#include <thread>

#include "faultinject/faultinject.h"

namespace labstor::ipc {

Result<ClientChannel> IpcManager::Connect(const Credentials& creds) {
  if (!online()) {
    return Status::Unavailable("runtime is offline");
  }
  // Models shmget/mmap failure during the handshake: the client gets
  // a clean error and may simply retry Connect().
  LABSTOR_FAULTPOINT("ipc.connect.shmem");
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = channels_.find(creds.pid); it != channels_.end()) {
    return it->second;
  }
  auto segment = shmem_.CreateSegment(kRuntimeCreds, options_.segment_bytes);
  if (!segment.ok()) return segment.status();
  LABSTOR_RETURN_IF_ERROR(
      shmem_.Grant((*segment)->id(), kRuntimeCreds, creds.pid));

  auto qp =
      std::make_unique<QueuePair>(next_qid_++, options_.queue_depth, creds);
  QueuePair* raw = qp.get();
  // Born paused while an upgrade quiesce is in progress: the client
  // may connect, but nothing it submits is admitted until EndQuiesce
  // reopens every primary (fresh snapshot — this queue included).
  if (quiesce_depth_ > 0) raw->MarkUpdatePending();
  queues_.push_back(std::move(qp));
  primary_.push_back(raw);

  ClientChannel channel{creds, *segment, raw};
  channels_.emplace(creds.pid, channel);
  return channel;
}

Status IpcManager::Disconnect(const Credentials& creds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = channels_.find(creds.pid);
  if (it == channels_.end()) return Status::NotFound("client not connected");
  // The queue pair stays allocated (outstanding pointers may exist)
  // but is removed from the primary set so workers stop polling it.
  QueuePair* qp = it->second.qp;
  std::erase(primary_, qp);
  channels_.erase(it);
  return Status::Ok();
}

void IpcManager::BeginQuiesce() {
  std::lock_guard<std::mutex> lock(mu_);
  ++quiesce_depth_;
  for (QueuePair* qp : primary_) qp->MarkUpdatePending();
}

void IpcManager::EndQuiesce() {
  std::lock_guard<std::mutex> lock(mu_);
  if (quiesce_depth_ == 0) return;
  if (--quiesce_depth_ > 0) return;
  // Fresh snapshot under the same lock Connect() takes: queues that
  // registered (born paused) after BeginQuiesce reopen here too.
  for (QueuePair* qp : primary_) qp->ClearUpdate();
}

bool IpcManager::quiescing() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quiesce_depth_ > 0;
}

size_t IpcManager::PausedPrimaryCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t paused = 0;
  for (QueuePair* qp : primary_) {
    if (qp->update_pending()) ++paused;
  }
  return paused;
}

QueuePair* IpcManager::FindQueue(uint32_t qid) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& qp : queues_) {
    if (qp->id() == qid) return qp.get();
  }
  return nullptr;
}

Status IpcManager::Wait(Request* req,
                        std::chrono::milliseconds offline_grace) const {
  wait_entries_.fetch_add(1, std::memory_order_acq_rel);
  const auto unset = std::chrono::steady_clock::time_point::max();
  auto offline_deadline = unset;
  // Overall bound while online: a crashed worker can lose a dequeued
  // request without the runtime ever going offline, so an unbounded
  // poll would wedge the client forever.
  const auto request_deadline =
      options_.request_timeout.count() > 0
          ? std::chrono::steady_clock::now() + options_.request_timeout
          : unset;
  while (!req->IsDone()) {
    const auto now = std::chrono::steady_clock::now();
    if (!online()) {
      if (offline_deadline == unset) {
        offline_deadline = now + offline_grace;
      } else if (now >= offline_deadline) {
        return Status::Unavailable(
            "runtime offline and not restarted within grace period");
      }
    } else {
      offline_deadline = unset;
      if (now >= request_deadline) {
        return Status::Timeout("request not completed within " +
                               std::to_string(options_.request_timeout.count()) +
                               "ms (worker lost it?)");
      }
    }
    std::this_thread::yield();
  }
  return req->ToStatus();
}

}  // namespace labstor::ipc
