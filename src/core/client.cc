#include "core/client.h"

#include <algorithm>
#include <thread>

namespace labstor::core {

Status Client::Connect() {
  auto channel = runtime_.ipc().Connect(creds_);
  if (!channel.ok()) return channel.status();
  channel_ = *channel;
  slot_ = (channel_.qp->id() - 1) %
          std::max<uint32_t>(runtime_.mod_context().num_workers, 1);
  connect_epoch_ = runtime_.ipc().epoch();
  return Status::Ok();
}

Status Client::Reconnect() {
  if (connected()) {
    LABSTOR_RETURN_IF_ERROR(runtime_.ipc().Disconnect(creds_));
    channel_ = ipc::ClientChannel{};
  }
  return Connect();
}

Result<ipc::Request*> Client::NewRequest(uint64_t payload_bytes) {
  if (!connected()) return Status::FailedPrecondition("client not connected");
  ipc::Request* req = channel_.NewRequest(payload_bytes);
  if (req == nullptr) {
    return Status::ResourceExhausted("client shared segment exhausted");
  }
  return req;
}

Status Client::Execute(ipc::Request& req, Stack& stack) {
  req.stack_id = stack.id;
  if (stack.exec_mode() == ExecMode::kSync) {
    // Decentralized: no IPC, no Runtime involvement.
    req.worker = slot_;
    return runtime_.Execute(req);
  }
  LABSTOR_RETURN_IF_ERROR(SubmitWithBackpressure(req));
  return WaitWithRecovery(req);
}

std::chrono::microseconds Client::BackoffDelay(int attempt) {
  uint64_t us = static_cast<uint64_t>(retry_.initial_backoff.count());
  us <<= std::min(attempt, 20);
  us = std::min(us, static_cast<uint64_t>(retry_.max_backoff.count()));
  // Jitter decorrelates clients that failed in lockstep (thundering
  // herd on recovery); the stream is seeded, so runs stay reproducible.
  const double factor = 1.0 + retry_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  us = static_cast<uint64_t>(static_cast<double>(us) *
                             std::max(factor, 0.0));
  return std::chrono::microseconds(us);
}

void Client::CountRetry(const char* counter) {
  if (telemetry::Telemetry* tel = runtime_.telemetry();
      tel != nullptr && tel->enabled()) {
    tel->metrics().GetCounter(counter)->Inc();
  }
}

Status Client::SubmitWithBackpressure(ipc::Request& req) {
  if (!connected()) return Status::FailedPrecondition("client not connected");
  if (telemetry::Telemetry* tel = runtime_.telemetry();
      tel != nullptr && tel->enabled()) {
    // Queue-wait accounting: stamped on the runtime's epoch clock and
    // read back by the worker that dequeues the request.
    req.submit_ns = tel->NowNs();
  } else {
    // Telemetry toggled off mid-run: clear any stamp from an earlier
    // submission so the worker can't compute wait from a stale epoch.
    req.submit_ns = 0;
  }
  // Submission fails when the ring is full or the queue is quiesced
  // for an upgrade; both usually clear quickly, so spin briefly, then
  // back off exponentially until the submit deadline expires.
  const auto deadline =
      std::chrono::steady_clock::now() + retry_.submit_deadline;
  int spins = 0;
  int attempt = 0;
  while (true) {
    if (channel_.qp->Submit(&req)) {
      // The MMIO doorbell of the shm transport; workers poll, so the
      // ring only ticks a counter.
      runtime_.RingDoorbell();
      return Status::Ok();
    }
    if (!runtime_.ipc().online()) {
      return Status::Unavailable("runtime offline during submission");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Timeout(
          "submission queue stayed full for " +
          std::to_string(retry_.submit_deadline.count()) +
          "ms (deadline exceeded)");
    }
    if (++spins <= 4096) {
      std::this_thread::yield();
      continue;
    }
    CountRetry("client.submit.retries");
    std::this_thread::sleep_for(BackoffDelay(attempt));
    if (attempt < 16) ++attempt;
  }
}

Status Client::RepairIfNewEpoch() {
  const uint64_t epoch = runtime_.ipc().epoch();
  if (epoch != connect_epoch_ && runtime_.ipc().online()) {
    // The Runtime died and was restarted while we were waiting: walk
    // the namespace and run StateRepair before continuing (paper
    // §III-C3). Idempotent per epoch.
    LABSTOR_RETURN_IF_ERROR(runtime_.EnsureRepaired(epoch));
    connect_epoch_ = epoch;
  }
  return Status::Ok();
}

Status Client::WaitWithRecovery(ipc::Request& req) {
  for (int attempt = 0;; ++attempt) {
    const Status st = runtime_.ipc().Wait(&req);
    LABSTOR_RETURN_IF_ERROR(RepairIfNewEpoch());
    // A completed request carries the worker's verdict — final whether
    // ok or not; retrying a module-level error could double-apply it.
    if (req.IsDone()) return st;
    // Not done: transport-level failure. kUnavailable means the
    // runtime stayed offline past the grace period — reconnection is
    // an administrative decision, not something to retry blindly.
    if (!IsRetryable(st.code()) ||
        st.code() == StatusCode::kUnavailable) {
      return st;
    }
    // kTimeout: the request was likely dequeued by a worker that died.
    if (attempt + 1 >= retry_.max_attempts) {
      return Status::Timeout(
          "deadline exceeded: request not completed after " +
          std::to_string(retry_.max_attempts) + " attempts (last: " +
          st.ToString() + ")");
    }
    ++retries_;
    CountRetry("client.retry.count");
    std::this_thread::sleep_for(BackoffDelay(attempt));
    if (req.IsDone()) continue;  // completed during backoff
    // Resubmit the same request object: the previous pointer vanished
    // with its worker. This is at-least-once recovery — a merely-slow
    // worker could still complete the first copy, which is acceptable
    // under the log-replay consistency model (DESIGN.md §6).
    LABSTOR_RETURN_IF_ERROR(SubmitWithBackpressure(req));
  }
}

}  // namespace labstor::core
