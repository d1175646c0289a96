// LabStor client library (paper §III-D "Application-Side").
//
// Wraps the IPC handshake, request submission, completion waiting, and
// crash recovery. Interface LabMods (GenericFS / GenericKVS) build on
// this to offer POSIX-like and KVS calls to applications.
#pragma once

#include <chrono>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "core/runtime.h"
#include "core/stack_exec.h"
#include "ipc/ipc_manager.h"

namespace labstor::core {

// Bounds every client-side wait loop. Transient failures (kUnavailable,
// kTimeout — see IsRetryable) are retried with exponential backoff and
// seeded jitter; anything else is surfaced immediately. After
// max_attempts the client reports kTimeout with DEADLINE_EXCEEDED
// semantics instead of spinning forever.
struct RetryPolicy {
  int max_attempts = 4;
  std::chrono::microseconds initial_backoff{200};
  std::chrono::microseconds max_backoff{10'000};
  double jitter = 0.25;  // backoff multiplied by U[1-jitter, 1+jitter]
  // Submission-side bound: how long Submit may stay rejected (ring
  // full / quiesced / injected overflow) before giving up.
  std::chrono::milliseconds submit_deadline{2000};
};

class Client {
 public:
  Client(Runtime& runtime, ipc::Credentials creds, RetryPolicy retry = {})
      : runtime_(runtime),
        creds_(creds),
        retry_(retry),
        rng_(Rng(creds.pid ^ 0x6661756C74ULL)) {}  // per-client jitter stream

  // Handshake over the (simulated) UNIX domain socket. Also takes the
  // client's log-and-allocator slot: its queue id minus 1, modulo the
  // runtime's worker bound, so the first client gets slot 0 and the
  // next ones the slots after it.
  Status Connect();
  bool connected() const { return channel_.qp != nullptr; }
  // The worker slot that sync execution stamps into req.worker, so that
  // LabFS and LabKVS append to this slot's log and allocate from its
  // pool, and sync clients do not serialise on slot 0.
  uint32_t slot() const { return slot_; }
  const ipc::Credentials& creds() const { return creds_; }

  // Fork/execve support: drop the channel and establish a fresh one
  // (new shared-memory queues), as the paper's IPC Manager does when
  // intercepting clone/execve.
  Status Reconnect();

  // Allocates a request (+payload) in this client's shared segment.
  Result<ipc::Request*> NewRequest(uint64_t payload_bytes = 0);

  // Resolve a path against the LabStack Namespace.
  Result<Stack*> ResolvePath(const std::string& path) {
    return runtime_.ns().Resolve(path);
  }

  // Executes `req` against `stack` honoring its exec mode:
  //   * sync:  DAG runs inline in this thread (decentralized design),
  //     as worker slot();
  //   * async: submit to the primary queue, poll for completion, and
  //     run the crash-recovery protocol if the Runtime dies.
  Status Execute(ipc::Request& req, Stack& stack);

  Runtime& runtime() { return runtime_; }

  const RetryPolicy& retry_policy() const { return retry_; }
  // Transport-level retries performed by this client (wait timeouts
  // recovered by resubmission; also mirrored to the telemetry counter
  // "client.retry.count").
  uint64_t retries() const { return retries_; }

 private:
  Status SubmitWithBackpressure(ipc::Request& req);
  Status WaitWithRecovery(ipc::Request& req);
  // Runs the per-epoch StateRepair handshake if the runtime restarted
  // while we were waiting.
  Status RepairIfNewEpoch();
  std::chrono::microseconds BackoffDelay(int attempt);
  void CountRetry(const char* counter);

  Runtime& runtime_;
  ipc::Credentials creds_;
  RetryPolicy retry_;
  Rng rng_;
  uint64_t retries_ = 0;
  ipc::ClientChannel channel_;
  uint32_t slot_ = 0;
  uint64_t connect_epoch_ = 0;
};

}  // namespace labstor::core
