// IPC Manager: connection handshake, queue-pair allocation, and
// runtime-liveness signaling (the hook crash recovery builds on).
//
// Clients "connect over a UNIX domain socket" (a direct call here,
// carrying Credentials), receive a shared-memory segment plus a
// primary queue pair, and submit requests by writing them into the
// segment and pushing pointers onto the ring.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ipc/credentials.h"
#include "ipc/queue_pair.h"
#include "ipc/shmem.h"

namespace labstor::ipc {

struct ClientChannel {
  Credentials creds;
  ShMemSegment* segment = nullptr;  // request/payload allocation
  QueuePair* qp = nullptr;          // primary queue pair

  // Allocates a request plus payload buffer inside the segment.
  Request* NewRequest(uint64_t payload_bytes = 0) {
    Request* req = segment->New<Request>();
    if (req == nullptr) return nullptr;
    req->client_pid = creds.pid;
    if (payload_bytes > 0) {
      req->data = static_cast<uint8_t*>(
          segment->Allocate(payload_bytes, alignof(std::max_align_t)));
      if (req->data == nullptr) return nullptr;
    }
    return req;
  }
};

class IpcManager {
 public:
  struct Options {
    size_t segment_bytes = 16 << 20;
    size_t queue_depth = 1024;  // power of two
    // Upper bound on how long Wait() polls an undrained request while
    // the runtime claims to be online. Guards against wedging forever
    // behind a dead worker: on expiry Wait reports kTimeout and the
    // client library's retry policy takes over. Zero disables.
    std::chrono::milliseconds request_timeout{30000};
  };

  IpcManager() : IpcManager(Options()) {}
  explicit IpcManager(Options options) : options_(options) {}

  // Handshake: verifies the runtime is online, creates (or reuses) the
  // per-client segment + primary queue, grants segment access.
  Result<ClientChannel> Connect(const Credentials& creds);
  // Drops the client's queue assignment (fork/execve re-connect path).
  Status Disconnect(const Credentials& creds);

  // Snapshots, not references: Connect/Disconnect mutate these vectors
  // from client threads while the admin rebalancer (and a dying
  // worker's rebalance) iterate them. Both callers are cold paths —
  // the worker loop reads the published AssignmentTable instead.
  std::vector<QueuePair*> PrimaryQueues() const {
    std::lock_guard<std::mutex> lock(mu_);
    return primary_;
  }
  QueuePair* FindQueue(uint32_t qid) const;

  // --- centralized-quiesce barrier (live upgrades) ---
  // The Module Manager's mark/clear sweeps used to iterate a primary-
  // queue snapshot taken outside mu_, racing Connect(): a queue
  // registered between the sweeps was never marked (it admitted
  // traffic through the quiesce) and, if it appeared only in the clear
  // snapshot, its flags were consistent by luck alone. Begin/EndQuiesce
  // run both sweeps under mu_ and latch the manager: while the barrier
  // is up, Connect() marks new queues at birth, and EndQuiesce clears
  // from a *fresh* snapshot so queues born mid-quiesce reopen too.
  // Reentrant (depth-counted) so batched upgrades nest one barrier.
  void BeginQuiesce();
  void EndQuiesce();
  bool quiescing() const;
  // Primary queues currently UPDATE_PENDING/ACKED (the decentralized
  // protocol's "at most one paused after the swap barrier" assertion).
  size_t PausedPrimaryCount() const;

  ShMemManager& shmem() { return shmem_; }

  // --- runtime liveness (crash recovery) ---
  bool online() const { return online_.load(std::memory_order_acquire); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void MarkOnline() {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    online_.store(true, std::memory_order_release);
  }
  void MarkOffline() { online_.store(false, std::memory_order_release); }

  // Client-side completion wait: polls the request; if the runtime
  // goes offline, waits (up to `offline_grace`) for an administrator
  // restart, then reports kUnavailable so the client library can run
  // StateRepair. Independently, an online-but-undrained request is
  // bounded by Options::request_timeout and reports kTimeout (the
  // request may have been lost with a dead worker). Real-time, for
  // real-mode use only.
  Status Wait(Request* req,
              std::chrono::milliseconds offline_grace =
                  std::chrono::milliseconds(2000)) const;

  // Number of Wait() calls that have started polling. Crash/restart
  // tests use this as a deterministic handshake — "the client is now
  // inside Wait" — instead of sleeping and hoping.
  uint64_t wait_entries() const {
    return wait_entries_.load(std::memory_order_acquire);
  }

 private:
  Options options_;
  ShMemManager shmem_;
  mutable std::mutex mu_;
  uint32_t next_qid_ = 1;
  size_t quiesce_depth_ = 0;  // guarded by mu_
  std::vector<std::unique_ptr<QueuePair>> queues_;
  std::vector<QueuePair*> primary_;
  std::unordered_map<ProcessId, ClientChannel> channels_;
  std::atomic<bool> online_{true};
  std::atomic<uint64_t> epoch_{1};
  mutable std::atomic<uint64_t> wait_entries_{0};
};

}  // namespace labstor::ipc
