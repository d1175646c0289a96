// Queue Pairs: the IPC Manager's communication primitive.
//
// Each connected client owns one primary queue in shared memory
// (paper §III-C1). It is a submission ring only: a worker signals
// completion in the request slot itself (Request::Complete flips
// `state`, which the client polls), so no completion ring is needed.
// The paper's intermediate queues (requests spawned by requests) have
// no counterpart here: mods forward synchronously inside StackExec.
// Primary queues carry the UPDATE_PENDING / UPDATE_ACKED flags the
// centralized live-upgrade protocol uses to quiesce traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/ring_buffer.h"
#include "faultinject/faultinject.h"
#include "ipc/credentials.h"
#include "ipc/request.h"

namespace labstor::ipc {

class QueuePair {
 public:
  QueuePair(uint32_t id, size_t depth_pow2, Credentials owner)
      : id_(id), owner_(owner), sq_(depth_pow2) {}

  uint32_t id() const { return id_; }
  const Credentials& owner() const { return owner_; }

  // --- submission side ---
  bool Submit(Request* req) {
    if (update_pending()) {  // quiesced for upgrade
      refused_while_paused_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Injected overflow presents exactly like a full ring: the caller
    // must apply its backpressure/backoff path.
    if (faultinject::FaultInjector* fi = faultinject::Active();
        fi != nullptr && fi->Evaluate("ipc.qp.overflow").has_value()) {
      return false;
    }
    return sq_.TryPush(req);
  }
  std::optional<Request*> PollSubmission() { return sq_.TryPop(); }
  // Drain up to `max` pending submissions in one visit (one ring CAS
  // for the whole run) — the worker-side batch-drain primitive.
  size_t PollSubmissionBatch(Request** out, size_t max) {
    return sq_.TryPopBatch(out, max);
  }
  size_t PendingSubmissions() const { return sq_.SizeApprox(); }

  // --- live upgrade protocol flags ---
  // Mark/Clear count state *transitions* (normal -> paused and back),
  // not calls: re-marking an already-paused queue is idempotent. The
  // lifecycle invariants lean on that pairing — after any upgrade
  // completes, pauses() == clears() on every queue, or a quiesce sweep
  // leaked a pause.
  void MarkUpdatePending() {
    const uint32_t prev = update_state_.exchange(1, std::memory_order_acq_rel);
    if (prev == 0) pauses_.fetch_add(1, std::memory_order_relaxed);
  }
  void AckUpdate() {
    uint32_t expected = 1;
    update_state_.compare_exchange_strong(expected, 2,
                                          std::memory_order_acq_rel);
  }
  void ClearUpdate() {
    const uint32_t prev = update_state_.exchange(0, std::memory_order_acq_rel);
    if (prev != 0) clears_.fetch_add(1, std::memory_order_relaxed);
  }
  bool update_pending() const {
    return update_state_.load(std::memory_order_acquire) != 0;
  }
  bool update_acked() const {
    return update_state_.load(std::memory_order_acquire) == 2;
  }

  // --- pause observability (lifecycle invariants / tests) ---
  uint64_t pauses() const { return pauses_.load(std::memory_order_relaxed); }
  uint64_t clears() const { return clears_.load(std::memory_order_relaxed); }
  // Submissions turned away at the UPDATE_PENDING barrier. Strictly
  // monotonic evidence that no request was admitted past a quiesce.
  uint64_t refused_while_paused() const {
    return refused_while_paused_.load(std::memory_order_relaxed);
  }

  // Max EstProcessingTime (ns) among mods reachable from this queue;
  // maintained by the runtime when stacks are (re)assigned.
  std::atomic<uint64_t> est_processing_ns{0};

  // Fold a measured per-request service time into est_processing_ns
  // (EWMA, alpha = 1/8). Two workers draining the same queue (old and
  // new owner across a rebalance) must not interleave load/store and
  // lose an update, hence the CAS — but bounded: with many concurrent
  // drainers an unbounded loop can livelock (every attempt loses to a
  // sibling), and the estimate is a heuristic that tolerates one
  // superseded sample far better than a stuck worker. After
  // kEwmaCasAttempts failed rounds the fold is published with a plain
  // relaxed store computed from the freshest observed value.
  void UpdateEstProcessing(uint64_t sample_ns) {
    uint64_t prev = est_processing_ns.load(std::memory_order_relaxed);
    for (int attempt = 0; attempt < kEwmaCasAttempts; ++attempt) {
      const uint64_t next = FoldEwma(prev, sample_ns);
      if (est_processing_ns.compare_exchange_weak(prev, next,
                                                  std::memory_order_relaxed)) {
        return;
      }
      // compare_exchange reloaded `prev`; refold against it.
    }
    est_processing_ns.store(FoldEwma(prev, sample_ns),
                            std::memory_order_relaxed);
  }

  // EWMA step, overflow-safe: the old (prev * 7 + sample) / 8 wrapped
  // uint64 for estimates past ~2.6e18 ns and silently corrupted the
  // orchestrator's load signal; prev - prev/8 + sample/8 never exceeds
  // max(prev, sample). Clamped to ≥ 1 so a decayed estimate cannot
  // re-enter the prev == 0 bootstrap branch.
  static uint64_t FoldEwma(uint64_t prev, uint64_t sample) {
    if (prev == 0) return sample;
    const uint64_t next = prev - prev / 8 + sample / 8;
    return next == 0 ? 1 : next;
  }
  static constexpr int kEwmaCasAttempts = 8;

 private:
  uint32_t id_;
  Credentials owner_;
  MpmcRing<Request*> sq_;
  std::atomic<uint32_t> update_state_{0};  // 0=normal 1=pending 2=acked
  std::atomic<uint64_t> pauses_{0};
  std::atomic<uint64_t> clears_{0};
  std::atomic<uint64_t> refused_while_paused_{0};
};

}  // namespace labstor::ipc
