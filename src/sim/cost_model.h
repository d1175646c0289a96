// Software-path cost tables for the simulated kernel and LabStor I/O
// paths, in virtual nanoseconds.
//
// Calibration: the constants below were chosen once so that the
// Fig. 4(a) anatomy bench reproduces the paper's component breakdown
// for a 4KB NVMe write (I/O ~2/3 of total; LRU cache ~17%; shared-
// memory IPC ~8.4%; NoOp scheduling ~5%; filesystem metadata ~3%;
// permission checks ~3%; driver ~1%), and are then HELD FIXED for
// every other experiment. The absolute magnitudes are in line with
// published measurements of Linux 5.x block-path overheads (a few µs
// of software per 4KB NVMe I/O) and SPDK-style polling paths (<1 µs).
#pragma once

#include "sim/environment.h"

namespace labstor::sim {

struct SoftwareCosts {
  // --- kernel crossing costs ---
  Time syscall = 600;             // entry/exit incl. mitigations
  Time context_switch = 2'000;    // schedule-out + schedule-in
  Time irq_completion = 2'500;    // IRQ + softirq + waiter wakeup

  // --- kernel I/O path ---
  Time vfs_lookup = 300;          // fd table + file ops dispatch
  Time block_layer = 2'000;       // blk-mq request alloc, tags, plug/merge
  Time bio_alloc = 600;           // bio + request structure setup
  Time dma_map = 400;             // scatter-gather mapping
  Time aio_queue_mgmt = 1'000;    // POSIX AIO user-level queue upkeep
  double copy_per_byte = 0.15;    // page-cache / bounce-buffer copy

  // --- LabStor path ---
  Time shm_submit = 1'250;        // enqueue + cross-core cacheline hop
  Time shm_complete = 1'250;      // completion poll observes the CQ entry
  Time worker_poll = 300;         // dequeue + dispatch inside a worker
  Time request_alloc = 200;       // request-object setup in shared memory
  Time completion_post = 3'500;   // worker-side CQE reap + routing + CQ post
  // Busy-poll budget a dedicated worker burns per request gap before
  // its idle backoff kicks in (the paper's configurable µs threshold).
  Time worker_spin_cap = 20'000;

  // --- LabMods (Fig. 4a components) ---
  Time fs_metadata = 900;         // block alloc + log append + inode map
  Time fs_create = 8'000;         // namespace ops: inode init + log record
                                  // build + hashmap insert (FxMark path)
  Time permission_check = 900;    // credential & ACL validation
  Time sched_noop = 1'500;        // key request to a hardware queue
  Time sched_blkswitch = 1'800;   // NoOp + per-queue load bookkeeping
  Time lru_cache_fixed = 4'000;   // page lookup/alloc/insert bookkeeping
  Time driver_submit = 300;       // doorbell + SQE write (kernel driver)
  Time spdk_submit = 250;         // user-mapped SQ doorbell, no kernel structs
  Time dax_store_setup = 150;     // address translation for load/store path

  // --- misc ---
  Time kvs_op = 700;              // LabKVS hash-table put/get bookkeeping
  Time pushdown_step = 250;       // chain interpreter per-step dispatch
  Time pushdown_register = 900;   // chain decode + validate + install
  Time compress_per_byte_x10 = 6; // 0.6 ns/byte (~1.6 GB/s zlib-class)

  Time CopyCost(uint64_t bytes) const {
    return static_cast<Time>(copy_per_byte * static_cast<double>(bytes));
  }
  Time CompressCost(uint64_t bytes) const {
    return compress_per_byte_x10 * bytes / 10;
  }
};

// The default table used by every bench.
inline const SoftwareCosts& DefaultCosts() {
  static const SoftwareCosts costs;
  return costs;
}

// Inter-node network cost model for the multi-node cluster
// (src/cluster): a message pays a fixed RPC software overhead on the
// sender, one-way propagation latency, and serialized per-receiver-NIC
// bandwidth. Magnitudes are 10GbE-class, matching the PfsConfig
// interconnect the mini-PFS has always used (20 us RTT, ~0.1 ns/B).
struct NetworkCosts {
  Time rpc_overhead = 2 * kUs;   // serialize + dispatch on the sender
  Time link_latency = 10 * kUs;  // one-way propagation + NIC traversal
  double ns_per_byte = 0.1;      // ~10 GbE serialized per receiver NIC
  // Fixed on-wire size of a request/forward header (routing metadata:
  // label key, shard-map generation, hop count).
  uint64_t header_bytes = 256;

  Time WireCost(uint64_t payload_bytes) const {
    return link_latency +
           static_cast<Time>(ns_per_byte *
                             static_cast<double>(header_bytes + payload_bytes));
  }
};

inline const NetworkCosts& DefaultNetworkCosts() {
  static const NetworkCosts costs;
  return costs;
}

}  // namespace labstor::sim
