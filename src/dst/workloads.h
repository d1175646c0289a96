// Seeded randomized workloads for the crash-point enumerator.
//
// Every operation is drawn from the Schedule's decision streams (so
// one seed fixes the whole op sequence), issued through the rig's
// client, and — once acknowledged — recorded in the ledger with the
// device-journal window it spanned. A workload failing mid-run is an
// error: these run against a healthy rig; faults come later, from the
// crash enumerator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dst/crash_enum.h"
#include "dst/journal.h"
#include "dst/model.h"
#include "dst/rigs.h"
#include "dst/schedule.h"

namespace labstor::dst {

// Deterministic payload bytes: position-dependent and tagged, so two
// different writes never produce the same byte stream.
std::vector<uint8_t> PatternBytes(uint64_t tag, size_t len);

// The fixed file/key population the steppers draw from. Exposed so
// end-of-run audits can also verify *absence*: a pool member missing
// from the model must be missing from the system too.
inline constexpr size_t kWorkloadPoolSize = 6;
std::string WorkloadFsPath(size_t i);
std::string WorkloadKvsKey(size_t i);

// Shadow state the steppers consult when choosing an applicable op
// (which files/keys currently exist and how big they are). One struct
// per workload so callers can interleave the two streams.
struct FsWorkloadState {
  std::map<std::string, uint64_t> live;  // path -> size
};
struct KvsWorkloadState {
  std::map<std::string, std::vector<uint8_t>> live;  // key -> value
};

// Single acked operation drawn from the Schedule streams. The crash
// workloads loop these against a journaled rig; the lifecycle
// scheduler (dst/lifecycle.h) interleaves them with upgrade/rebalance/
// restart events. `journal` may be null (no crash-point enumeration on
// that rig) — windows are then recorded as [0, 0), which StateAt
// treats as always durable.
Status StepFsOp(labmods::GenericFs& fs, core::Client& client,
                core::Stack& stack, Schedule& sched,
                const DeviceJournal* journal, FsModel& model,
                FsWorkloadState& state);
Status StepKvsOp(labmods::GenericKvs& kvs, Schedule& sched,
                 const DeviceJournal* journal, KvModel& model,
                 KvsWorkloadState& state);

// Random create/write/truncate/rename/unlink mix over a small file
// population on a StackKind::kLabFs rig. Records every ack into `model`.
Status RunFsWorkload(CrashRig& rig, Schedule& sched,
                     const DeviceJournal& journal, FsModel& model,
                     size_t num_ops);

// Random put/delete (with read-back verification) mix on a
// StackKind::kLabKvs rig.
Status RunKvsWorkload(CrashRig& rig, Schedule& sched,
                      const DeviceJournal& journal, KvModel& model,
                      size_t num_ops);

// Pushdown RMW-chain mix on a StackKind::kPushdownKvs rig: seeds a
// counter-bearing value pool, registers a get-modify-put chain, then
// executes it `num_chains` times through the IPC path with read-back
// verification. Each acked chain is recorded in the KV model as a put
// of its final value, and the durable-journal length after every chain
// step is appended to `ledger.chain_step_boundaries` (via the
// PushdownMod step hook) so the crash enumerator revisits every
// mid-chain state.
Status RunPushdownWorkload(CrashRig& rig, Schedule& sched,
                           const DeviceJournal& journal,
                           WorkloadLedger& ledger, size_t num_chains);

}  // namespace labstor::dst
