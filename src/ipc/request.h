// The request/completion wire format placed in shared-memory queues.
//
// A Request is allocated inside a ShMemSegment by the client-side
// connector, filled in, and its pointer pushed onto a submission ring.
// A worker executes it (mods forward synchronously down the stack) and
// finally stores the result fields and flips `state` to kDone, which
// the polling client observes. That flip is the only completion
// signal; once it lands the slot belongs to the client again.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "common/status.h"

namespace labstor::ipc {

// Operations span the interfaces the paper's LabMods expose: POSIX
// file ops (GenericFS), KVS ops (GenericKVS), block ops (drivers), and
// control ops (upgrades, dummy messages).
enum class OpCode : uint16_t {
  kNop = 0,
  // --- POSIX file interface ---
  kOpen,
  kCreate,
  kClose,
  kRead,
  kWrite,
  kFsync,
  kStat,
  kUnlink,
  kRename,
  kMkdir,
  kReaddir,
  kTruncate,
  // --- KVS interface ---
  kPut,
  kGet,
  kDelete,
  kExists,
  // --- block interface ---
  kBlkRead,
  kBlkWrite,
  kBlkFlush,
  // --- zoned-namespace interface (ZNS driver LabMods) ---
  kZoneAppend,  // write at the zone's write pointer; offset returned
  kZoneReset,   // rewind a zone's write pointer
  kZoneOpen,    // explicitly open a zone (claims an open-zone slot)
  kZoneClose,   // open -> closed; releases the open-zone slot
  kZoneFinish,  // seal a zone: wp jumps to end, state becomes full
  // --- pushdown op chains (DESIGN.md §12) ---
  kChainRegister,  // payload carries an encoded ChainProgram
  kChainExec,      // run the registered chain named by Request::chain_id
  // --- journal transaction markers (chain crash atomicity) ---
  kTxnBegin,  // append an open-txn marker to the metadata log
  kTxnCommit,  // append the matching commit marker
  // --- control ---
  kUpgrade,
  kDummy,
  // Appended last so the values above keep their numbering.
  kTxnAbort,  // journal: close the open txn unapplied (a chain step failed)
};

std::string_view OpCodeName(OpCode op);

enum class RequestState : uint32_t {
  kPending = 0,
  kInFlight = 1,
  kDone = 2,
};

// Open flags (subset of POSIX semantics LabFS honors).
inline constexpr uint16_t kOpenCreate = 1u << 0;
inline constexpr uint16_t kOpenTrunc = 1u << 1;
inline constexpr uint16_t kOpenAppend = 1u << 2;
inline constexpr uint16_t kOpenRdOnly = 1u << 3;

struct Request {
  static constexpr size_t kPathCapacity = 200;

  uint64_t id = 0;
  uint32_t stack_id = 0;
  uint32_t client_pid = 0;
  uint32_t client_uid = 0;
  OpCode op = OpCode::kNop;
  uint16_t flags = 0;
  int32_t fd = -1;
  uint64_t offset = 0;
  uint64_t length = 0;
  // Hardware queue chosen by the I/O scheduler mod; consumed by the
  // driver mod.
  uint32_t channel = 0;
  // Worker slot executing this request: picks the log slot and block
  // allocator pool LabFS and LabKVS use. A runtime worker sets its own
  // index; on a sync stack Client::Execute sets the client's slot, so
  // concurrent sync clients append to different log slots.
  uint32_t worker = 0;
  // Submission timestamp on the runtime's telemetry epoch clock
  // (0 = not stamped). The draining worker turns it into queue-wait
  // metrics and "queue" trace spans.
  uint64_t submit_ns = 0;

  // Pushdown chain descriptor (DESIGN.md §12): a kChainExec request
  // names the registered chain to run; the pushdown mod advances
  // chain_step as it executes, so on completion it reports how many
  // steps ran (and a mid-chain resume knows where to pick up).
  uint32_t chain_id = 0;
  uint16_t chain_step = 0;

  // Payload lives in the same shared segment; the queue moves only the
  // Request pointer (the zero-copy property the paper relies on).
  uint8_t* data = nullptr;

  char path[kPathCapacity] = {};  // path (FS) or key (KVS)

  // --- completion fields (written by the worker) ---
  std::atomic<RequestState> state{RequestState::kPending};
  StatusCode result = StatusCode::kOk;
  uint64_t result_u64 = 0;  // bytes moved / fd / value length

  void SetPath(std::string_view p) {
    const size_t n = p.size() < kPathCapacity - 1 ? p.size() : kPathCapacity - 1;
    std::memcpy(path, p.data(), n);
    path[n] = '\0';
  }
  // SetPath(dir + "/" + name), without building the joined string.
  void SetPath(std::string_view dir, std::string_view name) {
    SetPath(dir);
    size_t n = std::min(dir.size(), kPathCapacity - 1);
    if (n < kPathCapacity - 1) path[n++] = '/';
    const size_t m = std::min(name.size(), kPathCapacity - 1 - n);
    std::memcpy(path + n, name.data(), m);
    path[n + m] = '\0';
  }
  std::string_view GetPath() const { return {path}; }

  std::span<uint8_t> Payload() { return {data, length}; }
  std::span<const uint8_t> Payload() const { return {data, length}; }

  // Reset for reuse (client connectors recycle request slots between
  // synchronous calls instead of exhausting the shared segment).
  void Reuse() {
    op = OpCode::kNop;
    flags = 0;
    fd = -1;
    offset = 0;
    length = 0;
    channel = 0;
    worker = 0;
    // Stale stamps from the previous occupant would otherwise surface
    // as wildly inflated queue-wait metrics when the next submission
    // is unstamped (telemetry off, or the sync path).
    submit_ns = 0;
    // A completed chain leaves its descriptor on the slot (completion
    // framing: chain_step = steps executed). A recycled slot must not
    // carry that cursor into the next submission — a fresh kChainExec
    // built on a stale slot would otherwise resume mid-chain and skip
    // the previous chain's prefix.
    chain_id = 0;
    chain_step = 0;
    path[0] = '\0';
    result = StatusCode::kOk;
    result_u64 = 0;
    state.store(RequestState::kPending, std::memory_order_release);
  }

  void Complete(StatusCode code, uint64_t value = 0) {
    result = code;
    result_u64 = value;
    state.store(RequestState::kDone, std::memory_order_release);
  }
  bool IsDone() const {
    return state.load(std::memory_order_acquire) == RequestState::kDone;
  }
  Status ToStatus() const {
    if (result == StatusCode::kOk) return Status::Ok();
    return Status(result, std::string(OpCodeName(op)) + " failed");
  }
};

inline std::string_view OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kNop: return "nop";
    case OpCode::kOpen: return "open";
    case OpCode::kCreate: return "create";
    case OpCode::kClose: return "close";
    case OpCode::kRead: return "read";
    case OpCode::kWrite: return "write";
    case OpCode::kFsync: return "fsync";
    case OpCode::kStat: return "stat";
    case OpCode::kUnlink: return "unlink";
    case OpCode::kRename: return "rename";
    case OpCode::kMkdir: return "mkdir";
    case OpCode::kReaddir: return "readdir";
    case OpCode::kTruncate: return "truncate";
    case OpCode::kPut: return "put";
    case OpCode::kGet: return "get";
    case OpCode::kDelete: return "delete";
    case OpCode::kExists: return "exists";
    case OpCode::kBlkRead: return "blk_read";
    case OpCode::kBlkWrite: return "blk_write";
    case OpCode::kBlkFlush: return "blk_flush";
    case OpCode::kZoneAppend: return "zone_append";
    case OpCode::kZoneReset: return "zone_reset";
    case OpCode::kZoneOpen: return "zone_open";
    case OpCode::kZoneClose: return "zone_close";
    case OpCode::kZoneFinish: return "zone_finish";
    case OpCode::kChainRegister: return "chain_register";
    case OpCode::kChainExec: return "chain_exec";
    case OpCode::kTxnBegin: return "txn_begin";
    case OpCode::kTxnCommit: return "txn_commit";
    case OpCode::kUpgrade: return "upgrade";
    case OpCode::kDummy: return "dummy";
    case OpCode::kTxnAbort: return "txn_abort";
  }
  return "?";
}

}  // namespace labstor::ipc
