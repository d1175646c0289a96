// Simulated shared memory with credential-gated mapping — the stand-in
// for the paper's ShMemMod (vmalloc + remap_pfn_range in the LabStor
// kernel module).
//
// A segment is created by the Runtime and mapped into client
// "processes" only after an explicit grant, enforcing the paper's rule
// that even processes of the same user cannot see each other's queues
// unless the Runtime allows it. In this single-address-space
// reproduction the MMU boundary is virtual: Map() returns the real
// pointer, but only after the same checks a page-table mapping would
// gate.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "ipc/credentials.h"

namespace labstor::ipc {

using SegmentId = uint64_t;

class ShMemSegment {
 public:
  ShMemSegment(SegmentId id, size_t size, Credentials owner)
      : id_(id), size_(size), owner_(owner), arena_(size) {}

  SegmentId id() const { return id_; }
  size_t size() const { return size_; }
  const Credentials& owner() const { return owner_; }

  // Bump allocation inside the segment. Returns nullptr when the
  // segment budget is exhausted (segments are fixed-size regions).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (arena_.allocated_bytes() + bytes > size_) return nullptr;
    return arena_.Allocate(bytes, align);
  }

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Allocate(sizeof(T), alignof(T));
    if (p == nullptr) return nullptr;
    return new (p) T(std::forward<Args>(args)...);
  }

  size_t allocated_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arena_.allocated_bytes();
  }

  // Crash-consistent checkpoint of the segment (DST harness). Restore
  // rolls every byte — and the allocation cursor — back to the
  // checkpointed instant; objects allocated in between evaporate,
  // exactly as they would across a machine crash.
  Arena::Snapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arena_.TakeSnapshot();
  }
  Status Restore(const Arena::Snapshot& snap) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!arena_.RestoreSnapshot(snap)) {
      return Status::InvalidArgument(
          "snapshot does not match segment chunk layout");
    }
    return Status::Ok();
  }

 private:
  SegmentId id_;
  size_t size_;
  Credentials owner_;
  mutable std::mutex mu_;
  Arena arena_;
};

class ShMemManager {
 public:
  // Creates a segment owned by `owner` (normally the Runtime).
  Result<ShMemSegment*> CreateSegment(const Credentials& owner, size_t size);

  // Grant/revoke mapping rights for a pid. Only the owner (or root)
  // may change grants.
  Status Grant(SegmentId id, const Credentials& actor, ProcessId grantee);
  Status Revoke(SegmentId id, const Credentials& actor, ProcessId grantee);

  // Map the segment into `creds`' address space. Owner and grantees
  // only; everyone else gets PERMISSION_DENIED.
  Result<ShMemSegment*> Map(SegmentId id, const Credentials& creds);

  Status Destroy(SegmentId id, const Credentials& actor);

  size_t segment_count() const;

 private:
  struct Entry {
    std::unique_ptr<ShMemSegment> segment;
    std::unordered_set<ProcessId> grants;
  };

  mutable std::mutex mu_;
  SegmentId next_id_ = 1;
  std::unordered_map<SegmentId, Entry> segments_;
};

}  // namespace labstor::ipc
