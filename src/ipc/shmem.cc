#include "ipc/shmem.h"

namespace labstor::ipc {

Result<ShMemSegment*> ShMemManager::CreateSegment(const Credentials& owner,
                                                  size_t size) {
  if (size == 0) return Status::InvalidArgument("segment size must be > 0");
  std::lock_guard<std::mutex> lock(mu_);
  const SegmentId id = next_id_++;
  Entry entry;
  entry.segment = std::make_unique<ShMemSegment>(id, size, owner);
  ShMemSegment* raw = entry.segment.get();
  segments_.emplace(id, std::move(entry));
  return raw;
}

Status ShMemManager::Grant(SegmentId id, const Credentials& actor,
                           ProcessId grantee) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = segments_.find(id);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  if (it->second.segment->owner().pid != actor.pid && !actor.IsRoot()) {
    return Status::PermissionDenied("only the segment owner may grant");
  }
  it->second.grants.insert(grantee);
  return Status::Ok();
}

Status ShMemManager::Revoke(SegmentId id, const Credentials& actor,
                            ProcessId grantee) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = segments_.find(id);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  if (it->second.segment->owner().pid != actor.pid && !actor.IsRoot()) {
    return Status::PermissionDenied("only the segment owner may revoke");
  }
  it->second.grants.erase(grantee);
  return Status::Ok();
}

Result<ShMemSegment*> ShMemManager::Map(SegmentId id,
                                        const Credentials& creds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = segments_.find(id);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  Entry& entry = it->second;
  if (entry.segment->owner().pid != creds.pid &&
      !entry.grants.contains(creds.pid)) {
    return Status::PermissionDenied("pid " + std::to_string(creds.pid) +
                                    " has no grant for segment " +
                                    std::to_string(id));
  }
  return entry.segment.get();
}

Status ShMemManager::Destroy(SegmentId id, const Credentials& actor) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = segments_.find(id);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  if (it->second.segment->owner().pid != actor.pid && !actor.IsRoot()) {
    return Status::PermissionDenied("only the segment owner may destroy");
  }
  segments_.erase(it);
  return Status::Ok();
}

size_t ShMemManager::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

}  // namespace labstor::ipc
