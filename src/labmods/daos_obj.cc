#include "labmods/daos_obj.h"

#include <charconv>

namespace labstor::labmods {

sim::Task<Status> StackKvEndpoint::Submit(uint32_t stream, ipc::OpCode op,
                                          std::string key, uint64_t size) {
  ipc::Request req;
  req.op = op;
  req.client_pid = stream;
  req.length = size;
  req.SetPath(mount_, key);
  co_return co_await rt_.Execute(qid_base_ + stream, stack_, req);
}

sim::Task<Status> StackKvEndpoint::Put(uint32_t stream, std::string key,
                                       uint64_t size) {
  return Submit(stream, ipc::OpCode::kPut, std::move(key), size);
}

sim::Task<Status> StackKvEndpoint::Get(uint32_t stream, std::string key) {
  // LabKVS gets fail when the caller's buffer is smaller than the
  // stored value; advertise a buffer larger than any value this
  // interface writes (the worker still moves only value.size bytes).
  return Submit(stream, ipc::OpCode::kGet, std::move(key), 1ull << 30);
}

sim::Task<Status> StackKvEndpoint::Delete(uint32_t stream, std::string key) {
  return Submit(stream, ipc::OpCode::kDelete, std::move(key), 0);
}

std::string DaosObjStore::KeyFor(const ObjectId& oid, const std::string& dkey,
                                 const std::string& akey) const {
  // "<hi>.<lo>": two 20-digit decimals at most, and the dot.
  char ids[41];
  char* end = std::to_chars(ids, ids + 20, oid.hi).ptr;
  *end++ = '.';
  end = std::to_chars(end, end + 20, oid.lo).ptr;
  std::string key;
  key.reserve(root_.size() + static_cast<size_t>(end - ids) + dkey.size() +
              akey.size() + 4);
  key.append(root_).append("/o").append(ids, end);
  key.append("/").append(dkey).append("/").append(akey);
  return key;
}

sim::Task<Status> DaosObjStore::Update(uint32_t stream, ObjectId oid,
                                       std::string dkey, AkeyUpdate update) {
  ++updates_;
  ++keys_touched_;
  co_return co_await endpoint_.Put(stream, KeyFor(oid, dkey, update.akey),
                                   update.size);
}

sim::Task<Status> DaosObjStore::UpdateMulti(uint32_t stream, ObjectId oid,
                                            std::string dkey,
                                            std::vector<AkeyUpdate> updates) {
  ++updates_;
  for (const AkeyUpdate& u : updates) {
    ++keys_touched_;
    const Status st =
        co_await endpoint_.Put(stream, KeyFor(oid, dkey, u.akey), u.size);
    if (!st.ok()) co_return st;
  }
  co_return Status::Ok();
}

sim::Task<Status> DaosObjStore::Fetch(uint32_t stream, ObjectId oid,
                                      std::string dkey, std::string akey) {
  ++fetches_;
  ++keys_touched_;
  co_return co_await endpoint_.Get(stream, KeyFor(oid, dkey, akey));
}

sim::Task<Status> DaosObjStore::FetchMulti(uint32_t stream, ObjectId oid,
                                           std::string dkey,
                                           std::vector<std::string> akeys) {
  ++fetches_;
  for (const std::string& akey : akeys) {
    ++keys_touched_;
    const Status st = co_await endpoint_.Get(stream, KeyFor(oid, dkey, akey));
    if (!st.ok()) co_return st;
  }
  co_return Status::Ok();
}

sim::Task<Status> DaosObjStore::Punch(uint32_t stream, ObjectId oid,
                                      std::string dkey,
                                      std::vector<std::string> akeys) {
  ++punches_;
  for (const std::string& akey : akeys) {
    ++keys_touched_;
    const Status st =
        co_await endpoint_.Delete(stream, KeyFor(oid, dkey, akey));
    if (!st.ok()) co_return st;
  }
  co_return Status::Ok();
}

}  // namespace labstor::labmods
