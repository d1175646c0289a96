#include "dst/cluster_scenario.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dst/lifecycle.h"

namespace labstor::dst {
namespace {

// The library registers labkvs v1 and v2; a round past v2 registers
// the same code under its version first.
void EnsureLabKvsRegistered(uint32_t version) {
  // kAlreadyExists is fine: an earlier run registered it.
  (void)core::ModFactory::Global().Register(
      "labkvs", version,
      [version] { return std::make_unique<labmods::LabKvsMod>(version); });
}

struct OpResult {
  Status status;
  uint64_t size = 0;
  bool done = false;
};

sim::Task<void> DriveOp(cluster::Cluster& c, ipc::OpCode op, uint32_t gw,
                        uint32_t tenant, std::string label, uint64_t size,
                        std::shared_ptr<OpResult> out) {
  if (op == ipc::OpCode::kPut) {
    out->status = co_await c.Put(gw, tenant, label, size);
  } else if (op == ipc::OpCode::kDelete) {
    out->status = co_await c.Delete(gw, tenant, label);
  } else {
    out->status = co_await c.Get(gw, tenant, label, &out->size);
  }
  out->done = true;
}

sim::Task<void> DriveStatus(sim::Task<Status> task,
                            std::shared_ptr<OpResult> out) {
  out->status = co_await std::move(task);
  out->done = true;
}

class ScenarioRunner {
 public:
  ScenarioRunner(ClusterRig& rig, Schedule& sched,
                 const ClusterScenarioOptions& opts)
      : rig_(rig), sched_(sched), opts_(opts) {}

  Result<ClusterScenarioStats> Run();

 private:
  cluster::Cluster& cluster() { return rig_.cluster(); }

  std::string LabelAt(uint64_t idx) const {
    return "t" + std::to_string(idx % opts_.tenants) + "/obj" +
           std::to_string(idx);
  }
  uint32_t TenantOf(uint64_t idx) const {
    return static_cast<uint32_t>(idx % opts_.tenants);
  }

  // Schedule-drawn live gateway, or kNoGateway when everything is down.
  static constexpr uint32_t kNoGateway = ~0u;
  uint32_t PickGateway(const char* site) {
    const std::vector<uint32_t> live = cluster().LiveNodeIds();
    if (live.empty()) return kNoGateway;
    return live[sched_.Range(site, 0, live.size() - 1)];
  }

  Status Fail(const std::string& what) const {
    return Status::Internal(what + " (" + sched_.ReplayHint() + ")");
  }

  // Base invariants + model/ledger agreement, after every step.
  Status CheckAfter(const std::string& what);

  // One serialized client op; the DES runs to quiescence inside.
  Status TrafficOp();
  // Spawn one put and one get (distinct labels) WITHOUT running the
  // environment — they interleave with whatever the caller spawns next.
  void SpawnOverlap(std::vector<std::pair<std::shared_ptr<OpResult>,
                                          std::string>>* puts,
                    std::vector<std::pair<std::shared_ptr<OpResult>,
                                          std::string>>* gets);
  // Apply model updates / relaxed assertions once the DES is drained.
  Status SettleOverlap(
      const std::vector<std::pair<std::shared_ptr<OpResult>, std::string>>&
          puts,
      const std::vector<std::pair<std::shared_ptr<OpResult>, std::string>>&
          gets,
      const std::map<std::string, uint64_t>& sizes_before);

  Status DoJoin();
  Status DoLeave();
  Status DoCrash();
  Status DoRejoin();
  Status DoUpgrade();
  Status FinalAudit();

  // A mutation that returns Unavailable is indeterminate: it may have
  // applied at the owner before the response hop (or the gateway) died.
  // Until a determinate op resolves the label, every state reachable by
  // applying-or-not each lost mutation is legal.
  struct MaybeState {
    bool may_be_absent = false;
    std::set<uint64_t> sizes;  // legal present sizes
  };
  void MarkIndeterminatePut(const std::string& label, uint64_t size);
  void MarkIndeterminateDelete(const std::string& label);
  void Resolve(const std::string& label, bool present, uint64_t size);

  ClusterRig& rig_;
  Schedule& sched_;
  const ClusterScenarioOptions& opts_;
  ClusterScenarioStats stats_;
  // Ground truth the cluster's applied ledger and read-backs are
  // checked against: label -> last acked size. Labels with a lost
  // in-flight mutation move to indeterminate_ until resolved.
  std::map<std::string, uint64_t> model_;
  std::map<std::string, MaybeState> indeterminate_;
  uint32_t version_ = 1;
};

void ScenarioRunner::MarkIndeterminatePut(const std::string& label,
                                          uint64_t size) {
  MaybeState maybe;
  if (const auto ind = indeterminate_.find(label);
      ind != indeterminate_.end()) {
    maybe = ind->second;  // prior states stay legal (op may not apply)
  } else if (const auto it = model_.find(label); it != model_.end()) {
    maybe.sizes.insert(it->second);
    model_.erase(it);
  } else {
    maybe.may_be_absent = true;
  }
  maybe.sizes.insert(size);
  indeterminate_[label] = std::move(maybe);
}

void ScenarioRunner::MarkIndeterminateDelete(const std::string& label) {
  MaybeState maybe;
  if (const auto ind = indeterminate_.find(label);
      ind != indeterminate_.end()) {
    maybe = ind->second;
  } else if (const auto it = model_.find(label); it != model_.end()) {
    maybe.sizes.insert(it->second);
    model_.erase(it);
  }
  maybe.may_be_absent = true;  // the delete may have applied
  indeterminate_[label] = std::move(maybe);
}

void ScenarioRunner::Resolve(const std::string& label, bool present,
                             uint64_t size) {
  indeterminate_.erase(label);
  if (present) {
    model_[label] = size;
  } else {
    model_.erase(label);
  }
}

Status ScenarioRunner::CheckAfter(const std::string& what) {
  ++stats_.invariant_checks;
  if (const Status st = cluster().CheckInvariants(false); !st.ok()) {
    return Fail(what + ": " + st.message());
  }
  // The cluster ledger records *applied* mutations; ops whose response
  // hop died are applied-but-unacked, so an indeterminate label may
  // legally sit in any of its candidate states.
  const auto& applied = cluster().acked();
  for (const auto& [label, size] : model_) {
    const auto it = applied.find(label);
    if (it == applied.end()) {
      return Fail(what + ": ledger lost acked label " + label);
    }
    if (it->second != size) {
      return Fail(what + ": ledger size mismatch on " + label);
    }
  }
  for (const auto& [label, size] : applied) {
    if (model_.count(label) != 0) continue;
    const auto ind = indeterminate_.find(label);
    if (ind == indeterminate_.end()) {
      return Fail(what + ": ledger holds unexpected label " + label);
    }
    if (ind->second.sizes.count(size) == 0) {
      return Fail(what + ": ledger holds " + label +
                  " at a size no lost mutation wrote");
    }
  }
  for (const auto& [label, maybe] : indeterminate_) {
    if (!maybe.may_be_absent && applied.count(label) == 0) {
      return Fail(what + ": ledger dropped " + label +
                  " which must exist in some state");
    }
  }
  return Status::Ok();
}

Status ScenarioRunner::TrafficOp() {
  const uint32_t gw = PickGateway("cluster.gw");
  if (gw == kNoGateway) return Status::Ok();  // whole cluster dark
  const uint64_t idx =
      sched_.Range("cluster.label", 0, opts_.label_universe - 1);
  const std::string label = LabelAt(idx);
  const uint64_t kind = sched_.Range("cluster.op", 0, 9);
  const ipc::OpCode op = kind < 5    ? ipc::OpCode::kPut
                         : kind < 9  ? ipc::OpCode::kGet
                                     : ipc::OpCode::kDelete;
  const uint64_t size = sched_.Range("cluster.size", 1, opts_.max_value_bytes);

  auto res = std::make_shared<OpResult>();
  rig_.env().Spawn(
      DriveOp(cluster(), op, gw, TenantOf(idx), label, size, res));
  rig_.env().Run();
  if (!res->done) return Fail("traffic op never completed");

  sched_.Note("op " + std::string(ipc::OpCodeName(op)) + " " + label + " gw=" +
              std::to_string(gw) + " -> " +
              std::string(StatusCodeName(res->status.code())));

  const StatusCode code = res->status.code();
  if (code == StatusCode::kUnavailable) {
    ++stats_.unavailable_ops;  // outcome unknown: node down, or the
    if (op == ipc::OpCode::kPut) {  // response hop died post-apply
      MarkIndeterminatePut(label, size);
    } else if (op == ipc::OpCode::kDelete) {
      MarkIndeterminateDelete(label);
    }
    return Status::Ok();
  }
  switch (op) {
    case ipc::OpCode::kPut:
      ++stats_.puts;
      if (!res->status.ok()) return Fail("put failed: " + res->status.message());
      ++stats_.ok_ops;
      Resolve(label, /*present=*/true, size);
      break;
    case ipc::OpCode::kGet: {
      ++stats_.gets;
      const auto it = model_.find(label);
      const auto ind = indeterminate_.find(label);
      if (res->status.ok()) {
        ++stats_.ok_ops;
        if (it != model_.end()) {
          if (it->second != res->size) {
            return Fail("get size mismatch on " + label + ": acked " +
                        std::to_string(it->second) + " read " +
                        std::to_string(res->size));
          }
        } else if (ind != indeterminate_.end()) {
          if (ind->second.sizes.count(res->size) == 0) {
            return Fail("get on " + label +
                        " returned a size no lost mutation wrote");
          }
          Resolve(label, /*present=*/true, res->size);
        } else {
          return Fail("get found unacked label " + label);
        }
      } else if (code == StatusCode::kNotFound) {
        if (it != model_.end()) {
          return Fail("acked label " + label + " invisible to get");
        }
        if (ind != indeterminate_.end()) {
          // A returned NotFound is authoritative (fully live membership
          // or an owner-held tombstone): the lost mutation chain must
          // admit absence, and the label resolves to absent.
          if (!ind->second.may_be_absent) {
            return Fail("get lost label " + label +
                        " which must exist in some state");
          }
          Resolve(label, /*present=*/false, 0);
        }
      } else {
        return Fail("get failed: " + res->status.message());
      }
      break;
    }
    default:
      ++stats_.deletes;
      if (res->status.ok()) {
        ++stats_.ok_ops;
        Resolve(label, /*present=*/false, 0);
      } else if (code != StatusCode::kNotFound) {
        return Fail("delete failed: " + res->status.message());
      }
      // A NotFound delete is left unresolved: the label may still be
      // applied-but-stranded on a down node the owner cannot see.
      break;
  }
  return Status::Ok();
}

void ScenarioRunner::SpawnOverlap(
    std::vector<std::pair<std::shared_ptr<OpResult>, std::string>>* puts,
    std::vector<std::pair<std::shared_ptr<OpResult>, std::string>>* gets) {
  const uint32_t gw = PickGateway("cluster.overlap_gw");
  if (gw == kNoGateway) return;
  const uint64_t put_idx =
      sched_.Range("cluster.overlap_put", 0, opts_.label_universe - 1);
  uint64_t get_idx =
      sched_.Range("cluster.overlap_get", 0, opts_.label_universe - 1);
  if (get_idx == put_idx) get_idx = (get_idx + 1) % opts_.label_universe;
  const uint64_t size =
      sched_.Range("cluster.overlap_size", 1, opts_.max_value_bytes);

  const std::string put_label = LabelAt(put_idx);
  const std::string get_label = LabelAt(get_idx);
  auto put_res = std::make_shared<OpResult>();
  auto get_res = std::make_shared<OpResult>();
  rig_.env().Spawn(DriveOp(cluster(), ipc::OpCode::kPut, gw,
                           TenantOf(put_idx), put_label, size, put_res));
  rig_.env().Spawn(DriveOp(cluster(), ipc::OpCode::kGet, gw,
                           TenantOf(get_idx), get_label, 0, get_res));
  puts->emplace_back(put_res, put_label);
  gets->emplace_back(get_res, get_label);
  // Remember the put size through to SettleOverlap via the result slot.
  put_res->size = size;
}

Status ScenarioRunner::SettleOverlap(
    const std::vector<std::pair<std::shared_ptr<OpResult>, std::string>>& puts,
    const std::vector<std::pair<std::shared_ptr<OpResult>, std::string>>& gets,
    const std::map<std::string, uint64_t>& sizes_before) {
  for (const auto& [res, label] : puts) {
    if (!res->done) return Fail("overlapped put never completed");
    ++stats_.puts;
    if (res->status.ok()) {
      ++stats_.ok_ops;
      Resolve(label, /*present=*/true, res->size);
    } else if (res->status.code() == StatusCode::kUnavailable) {
      ++stats_.unavailable_ops;
      MarkIndeterminatePut(label, res->size);
    } else {
      return Fail("overlapped put failed: " + res->status.message());
    }
    sched_.Note("overlap put " + label + " -> " +
                std::string(StatusCodeName(res->status.code())));
  }
  for (const auto& [res, label] : gets) {
    if (!res->done) return Fail("overlapped get never completed");
    ++stats_.gets;
    const auto it = sizes_before.find(label);
    const bool was_indeterminate = indeterminate_.count(label) != 0;
    if (res->status.ok()) {
      ++stats_.ok_ops;
      // The get label had no concurrent writer (distinct from the put
      // label), so a successful read must match the pre-step ack — or
      // one of the candidate states of a label with a lost mutation.
      if (was_indeterminate) {
        if (indeterminate_[label].sizes.count(res->size) == 0) {
          return Fail("overlapped get on " + label + " returned wrong data");
        }
      } else if (it == sizes_before.end() || it->second != res->size) {
        return Fail("overlapped get on " + label + " returned wrong data");
      }
    } else if (res->status.code() == StatusCode::kNotFound) {
      if (it != sizes_before.end()) {
        return Fail("overlapped get lost acked label " + label);
      }
    } else if (res->status.code() == StatusCode::kUnavailable) {
      ++stats_.unavailable_ops;
    } else {
      return Fail("overlapped get failed: " + res->status.message());
    }
    sched_.Note("overlap get " + label + " -> " +
                std::string(StatusCodeName(res->status.code())));
  }
  return Status::Ok();
}

Status ScenarioRunner::DoJoin() {
  if (cluster().NodeIds().size() >= opts_.max_nodes) return TrafficOp();
  auto res = std::make_shared<OpResult>();
  auto id = std::make_shared<uint32_t>(0);
  std::vector<std::pair<std::shared_ptr<OpResult>, std::string>> puts, gets;
  const auto sizes_before = model_;
  auto task = [](cluster::Cluster& c, std::shared_ptr<uint32_t> out_id,
                 std::shared_ptr<OpResult> out) -> sim::Task<void> {
    out->status = co_await c.AddNode(out_id.get());
    out->done = true;
  }(cluster(), id, res);
  rig_.env().Spawn(std::move(task));
  SpawnOverlap(&puts, &gets);
  rig_.env().Run();
  if (!res->done || !res->status.ok()) {
    return Fail("join failed: " + res->status.message());
  }
  ++stats_.joins;
  sched_.Note("join node=" + std::to_string(*id));
  return SettleOverlap(puts, gets, sizes_before);
}

Status ScenarioRunner::DoLeave() {
  const std::vector<uint32_t> live = cluster().LiveNodeIds();
  // Keep at least two live nodes, and only leave from a fully live
  // membership: RemoveNode refuses to drain toward a down owner.
  if (live.size() < 3 || live.size() != cluster().NodeIds().size()) {
    return TrafficOp();
  }
  const uint32_t id = live[sched_.Range("cluster.leave", 0, live.size() - 1)];
  auto res = std::make_shared<OpResult>();
  std::vector<std::pair<std::shared_ptr<OpResult>, std::string>> puts, gets;
  const auto sizes_before = model_;
  rig_.env().Spawn(DriveStatus(cluster().RemoveNode(id), res));
  SpawnOverlap(&puts, &gets);
  rig_.env().Run();
  if (!res->done || !res->status.ok()) {
    return Fail("leave of node " + std::to_string(id) +
                " failed: " + res->status.message());
  }
  ++stats_.leaves;
  sched_.Note("leave node=" + std::to_string(id));
  return SettleOverlap(puts, gets, sizes_before);
}

Status ScenarioRunner::DoCrash() {
  const std::vector<uint32_t> live = cluster().LiveNodeIds();
  if (live.size() < 2) return TrafficOp();  // keep one node serving
  const uint32_t id = live[sched_.Range("cluster.crash", 0, live.size() - 1)];
  if (const Status st = cluster().CrashNode(id); !st.ok()) {
    return Fail("crash of node " + std::to_string(id) +
                " failed: " + st.message());
  }
  ++stats_.crashes;
  sched_.Note("crash node=" + std::to_string(id));
  return Status::Ok();
}

Status ScenarioRunner::DoRejoin() {
  std::vector<uint32_t> down;
  for (const uint32_t id : cluster().NodeIds()) {
    const cluster::ClusterNode* n = cluster().node(id);
    if (n != nullptr && !n->up()) down.push_back(id);
  }
  if (down.empty()) return TrafficOp();
  const uint32_t id = down[sched_.Range("cluster.rejoin", 0, down.size() - 1)];
  auto res = std::make_shared<OpResult>();
  rig_.env().Spawn(DriveStatus(cluster().RejoinNode(id), res));
  rig_.env().Run();
  if (!res->done || !res->status.ok()) {
    return Fail("rejoin of node " + std::to_string(id) +
                " failed: " + res->status.message());
  }
  ++stats_.rejoins;
  sched_.Note("rejoin node=" + std::to_string(id));
  return Status::Ok();
}

Status ScenarioRunner::DoUpgrade() {
  ++version_;
  EnsureLabKvsRegistered(version_);
  auto res = std::make_shared<OpResult>();
  std::vector<std::pair<std::shared_ptr<OpResult>, std::string>> puts, gets;
  const auto sizes_before = model_;
  rig_.env().Spawn(DriveStatus(cluster().RollingUpgrade(version_), res));
  SpawnOverlap(&puts, &gets);
  rig_.env().Run();
  if (!res->done || !res->status.ok()) {
    return Fail("rolling upgrade to v" + std::to_string(version_) +
                " failed: " + res->status.message());
  }
  for (const uint32_t id : cluster().LiveNodeIds()) {
    cluster::ClusterNode* n = cluster().node(id);
    if (n->version() != version_) {
      return Fail("node " + std::to_string(id) + " missed upgrade to v" +
                  std::to_string(version_));
    }
    // The round ran the node Runtime's real upgrade protocol: its
    // quiesce must be fully released and its stack rebound.
    core::Runtime& runtime = n->rt().runtime();
    Status st = QuiesceCorrectnessInvariant::Check(runtime);
    if (st.ok()) st = NamespaceEpochCoherenceInvariant::Check(runtime);
    if (!st.ok()) {
      return Fail("node " + std::to_string(id) + " after upgrade to v" +
                  std::to_string(version_) + ": " + st.message());
    }
  }
  ++stats_.upgrades;
  sched_.Note("upgrade v=" + std::to_string(version_));
  return SettleOverlap(puts, gets, sizes_before);
}

Status ScenarioRunner::FinalAudit() {
  // Bring everything back and settle placement.
  for (const uint32_t id : cluster().NodeIds()) {
    const cluster::ClusterNode* n = cluster().node(id);
    if (n == nullptr || n->up()) continue;
    auto res = std::make_shared<OpResult>();
    rig_.env().Spawn(DriveStatus(cluster().RejoinNode(id), res));
    rig_.env().Run();
    if (!res->done || !res->status.ok()) {
      return Fail("final rejoin of node " + std::to_string(id) +
                  " failed: " + res->status.message());
    }
  }
  {
    auto res = std::make_shared<OpResult>();
    rig_.env().Spawn(DriveStatus(cluster().Rebalance(), res));
    rig_.env().Run();
    if (!res->done || !res->status.ok()) {
      return Fail("final rebalance failed: " + res->status.message());
    }
  }
  if (const Status st = cluster().CheckInvariants(/*strict=*/true);
      !st.ok()) {
    return Fail("strict invariants after convergence: " + st.message());
  }
  // Every node is up and placement has converged, so reads are now
  // authoritative: resolve the labels whose last mutation was lost.
  while (!indeterminate_.empty()) {
    const std::string label = indeterminate_.begin()->first;
    const MaybeState maybe = indeterminate_.begin()->second;
    const uint32_t gw = PickGateway("cluster.resolve_gw");
    if (gw == kNoGateway) return Fail("no live gateway for final audit");
    const uint32_t tenant = static_cast<uint32_t>(
        std::stoul(label.substr(1, label.find('/') - 1)));
    auto res = std::make_shared<OpResult>();
    rig_.env().Spawn(DriveOp(cluster(), ipc::OpCode::kGet, gw, tenant, label,
                             0, res));
    rig_.env().Run();
    if (!res->done) return Fail("resolving read of " + label + " hung");
    if (res->status.ok()) {
      if (maybe.sizes.count(res->size) == 0) {
        return Fail("resolving read of " + label +
                    " returned a size no lost mutation wrote");
      }
      Resolve(label, /*present=*/true, res->size);
    } else if (res->status.code() == StatusCode::kNotFound) {
      if (!maybe.may_be_absent) {
        return Fail("resolving read lost " + label +
                    " which must exist in some state");
      }
      Resolve(label, /*present=*/false, 0);
    } else {
      return Fail("resolving read of " + label +
                  " failed: " + res->status.ToString());
    }
  }
  // Byte-for-size read-back of every acked label, via schedule-drawn
  // gateways so forwarding is part of the audit too.
  for (const auto& [label, size] : model_) {
    const uint32_t gw = PickGateway("cluster.audit_gw");
    if (gw == kNoGateway) return Fail("no live gateway for final audit");
    auto res = std::make_shared<OpResult>();
    // Tenants are encoded in the label ("t<tenant>/...").
    const uint32_t tenant = static_cast<uint32_t>(
        std::stoul(label.substr(1, label.find('/') - 1)));
    rig_.env().Spawn(DriveOp(cluster(), ipc::OpCode::kGet, gw, tenant, label,
                             0, res));
    rig_.env().Run();
    if (!res->done || !res->status.ok()) {
      return Fail("final read-back of " + label +
                  " failed: " + res->status.ToString());
    }
    if (res->size != size) {
      return Fail("final read-back of " + label + " returned size " +
                  std::to_string(res->size) + ", acked " +
                  std::to_string(size));
    }
  }
  return CheckAfter("final audit");
}

Result<ClusterScenarioStats> ScenarioRunner::Run() {
  version_ = 1;
  for (size_t step = 0; step < opts_.num_steps; ++step) {
    ++stats_.steps;
    const uint64_t roll = sched_.Range("cluster.action", 0, 99);
    Status st;
    if (roll < 70) {
      st = TrafficOp();
    } else if (roll < 77) {
      st = DoJoin();
    } else if (roll < 84) {
      st = DoLeave();
    } else if (roll < 90) {
      st = DoCrash();
    } else if (roll < 96) {
      st = DoRejoin();
    } else {
      st = DoUpgrade();
    }
    if (!st.ok()) return st;
    if (const Status chk = CheckAfter("step " + std::to_string(step));
        !chk.ok()) {
      return chk;
    }
  }

  // Coverage floors: force what the stream missed, traffic in between.
  // Each Do* call below has its precondition established first, so
  // every loop iteration increments its stat and terminates.
  while (stats_.joins < opts_.min_joins &&
         cluster().NodeIds().size() < opts_.max_nodes) {
    LABSTOR_RETURN_IF_ERROR(TrafficOp());
    LABSTOR_RETURN_IF_ERROR(DoJoin());
    LABSTOR_RETURN_IF_ERROR(CheckAfter("forced join"));
  }
  while (stats_.crashes < opts_.min_crashes &&
         cluster().LiveNodeIds().size() >= 2) {
    LABSTOR_RETURN_IF_ERROR(TrafficOp());
    LABSTOR_RETURN_IF_ERROR(DoCrash());
    LABSTOR_RETURN_IF_ERROR(CheckAfter("forced crash"));
  }
  while (stats_.rejoins < opts_.min_rejoins) {
    if (cluster().LiveNodeIds().size() == cluster().NodeIds().size()) {
      if (cluster().LiveNodeIds().size() < 2) break;  // nothing to crash
      LABSTOR_RETURN_IF_ERROR(DoCrash());
    }
    LABSTOR_RETURN_IF_ERROR(TrafficOp());
    LABSTOR_RETURN_IF_ERROR(DoRejoin());
    LABSTOR_RETURN_IF_ERROR(CheckAfter("forced rejoin"));
  }
  while (stats_.leaves < opts_.min_leaves &&
         cluster().NodeIds().size() >= 3) {
    // Leave needs every member up; rejoin any crash leftovers first.
    while (cluster().LiveNodeIds().size() != cluster().NodeIds().size()) {
      LABSTOR_RETURN_IF_ERROR(DoRejoin());
    }
    LABSTOR_RETURN_IF_ERROR(TrafficOp());
    LABSTOR_RETURN_IF_ERROR(DoLeave());
    LABSTOR_RETURN_IF_ERROR(CheckAfter("forced leave"));
  }
  while (stats_.upgrades < opts_.min_upgrades) {
    LABSTOR_RETURN_IF_ERROR(TrafficOp());
    LABSTOR_RETURN_IF_ERROR(DoUpgrade());
    LABSTOR_RETURN_IF_ERROR(CheckAfter("forced upgrade"));
  }

  LABSTOR_RETURN_IF_ERROR(FinalAudit());

  stats_.forwarded = cluster().forwarded();
  stats_.fallback_reads = cluster().fallback_reads();
  stats_.final_version = version_;
  stats_.final_nodes = cluster().NodeIds().size();
  stats_.acked_labels = model_.size();
  return stats_;
}

}  // namespace

Result<ClusterScenarioStats> RunClusterScenario(
    ClusterRig& rig, Schedule& sched, const ClusterScenarioOptions& opts) {
  ScenarioRunner runner(rig, sched, opts);
  return runner.Run();
}

}  // namespace labstor::dst
