#include "cluster/cluster.h"

#include <algorithm>
#include <array>

namespace labstor::cluster {

Cluster::Cluster(sim::Environment& env, ClusterConfig config,
                 telemetry::Telemetry* tel)
    : env_(env),
      config_(config),
      tel_(tel),
      net_(env, config_.net_costs),
      rebalancer_(env, net_) {
  if (config_.initial_nodes == 0) {
    init_status_ = Status::InvalidArgument("cluster needs at least one node");
    return;
  }
  if (config_.max_forward_hops > kMaxForwardHops) {
    init_status_ = Status::InvalidArgument(
        "max_forward_hops " + std::to_string(config_.max_forward_hops) +
        " exceeds " + std::to_string(kMaxForwardHops));
    return;
  }
  for (uint32_t i = 0; i < config_.initial_nodes; ++i) {
    if (const Status st = AddNodeInternal(nullptr); !st.ok()) {
      init_status_ = st;
      return;
    }
  }
  if (const Status st = PublishMembers(NodeIds()); !st.ok()) {
    init_status_ = st;
    return;
  }
  if (tel_ != nullptr) {
    net_.AttachTelemetry(tel_);
    ops_counter_ = tel_->metrics().GetCounter("cluster.ops");
    forwarded_counter_ = tel_->metrics().GetCounter("cluster.forwarded");
    fallback_counter_ = tel_->metrics().GetCounter("cluster.fallback_reads");
    hops_hist_ = tel_->metrics().GetHistogram("cluster.forward_hops");
  }
  init_status_ = Status::Ok();
}

Status Cluster::AddNodeInternal(uint32_t* id_out) {
  const uint32_t id = next_node_id_++;
  ClusterNode::Options opts;
  opts.workers = config_.workers_per_node;
  opts.device_bytes = config_.node_device_bytes;
  opts.log_records_per_worker = config_.log_records_per_worker;
  auto node = std::make_unique<ClusterNode>(env_, id, opts);
  LABSTOR_RETURN_IF_ERROR(node->init_status());
  // Chains follow the data: a joiner may become owner of a label whose
  // chains were registered before it existed.
  for (const auto& [cid, program] : chain_programs_) {
    LABSTOR_RETURN_IF_ERROR(node->RegisterChain(program));
  }
  net_.RegisterNode(id);
  nodes_[id] = std::move(node);
  if (id_out != nullptr) *id_out = id;
  return Status::Ok();
}

Status Cluster::PublishMembers(const std::vector<uint32_t>& members) {
  auto map = ShardMap::Build(next_generation_++, members,
                             config_.virtual_nodes);
  prev_published_ = publisher_.Load();
  if (!publisher_.Publish(map)) {
    return Status::Internal("shard map publish regressed generation");
  }
  // Live nodes adopt eagerly; crashed nodes stay stale until rejoin
  // (forwarding + the previous-map read fallback cover the gap).
  for (auto& [id, node] : nodes_) {
    if (node->up()) node->AdoptMap(map);
  }
  return Status::Ok();
}

std::vector<ClusterNode*> Cluster::AllNodes() const {
  std::vector<ClusterNode*> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(node.get());
  return out;
}

ClusterNode* Cluster::node(uint32_t id) {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const ClusterNode* Cluster::node(uint32_t id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<uint32_t> Cluster::NodeIds() const {
  std::vector<uint32_t> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  return ids;
}

std::vector<uint32_t> Cluster::LiveNodeIds() const {
  std::vector<uint32_t> ids;
  for (const auto& [id, node] : nodes_) {
    if (node->up()) ids.push_back(id);
  }
  return ids;
}

telemetry::LatencyHistogram* Cluster::TenantHistogram(uint32_t tenant) {
  if (tel_ == nullptr) return nullptr;
  auto it = tenant_hists_.find(tenant);
  if (it != tenant_hists_.end()) return it->second;
  telemetry::LatencyHistogram* hist = tel_->metrics().GetHistogram(
      "cluster.tenant" + std::to_string(tenant) + ".latency_ns");
  tenant_hists_[tenant] = hist;
  return hist;
}

sim::Task<Status> Cluster::Route(uint32_t gateway, uint32_t tenant,
                                 ipc::OpCode op, const std::string& label,
                                 uint64_t size, uint64_t* size_out,
                                 const std::vector<uint8_t>* payload,
                                 uint32_t chain_id, uint32_t* steps_out) {
  const sim::Time t0 = env_.now();
  ClusterNode* current = node(gateway);
  if (current == nullptr) {
    // The gateway retired (graceful leave) between the client choosing
    // it and the request starting: a connection-level failure.
    co_return Status::Unavailable("gateway node " + std::to_string(gateway) +
                                  " is no longer a member");
  }
  const uint32_t qid = kClientQidBase + tenant;
  uint32_t hops = 0;
  // visited[0..hops]: the gateway, then the node each hop reached.
  std::array<uint32_t, kMaxForwardHops + 1> visited{gateway};
  for (;;) {
    if (!current->up()) {
      co_return Status::Unavailable("node " + std::to_string(current->id()) +
                                    " is down");
    }
    auto map = current->map();
    if (map == nullptr) {
      co_return Status::Internal("node has no shard map");
    }
    const uint32_t owner = map->OwnerOfLabel(label);
    if (owner == ShardMap::kNoOwner) {
      co_return Status::FailedPrecondition("shard map has no nodes");
    }
    if (owner == current->id()) break;  // this node serves the label
    // Forward toward the owner this node believes in.
    if (hops >= config_.max_forward_hops ||
        std::find(visited.begin(), visited.begin() + hops + 1, owner) !=
            visited.begin() + hops + 1) {
      ++forward_loops_;
      co_return Status::Internal("forwarding loop for label " + label);
    }
    ClusterNode* next = node(owner);
    if (next == nullptr) {
      // An in-flight request can hold a map snapshot from before a
      // graceful leave; its owner has since retired.
      co_return Status::Unavailable("owner node " + std::to_string(owner) +
                                    " retired under a stale shard map");
    }
    LABSTOR_CO_RETURN_IF_ERROR(co_await net_.Send(
        current->id(), owner, op == ipc::OpCode::kPut ? size : 0));
    // Gossip-on-message: arriving traffic refreshes the receiver.
    next->AdoptMap(publisher_.Load());
    visited[++hops] = owner;
    ++forwarded_;
    if (forwarded_counter_ != nullptr) forwarded_counter_->Inc(gateway);
    current = next;
  }

  Status st;
  uint32_t steps = 0;
  if (op == ipc::OpCode::kChainExec) {
    // The whole chain executes at the owner: dependent hops resubmit
    // inside its pushdown mod instead of coming back over the wire.
    st = co_await current->ExecChain(qid, chain_id, label, size_out, &steps);
  } else if (op == ipc::OpCode::kPut && payload != nullptr) {
    st = co_await current->PutBytes(qid, label, *payload);
  } else if (op == ipc::OpCode::kPut) {
    st = co_await current->Put(qid, label, size);
  } else if (op == ipc::OpCode::kDelete) {
    st = co_await current->Delete(qid, label);
  } else {
    st = co_await current->Get(qid, label, size_out);
  }

  // Model bookkeeping keys off *execution* at the owner, not the
  // client-visible status: a mutation whose response hop dies later is
  // applied-but-unacked — it exists durably and the omniscient ledger
  // must say so, or the placement check would flag it as a stray copy.
  if (st.ok()) {
    if (op == ipc::OpCode::kPut) {
      acked_[label] = size;
      current->SetRecordVersion(label, ++mutation_clock_);
    } else if (op == ipc::OpCode::kDelete) {
      acked_.erase(label);
      current->SetTombstone(label, ++mutation_clock_);
    } else if (op == ipc::OpCode::kChainExec) {
      ++chain_execs_;
      chain_steps_ += steps;
      // A mutating chain rewrites its start label at the owner; keep
      // the omniscient ledger in step with what was applied.
      const auto it = chain_programs_.find(chain_id);
      if (it != chain_programs_.end() && it->second.Mutates()) {
        if (const auto sz = current->ValueSize(label); sz.ok()) {
          acked_[label] = *sz;
          current->SetRecordVersion(label, ++mutation_clock_);
        }
      }
    }
  }

  // Migration window: the new owner may not hold the label yet. One
  // non-recursive fallback hop asks the previous map's owner. A
  // tombstone at the owner makes the NotFound authoritative (the
  // delete was acked here); falling back would read a stale copy.
  if (op == ipc::OpCode::kGet && st.code() == StatusCode::kNotFound &&
      current->TombstoneVersion(label) == 0) {
    auto prev = current->prev_map();
    // A freshly joined node has no previous map of its own — the first
    // map it ever adopted already names it owner. Fall back to the map
    // the cluster published before the current one.
    if (prev == nullptr) prev = prev_published_;
    const uint32_t prev_owner =
        prev == nullptr ? ShardMap::kNoOwner : prev->OwnerOfLabel(label);
    if (prev_owner != ShardMap::kNoOwner && prev_owner != current->id()) {
      ClusterNode* old_node = node(prev_owner);
      if (old_node != nullptr && old_node->up()) {
        const Status sent =
            co_await net_.Send(current->id(), prev_owner, 0);
        if (sent.ok()) {
          const Status fb = co_await old_node->Get(qid, label, size_out);
          if (fb.ok()) {
            st = fb;
            ++fallback_reads_;
            if (fallback_counter_ != nullptr) fallback_counter_->Inc(gateway);
            current = old_node;  // response hop departs from here
          }
        }
      }
    }
  }

  // Response back to the gateway the client is connected to.
  if (st.ok() && current->id() != gateway) {
    const uint64_t resp_bytes =
        ((op == ipc::OpCode::kGet || op == ipc::OpCode::kChainExec) &&
         size_out != nullptr)
            ? *size_out
            : 0;
    const Status resp =
        co_await net_.Send(current->id(), gateway, resp_bytes);
    if (!resp.ok()) {
      co_return Status::Unavailable("gateway " + std::to_string(gateway) +
                                    " lost before response");
    }
  }

  // A NotFound while a member is dark is not authoritative: the label
  // may be stranded on the down node (migration skips down sources).
  // Absence is certified by a fully live membership or by a tombstone
  // at the owner (the acked delete travels with ownership).
  if (op == ipc::OpCode::kGet && st.code() == StatusCode::kNotFound &&
      current->TombstoneVersion(label) == 0 &&
      LiveNodeIds().size() != nodes_.size()) {
    st = Status::Unavailable("cannot certify absence of '" + label +
                             "': a member node is down");
  }

  if (ops_counter_ != nullptr) ops_counter_->Inc(gateway);
  if (hops_hist_ != nullptr) hops_hist_->Record(hops, gateway);
  if (auto* hist = TenantHistogram(tenant); hist != nullptr) {
    hist->Record(env_.now() - t0, gateway);
  }
  if (steps_out != nullptr) *steps_out = steps;
  co_return st;
}

sim::Task<Status> Cluster::Put(uint32_t gateway, uint32_t tenant,
                               const std::string& label, uint64_t size) {
  return Route(gateway, tenant, ipc::OpCode::kPut, label, size, nullptr);
}

sim::Task<Status> Cluster::PutBytes(uint32_t gateway, uint32_t tenant,
                                    const std::string& label,
                                    std::vector<uint8_t> bytes) {
  // `bytes` lives in this frame until Route completes.
  co_return co_await Route(gateway, tenant, ipc::OpCode::kPut, label,
                           bytes.size(), nullptr, &bytes);
}

Status Cluster::RegisterChain(const ipc::ChainProgram& program) {
  LABSTOR_RETURN_IF_ERROR(program.Validate());
  for (const auto& [id, n] : nodes_) {
    if (n->up()) LABSTOR_RETURN_IF_ERROR(n->RegisterChain(program));
  }
  chain_programs_[program.id] = program;
  return Status::Ok();
}

sim::Task<Status> Cluster::ExecChain(uint32_t gateway, uint32_t tenant,
                                     uint32_t chain_id,
                                     const std::string& start_label,
                                     uint64_t* size_out, uint32_t* steps_out) {
  return Route(gateway, tenant, ipc::OpCode::kChainExec, start_label, 0,
               size_out, nullptr, chain_id, steps_out);
}

sim::Task<Status> Cluster::Get(uint32_t gateway, uint32_t tenant,
                               const std::string& label, uint64_t* size_out) {
  return Route(gateway, tenant, ipc::OpCode::kGet, label, 0, size_out);
}

sim::Task<Status> Cluster::Delete(uint32_t gateway, uint32_t tenant,
                                  const std::string& label) {
  return Route(gateway, tenant, ipc::OpCode::kDelete, label, 0, nullptr);
}

sim::Task<Status> Cluster::AddNode(uint32_t* id_out) {
  uint32_t id = 0;
  LABSTOR_CO_RETURN_IF_ERROR(AddNodeInternal(&id));
  LABSTOR_CO_RETURN_IF_ERROR(PublishMembers(NodeIds()));
  if (id_out != nullptr) *id_out = id;
  co_return co_await Rebalance();
}

sim::Task<Status> Cluster::RemoveNode(uint32_t id) {
  ClusterNode* leaving = node(id);
  if (leaving == nullptr) {
    co_return Status::NotFound("node " + std::to_string(id) +
                               " is not a member");
  }
  if (!leaving->up()) {
    co_return Status::FailedPrecondition(
        "crashed node cannot leave gracefully; rejoin it first");
  }
  if (nodes_.size() == 1) {
    co_return Status::FailedPrecondition("cannot remove the last node");
  }
  // The leaver's shards drain onto their new owners; any of those may
  // be any member, so a graceful leave needs a fully live membership —
  // refused up front, before any state changes.
  if (LiveNodeIds().size() != nodes_.size()) {
    co_return Status::FailedPrecondition(
        "graceful leave requires all members up: shards cannot drain to a "
        "down owner");
  }
  std::vector<uint32_t> members;
  for (const uint32_t m : NodeIds()) {
    if (m != id) members.push_back(m);
  }
  // Narrow the map first so new writes route elsewhere, then drain the
  // leaver's shards onto their new owners.
  LABSTOR_CO_RETURN_IF_ERROR(PublishMembers(members));
  leaving->AdoptMap(publisher_.Load());
  LABSTOR_CO_RETURN_IF_ERROR(co_await Rebalance());
  if (leaving->label_count() != 0) {
    co_return Status::Internal("leaving node still holds labels");
  }
  if (leaving->tombstone_count() != 0) {
    co_return Status::Internal("leaving node still holds tombstones");
  }
  LABSTOR_CO_RETURN_IF_ERROR(co_await leaving->Quiesce());
  // Release any arrivals held during the drain as Unavailable, then
  // park the object: suspended coroutines may still reference it.
  leaving->Crash();
  net_.SetNodeUp(id, false);
  auto it = nodes_.find(id);
  retired_.push_back(std::move(it->second));
  nodes_.erase(it);
  co_return Status::Ok();
}

Status Cluster::CrashNode(uint32_t id) {
  ClusterNode* victim = node(id);
  if (victim == nullptr) {
    return Status::NotFound("node " + std::to_string(id) + " is not a member");
  }
  if (!victim->up()) {
    return Status::FailedPrecondition("node is already down");
  }
  victim->Crash();
  net_.SetNodeUp(id, false);
  return Status::Ok();
}

sim::Task<Status> Cluster::RejoinNode(uint32_t id) {
  ClusterNode* joining = node(id);
  if (joining == nullptr) {
    co_return Status::NotFound("node " + std::to_string(id) +
                               " is not a member");
  }
  LABSTOR_CO_RETURN_IF_ERROR(joining->Restart());
  net_.SetNodeUp(id, true);
  joining->AdoptMap(publisher_.Load());
  // Re-broadcast registered chains (idempotent for ones it still has).
  for (const auto& [cid, program] : chain_programs_) {
    LABSTOR_CO_RETURN_IF_ERROR(joining->RegisterChain(program));
  }
  // Membership may have changed while the node was dark: shed labels
  // whose ownership moved, and dedupe copies re-created elsewhere.
  co_return co_await Rebalance();
}

sim::Task<Status> Cluster::RollingUpgrade(uint32_t new_version) {
  for (const uint32_t id : NodeIds()) {
    ClusterNode* n = node(id);
    // A crashed node is skipped; rejoining does not upgrade it, the
    // next round does.
    if (n == nullptr || !n->up()) continue;
    LABSTOR_CO_RETURN_IF_ERROR(co_await n->Quiesce());
    // Software swap window: the node is admission-held but the shard
    // map keeps every other node serving.
    co_await env_.Delay(50 * sim::kUs);
    const Status upgraded = n->Upgrade(new_version);
    n->Resume();
    LABSTOR_CO_RETURN_IF_ERROR(upgraded);
  }
  co_return Status::Ok();
}

sim::Task<Status> Cluster::Rebalance() {
  for (uint32_t round = 0; round < config_.max_rebalance_rounds; ++round) {
    auto target = publisher_.Load();
    if (target == nullptr) {
      co_return Status::Internal("no published shard map");
    }
    const std::vector<ClusterNode*> all = AllNodes();
    for (ClusterNode* n : all) {
      if (n->up()) n->AdoptMap(target);
    }
    const std::vector<MigrationStep> plan = Rebalancer::Plan(all, *target);
    if (plan.empty()) co_return Status::Ok();
    LABSTOR_CO_RETURN_IF_ERROR(co_await rebalancer_.Execute(plan, all));
  }
  co_return Status::Internal("rebalance did not converge");
}

Topology Cluster::GetTopology() const {
  Topology topo;
  auto map = publisher_.Load();
  topo.map_generation = map == nullptr ? 0 : map->generation();
  topo.virtual_nodes = config_.virtual_nodes;
  for (const auto& [id, n] : nodes_) {
    NodeInfo info;
    info.id = id;
    info.up = n->up();
    info.draining = n->draining();
    info.version = n->version();
    info.map_generation = n->map_generation();
    info.labels = n->label_count();
    info.executed = n->executed();
    info.net_queue_depth = net_.QueueDepth(id);
    topo.nodes.push_back(info);
  }
  topo.acked_labels = acked_.size();
  topo.forwarded = forwarded_;
  topo.fallback_reads = fallback_reads_;
  topo.forward_loops = forward_loops_;
  topo.migrated = rebalancer_.migrated();
  topo.migration_bytes = rebalancer_.bytes_moved();
  topo.net_messages = net_.messages();
  topo.net_bytes = net_.bytes();
  topo.chains_registered = chain_programs_.size();
  topo.chain_execs = chain_execs_;
  topo.chain_steps = chain_steps_;
  return topo;
}

Status Cluster::CheckInvariants(bool strict) {
  // cluster.monotone_generations
  auto map = publisher_.Load();
  if (map == nullptr) {
    return Status::Internal("cluster.single_owner: no published shard map");
  }
  if (map->generation() < last_checked_generation_) {
    return Status::Internal(
        "cluster.monotone_generations: publisher went backwards");
  }
  last_checked_generation_ = map->generation();
  for (const auto& [id, n] : nodes_) {
    if (n->map_generation() > map->generation()) {
      return Status::Internal(
          "cluster.monotone_generations: node " + std::to_string(id) +
          " is ahead of the publisher");
    }
  }

  // cluster.single_owner: the map is a function onto member nodes.
  if (map->nodes().empty()) {
    return Status::Internal("cluster.single_owner: published map is empty");
  }
  for (const uint32_t id : map->nodes()) {
    if (nodes_.find(id) == nodes_.end()) {
      return Status::Internal("cluster.single_owner: map names non-member " +
                              std::to_string(id));
    }
  }

  // cluster.loop_free_forwarding
  if (forward_loops_ != 0) {
    return Status::Internal(
        "cluster.loop_free_forwarding: a request looped or exceeded the "
        "hop bound");
  }

  // cluster.no_lost_acked_writes: every acked label is held somewhere
  // at its acked size. A down node's store counts — it is durable and
  // comes back through metadata-log replay on rejoin.
  for (const auto& [label, size] : acked_) {
    bool held = false;
    for (const auto& [id, n] : nodes_) {
      const auto sz = n->ValueSize(label);
      if (sz.ok() && *sz == size) {
        held = true;
        break;
      }
    }
    if (!held) {
      for (const auto& n : retired_) {
        const auto sz = n->ValueSize(label);
        if (sz.ok() && *sz == size) {
          held = true;
          break;
        }
      }
    }
    if (!held) {
      return Status::Internal("cluster.no_lost_acked_writes: label '" +
                              label + "' lost");
    }
  }

  if (!strict) return Status::Ok();

  // Post-convergence placement: exactly one live holder per acked
  // label, and it is the map owner; no node holds a label it does not
  // own. Callers assert this only after Rebalance() converged with all
  // members up.
  for (const auto& [label, size] : acked_) {
    const uint32_t owner = map->OwnerOfLabel(label);
    uint32_t holders = 0;
    bool owner_holds = false;
    for (const auto& [id, n] : nodes_) {
      if (!n->up() || !n->Has(label)) continue;
      ++holders;
      if (id == owner) owner_holds = true;
    }
    if (holders != 1 || !owner_holds) {
      return Status::Internal(
          "cluster.placement: label '" + label + "' has " +
          std::to_string(holders) + " live holders (owner " +
          std::to_string(owner) + (owner_holds ? " holds)" : " missing)"));
    }
  }
  for (const auto& [id, n] : nodes_) {
    if (!n->up()) continue;
    for (const std::string& label : n->Labels()) {
      if (acked_.find(label) == acked_.end()) {
        return Status::Internal("cluster.placement: node " +
                                std::to_string(id) +
                                " holds unacked label '" + label + "'");
      }
      if (map->OwnerOfLabel(label) != id) {
        return Status::Internal("cluster.placement: node " +
                                std::to_string(id) +
                                " holds label '" + label +
                                "' it does not own");
      }
    }
  }
  return Status::Ok();
}

}  // namespace labstor::cluster
