// Cluster: N simulated LabStor nodes under one DES, glued together by
// the ShardMap (label -> owner), the NetTransport (inter-node queues
// with a latency/bandwidth cost model), and the Rebalancer (ownership
// migration on membership change).
//
// Routing: a client submits to any *gateway* node. The gateway routes
// by its own (possibly stale) RCU shard-map snapshot; if it is not the
// owner, the request is forwarded over the transport. A node adopts
// the latest published map whenever a message reaches it, so a
// forwarded request is re-routed with fresh information at every hop —
// generations only move forward, which keeps forwarding loop-free and
// bounds the hop count (the `forward_loops` counter must stay 0; the
// DST invariants check it). Reads that miss at the new owner during a
// migration take one non-recursive fallback hop to the previous map's
// owner ("ask the new, fall back to the old").
//
// The cluster keeps an `acked` ledger — label -> size for every write
// *applied at its owner* (including applied-but-unacked writes whose
// response hop to the gateway died) — used ONLY by CheckInvariants()
// as the ground-truth model: applied writes must survive crashes,
// rejoins, rolling upgrades, and shard migration. Planning and routing
// never read it; they operate on the real node stores and shard map.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/rebalancer.h"
#include "cluster/shard_map.h"
#include "cluster/transport.h"
#include "sim/environment.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"

namespace labstor::cluster {

struct ClusterConfig {
  uint32_t initial_nodes = 4;
  uint32_t virtual_nodes = ShardMap::kDefaultVirtualNodes;
  size_t workers_per_node = 2;
  uint64_t node_device_bytes = 32ull << 20;
  uint64_t log_records_per_worker = 8192;
  // A forwarded request gives up after this many hops (invariant: with
  // monotone map adoption, two hops always suffice). At most
  // Cluster::kMaxForwardHops.
  uint32_t max_forward_hops = 3;
  sim::NetworkCosts net_costs = sim::DefaultNetworkCosts();
  // How many plan/execute rounds Rebalance() runs before declaring the
  // cluster unable to converge.
  uint32_t max_rebalance_rounds = 8;
};

struct NodeInfo {
  uint32_t id = 0;
  bool up = false;
  bool draining = false;
  uint32_t version = 0;  // of the node's labkvs instance
  uint64_t map_generation = 0;
  uint64_t labels = 0;
  uint64_t executed = 0;
  size_t net_queue_depth = 0;
};

struct Topology {
  uint64_t map_generation = 0;
  uint32_t virtual_nodes = 0;
  std::vector<NodeInfo> nodes;
  uint64_t acked_labels = 0;
  uint64_t forwarded = 0;
  uint64_t fallback_reads = 0;
  uint64_t forward_loops = 0;
  uint64_t migrated = 0;
  uint64_t migration_bytes = 0;
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  uint64_t chains_registered = 0;
  uint64_t chain_execs = 0;
  uint64_t chain_steps = 0;
};

class Cluster {
 public:
  static constexpr uint32_t kClientQidBase = 100;
  // Capacity of the per-request visited list Route keeps in its frame.
  static constexpr uint32_t kMaxForwardHops = 8;

  Cluster(sim::Environment& env, ClusterConfig config,
          telemetry::Telemetry* tel = nullptr);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Status init_status() const { return init_status_; }

  // --- client operations (submit at any live gateway node) ---
  sim::Task<Status> Put(uint32_t gateway, uint32_t tenant,
                        const std::string& label, uint64_t size);
  // Put carrying real value bytes (pointer-chase chains dereference
  // stored content, so it must reach the owner's device store).
  sim::Task<Status> PutBytes(uint32_t gateway, uint32_t tenant,
                             const std::string& label,
                             std::vector<uint8_t> bytes);
  sim::Task<Status> Get(uint32_t gateway, uint32_t tenant,
                        const std::string& label,
                        uint64_t* size_out = nullptr);
  sim::Task<Status> Delete(uint32_t gateway, uint32_t tenant,
                           const std::string& label);

  // --- pushdown chains (DESIGN.md §12) ---
  // Registers the program on every live member; later joiners and
  // rejoiners pick it up automatically, so a migrated label's owner
  // can always execute it. Cluster chains must confine mutation to
  // the start label (the routing key): that is what the acked ledger
  // tracks.
  Status RegisterChain(const ipc::ChainProgram& program);
  // Route a chain execution to the owner of `start_label` and run the
  // WHOLE chain there: one forwarded hop (at most) instead of one
  // round trip per dependent step. `steps_out` reports steps run.
  sim::Task<Status> ExecChain(uint32_t gateway, uint32_t tenant,
                              uint32_t chain_id,
                              const std::string& start_label,
                              uint64_t* size_out = nullptr,
                              uint32_t* steps_out = nullptr);

  // --- membership / lifecycle ---
  // Adds a fresh node, publishes the widened map, migrates shards onto
  // it. Returns the new node id via `id_out`.
  sim::Task<Status> AddNode(uint32_t* id_out = nullptr);
  // Graceful leave: publishes the narrowed map, migrates shards off,
  // then retires the node.
  sim::Task<Status> RemoveNode(uint32_t id);
  // Abrupt failure: node goes dark, membership unchanged — its shards
  // are unavailable until RejoinNode replays the metadata log.
  Status CrashNode(uint32_t id);
  // Restart after a crash (real StateRepair log replay), then a
  // rebalance round to shed any labels whose ownership moved while the
  // node was down.
  sim::Task<Status> RejoinNode(uint32_t id);
  // Per-node quiesce -> labkvs live upgrade to `new_version` through
  // the node Runtime's ModuleManager -> resume, in node-id order; the
  // shard map keeps every other node serving while one drains. A
  // crashed node is skipped; it rejoins on its old version and the
  // next round upgrades it.
  sim::Task<Status> RollingUpgrade(uint32_t new_version);
  // Plan/execute migration rounds against the latest published map
  // until no step remains (or the round budget is exhausted).
  sim::Task<Status> Rebalance();

  // --- introspection / invariants ---
  ClusterNode* node(uint32_t id);
  const ClusterNode* node(uint32_t id) const;
  std::vector<uint32_t> NodeIds() const;  // members, ascending
  std::vector<uint32_t> LiveNodeIds() const;
  std::shared_ptr<const ShardMap> map() const { return publisher_.Load(); }
  NetTransport& net() { return net_; }
  Rebalancer& rebalancer() { return rebalancer_; }
  const std::map<std::string, uint64_t>& acked() const { return acked_; }
  uint64_t forwarded() const { return forwarded_; }
  uint64_t fallback_reads() const { return fallback_reads_; }
  uint64_t forward_loops() const { return forward_loops_; }
  Topology GetTopology() const;

  // Always-on cluster invariants, checked at quiescent points:
  //  * cluster.single_owner      — the published map maps every label to
  //    exactly one member node (and only member nodes);
  //  * cluster.no_lost_acked_writes — every acked write is held, at its
  //    acked size, by at least one node (a down node's store counts: it
  //    is durable and comes back via log replay);
  //  * cluster.loop_free_forwarding — forward_loops() is still 0;
  //  * cluster.monotone_generations — publisher and per-node map
  //    generations never move backwards.
  // `strict` adds the post-convergence placement check (all nodes up,
  // rebalance converged): every acked label has exactly one holder and
  // it is the map owner, and no node holds a label it does not own.
  Status CheckInvariants(bool strict = false);

 private:
  sim::Task<Status> Route(uint32_t gateway, uint32_t tenant, ipc::OpCode op,
                          const std::string& label, uint64_t size,
                          uint64_t* size_out,
                          const std::vector<uint8_t>* payload = nullptr,
                          uint32_t chain_id = 0, uint32_t* steps_out = nullptr);
  Status PublishMembers(const std::vector<uint32_t>& members);
  std::vector<ClusterNode*> AllNodes() const;
  Status AddNodeInternal(uint32_t* id_out);
  telemetry::LatencyHistogram* TenantHistogram(uint32_t tenant);

  sim::Environment& env_;
  ClusterConfig config_;
  Status init_status_;
  telemetry::Telemetry* tel_;

  NetTransport net_;
  Rebalancer rebalancer_;
  ShardMapPublisher publisher_;
  // The map published before the current one — read-fallback source for
  // nodes (fresh joiners) that have no previous map of their own.
  std::shared_ptr<const ShardMap> prev_published_;
  std::map<uint32_t, std::unique_ptr<ClusterNode>> nodes_;
  // Gracefully removed nodes park here instead of being destroyed:
  // client coroutines suspended inside a node's runtime may still hold
  // references, and the invariant checker scans these stores too.
  std::vector<std::unique_ptr<ClusterNode>> retired_;
  uint32_t next_node_id_ = 0;
  uint64_t next_generation_ = 1;

  // Invariant model: label -> applied size (tenant is telemetry-only).
  std::map<std::string, uint64_t> acked_;
  uint64_t last_checked_generation_ = 0;
  // Cluster-issued version for every acked mutation: the total order
  // migration uses to resolve value-vs-value and value-vs-tombstone
  // conflicts from copies stranded on down nodes.
  uint64_t mutation_clock_ = 0;

  uint64_t forwarded_ = 0;
  uint64_t fallback_reads_ = 0;
  uint64_t forward_loops_ = 0;

  // Registered chain programs, re-broadcast to joiners/rejoiners.
  std::map<uint32_t, ipc::ChainProgram> chain_programs_;
  uint64_t chain_execs_ = 0;
  uint64_t chain_steps_ = 0;

  telemetry::Counter* ops_counter_ = nullptr;
  telemetry::Counter* forwarded_counter_ = nullptr;
  telemetry::Counter* fallback_counter_ = nullptr;
  telemetry::LatencyHistogram* hops_hist_ = nullptr;
  std::map<uint32_t, telemetry::LatencyHistogram*> tenant_hists_;
};

}  // namespace labstor::cluster
