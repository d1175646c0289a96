// Distributed cluster suite (src/cluster, DESIGN.md §10): shard-map
// properties, label routing across gateways, membership churn, crash
// recovery, rolling upgrades — and the DST side: a crash enumerated at
// every migration sub-step, byte-identical seed replay, and the
// 8-node acceptance scenario swept over the seed list.
//
// Own main (like dst_test): dst::InitSeeds strips --dst_seed /
// --dst_random_seeds before gtest parses argv, so CI can replay a
// failing cluster run (`test_cluster --dst_seed=0x...`) or widen the
// sweep (`test_cluster --dst_random_seeds=25`).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/shard_map.h"
#include "dst/cluster_scenario.h"
#include "dst/rigs.h"
#include "dst/schedule.h"

namespace labstor::cluster {
namespace {

using dst::ClusterRig;
using dst::ClusterScenarioOptions;
using dst::RunClusterScenario;
using dst::Schedule;
using dst::SeedList;

std::vector<std::string> TestLabels(size_t n) {
  std::vector<std::string> labels;
  labels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    labels.push_back("t" + std::to_string(i % 4) + "/obj" + std::to_string(i));
  }
  return labels;
}

std::map<uint32_t, size_t> OwnerCounts(const ShardMap& map,
                                       const std::vector<std::string>& labels) {
  std::map<uint32_t, size_t> counts;
  for (const std::string& label : labels) ++counts[map.OwnerOfLabel(label)];
  return counts;
}

// ---------------------------------------------------------------------------
// ShardMap properties.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, BalancesLabelsWithinBound) {
  const auto labels = TestLabels(1000);
  auto map = ShardMap::Build(1, {0, 1, 2, 3, 4, 5, 6, 7});
  ASSERT_NE(map, nullptr);
  const auto counts = OwnerCounts(*map, labels);
  ASSERT_EQ(counts.size(), 8u) << "every node owns at least one label";
  const double mean = 1000.0 / 8.0;
  for (const auto& [node, count] : counts) {
    EXPECT_LT(static_cast<double>(count), 2.0 * mean)
        << "node " << node << " owns " << count << " of 1000";
    EXPECT_GT(static_cast<double>(count), mean / 3.0)
        << "node " << node << " owns " << count << " of 1000";
  }
}

TEST(ShardMapTest, JoinMovesLabelsOnlyToNewNode) {
  const auto labels = TestLabels(1000);
  auto before = ShardMap::Build(1, {0, 1, 2, 3, 4, 5, 6, 7});
  auto after = ShardMap::Build(2, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  size_t moved = 0;
  for (const std::string& label : labels) {
    const uint32_t a = before->OwnerOfLabel(label);
    const uint32_t b = after->OwnerOfLabel(label);
    if (a != b) {
      ++moved;
      // Minimal movement: a join may only move labels TO the joiner.
      EXPECT_EQ(b, 8u) << "label " << label << " moved " << a << "->" << b;
    }
  }
  EXPECT_GT(moved, 0u);
  // Expected share is 1000/9 ~= 111; allow 2x slack for hash variance.
  EXPECT_LT(moved, 2 * 1000 / 9);
}

TEST(ShardMapTest, LeaveMovesLabelsOnlyFromRemovedNode) {
  const auto labels = TestLabels(1000);
  auto before = ShardMap::Build(1, {0, 1, 2, 3, 4, 5, 6, 7});
  auto after = ShardMap::Build(2, {0, 1, 2, 4, 5, 6, 7});  // node 3 left
  for (const std::string& label : labels) {
    const uint32_t a = before->OwnerOfLabel(label);
    const uint32_t b = after->OwnerOfLabel(label);
    if (a != 3) {
      EXPECT_EQ(a, b) << "label " << label
                      << " moved although its owner did not leave";
    } else {
      EXPECT_NE(b, 3u);
    }
  }
}

TEST(ShardMapTest, BuildIsDeterministic) {
  auto a = ShardMap::Build(7, {2, 5, 9});
  auto b = ShardMap::Build(7, {9, 2, 5, 2});  // dup + order must not matter
  ASSERT_EQ(a->ring_points(), b->ring_points());
  for (const std::string& label : TestLabels(200)) {
    EXPECT_EQ(a->OwnerOfLabel(label), b->OwnerOfLabel(label));
  }
}

TEST(ShardMapTest, PublisherRejectsStaleGenerations) {
  ShardMapPublisher pub;
  EXPECT_TRUE(pub.Publish(ShardMap::Build(1, {0, 1})));
  EXPECT_FALSE(pub.Publish(ShardMap::Build(1, {0, 1, 2})));
  EXPECT_TRUE(pub.Publish(ShardMap::Build(2, {0, 1, 2})));
  EXPECT_EQ(pub.Load()->generation(), 2u);
}

// ---------------------------------------------------------------------------
// Cluster routing and membership.
// ---------------------------------------------------------------------------

// Drives one coroutine to completion on the rig's environment.
template <typename MakeTask>
Status Drive(ClusterRig& rig, MakeTask make_task) {
  auto status = std::make_shared<Status>();
  auto wrap = [](sim::Task<Status> task,
                 std::shared_ptr<Status> out) -> sim::Task<void> {
    *out = co_await std::move(task);
  };
  rig.env().Spawn(wrap(make_task(), status));
  rig.env().Run();
  return *status;
}

TEST(ClusterTest, ForwardingReachesOwnerFromAnyGateway) {
  ClusterConfig config;
  config.initial_nodes = 4;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  Cluster& cluster = (*rig)->cluster();

  for (uint32_t g = 0; g < 4; ++g) {
    const std::string label = "t0/from_gw" + std::to_string(g);
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Put(g, 0, label, 4096);
                }).ok());
    // Readable from every other gateway, size intact.
    for (uint32_t r = 0; r < 4; ++r) {
      auto size = std::make_shared<uint64_t>(0);
      ASSERT_TRUE(Drive(**rig, [&] {
                    return cluster.Get(r, 0, label, size.get());
                  }).ok());
      EXPECT_EQ(*size, 4096u);
    }
  }
  EXPECT_EQ(cluster.forward_loops(), 0u);
  EXPECT_GT(cluster.forwarded(), 0u) << "4 gateways, 4 nodes: some op must "
                                        "have landed on a non-owner gateway";
  EXPECT_TRUE(cluster.CheckInvariants(/*strict=*/true).ok());
}

TEST(ClusterTest, JoinThenLeaveKeepsAllAckedWrites) {
  ClusterConfig config;
  config.initial_nodes = 3;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  Cluster& cluster = (*rig)->cluster();

  const auto labels = TestLabels(40);
  for (const std::string& label : labels) {
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Put(0, 0, label, 8192);
                }).ok());
  }

  auto new_id = std::make_shared<uint32_t>(0);
  ASSERT_TRUE(Drive(**rig, [&] { return cluster.AddNode(new_id.get()); }).ok());
  EXPECT_EQ(*new_id, 3u);
  ASSERT_TRUE(cluster.CheckInvariants(/*strict=*/true).ok());
  EXPECT_GT(cluster.node(3)->label_count(), 0u)
      << "join must migrate some shards onto the new node";

  ASSERT_TRUE(Drive(**rig, [&] { return cluster.RemoveNode(0); }).ok());
  const Status strict = cluster.CheckInvariants(/*strict=*/true);
  ASSERT_TRUE(strict.ok()) << strict.ToString();
  for (const std::string& label : labels) {
    auto size = std::make_shared<uint64_t>(0);
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Get(1, 0, label, size.get());
                }).ok())
        << label;
    EXPECT_EQ(*size, 8192u);
  }
}

TEST(ClusterTest, CrashedNodeRejoinsViaLogReplay) {
  ClusterConfig config;
  config.initial_nodes = 4;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  Cluster& cluster = (*rig)->cluster();

  const auto labels = TestLabels(32);
  for (const std::string& label : labels) {
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Put(0, 0, label, 4096);
                }).ok());
  }
  ASSERT_TRUE(cluster.CrashNode(2).ok());
  // Acked writes survive the crash (down store is durable).
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  // Ops whose owner is down fail Unavailable; the rest keep serving.
  size_t served = 0, unavailable = 0;
  for (const std::string& label : labels) {
    const Status st = Drive(**rig, [&] { return cluster.Get(0, 0, label); });
    if (st.ok()) {
      ++served;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
      ++unavailable;
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(unavailable, 0u) << "node 2 owned none of 32 labels?";

  ASSERT_TRUE(Drive(**rig, [&] { return cluster.RejoinNode(2); }).ok());
  const Status strict = cluster.CheckInvariants(/*strict=*/true);
  ASSERT_TRUE(strict.ok()) << strict.ToString();
  for (const std::string& label : labels) {
    ASSERT_TRUE(Drive(**rig, [&] { return cluster.Get(0, 0, label); }).ok())
        << label;
  }
}

TEST(ClusterTest, RollingUpgradeKeepsClusterServing) {
  ClusterConfig config;
  config.initial_nodes = 4;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  Cluster& cluster = (*rig)->cluster();
  sim::Environment& env = (*rig)->env();

  for (const std::string& label : TestLabels(16)) {
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Put(0, 0, label, 2048);
                }).ok());
  }
  const auto kvs_of = [&cluster](uint32_t id) -> const core::LabMod* {
    auto mod = cluster.node(id)->rt().registry().Find("kvs_n" +
                                                      std::to_string(id));
    return mod.ok() ? *mod : nullptr;
  };
  std::map<uint32_t, const core::LabMod*> before;
  for (const uint32_t id : cluster.LiveNodeIds()) {
    EXPECT_EQ(cluster.node(id)->version(), 1u);
    before[id] = kvs_of(id);
  }

  // Traffic overlapping the upgrade: puts land while nodes drain one
  // at a time (Execute holds arrivals at a draining node's door).
  auto upgrade_status = std::make_shared<Status>();
  auto traffic_failures = std::make_shared<int>(0);
  auto wrap = [](sim::Task<Status> task, std::shared_ptr<Status> out)
      -> sim::Task<void> { *out = co_await std::move(task); };
  auto traffic = [](Cluster* target, std::shared_ptr<int> failures)
      -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      const Status st = co_await target->Put(
          static_cast<uint32_t>(i % 4), 1,
          "t1/during_upgrade" + std::to_string(i), 1024);
      if (!st.ok()) ++*failures;
    }
  };
  env.Spawn(wrap(cluster.RollingUpgrade(2), upgrade_status));
  env.Spawn(traffic(&cluster, traffic_failures));
  env.Run();

  ASSERT_TRUE(upgrade_status->ok()) << upgrade_status->ToString();
  EXPECT_EQ(*traffic_failures, 0) << "no crash happened: every put must land";
  // Each node's ModuleManager swapped in a new v2 labkvs object.
  for (const uint32_t id : cluster.LiveNodeIds()) {
    EXPECT_EQ(cluster.node(id)->version(), 2u);
    EXPECT_NE(kvs_of(id), before[id]) << "node " << id;
    EXPECT_NE(dynamic_cast<const labmods::LabKvsMod*>(kvs_of(id)), nullptr);
    EXPECT_EQ(cluster.node(id)->rt().runtime().module_manager()
                  .upgrades_applied(),
              1u);
  }
  const Status strict = cluster.CheckInvariants(/*strict=*/true);
  ASSERT_TRUE(strict.ok()) << strict.ToString();
  // The store moved with the instance: every label stays readable.
  std::vector<std::string> labels = TestLabels(16);
  for (int i = 0; i < 20; ++i) {
    labels.push_back("t1/during_upgrade" + std::to_string(i));
  }
  for (const std::string& label : labels) {
    uint64_t size = 0;
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Get(0, 0, label, &size);
                }).ok())
        << label;
    EXPECT_EQ(size, label.rfind("t1/during", 0) == 0 ? 1024u : 2048u)
        << label;
  }
}

// ---------------------------------------------------------------------------
// DST: crash enumerated at every migration sub-step.
// ---------------------------------------------------------------------------

struct CrashPoint {
  size_t step = 0;
  MigrationPhase phase = MigrationPhase::kBeforeCopy;
  bool crash_source = true;  // else crash the destination
};

// Runs: seed writes -> AddNode (which migrates) with a crash injected
// at `point` -> invariants -> rejoin + rebalance -> strict audit.
void RunCrashPoint(const CrashPoint& point, size_t* steps_seen) {
  ClusterConfig config;
  config.initial_nodes = 3;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  Cluster& cluster = (*rig)->cluster();

  for (const std::string& label : TestLabels(24)) {
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Put(0, 0, label, 4096);
                }).ok());
  }

  size_t counter = 0;
  uint32_t crashed = ShardMap::kNoOwner;
  cluster.rebalancer().SetHook([&](const MigrationStep& step,
                                   MigrationPhase phase) {
    if (phase == MigrationPhase::kBeforeCopy) ++counter;
    if (crashed != ShardMap::kNoOwner) return;
    if (counter - 1 == point.step && phase == point.phase) {
      const uint32_t victim = point.crash_source ? step.from : step.to;
      if (cluster.CrashNode(victim).ok()) crashed = victim;
    }
  });

  const Status add = Drive(**rig, [&] { return cluster.AddNode(nullptr); });
  ASSERT_TRUE(add.ok()) << add.ToString();
  cluster.rebalancer().SetHook(nullptr);
  *steps_seen = counter;

  // Acked writes survive no matter where the crash landed.
  const Status inv = cluster.CheckInvariants();
  ASSERT_TRUE(inv.ok()) << inv.ToString();

  if (crashed != ShardMap::kNoOwner) {
    const Status rejoin =
        Drive(**rig, [&] { return cluster.RejoinNode(crashed); });
    ASSERT_TRUE(rejoin.ok()) << rejoin.ToString();
  }
  const Status reb = Drive(**rig, [&] { return cluster.Rebalance(); });
  ASSERT_TRUE(reb.ok()) << reb.ToString();
  const Status strict = cluster.CheckInvariants(/*strict=*/true);
  ASSERT_TRUE(strict.ok()) << strict.ToString();
  for (const std::string& label : TestLabels(24)) {
    auto size = std::make_shared<uint64_t>(0);
    ASSERT_TRUE(Drive(**rig, [&] {
                  return cluster.Get(0, 0, label, size.get());
                }).ok())
        << label;
    EXPECT_EQ(*size, 4096u);
  }
}

TEST(ClusterDstTest, CrashEnumeratedAtEveryMigrationSubStep) {
  // Probe run: count the migration steps the join produces.
  size_t total_steps = 0;
  {
    CrashPoint never;
    never.step = ~size_t{0};
    RunCrashPoint(never, &total_steps);
    if (HasFatalFailure()) return;
  }
  ASSERT_GT(total_steps, 0u) << "join migrated nothing";

  for (size_t step = 0; step < total_steps; ++step) {
    for (const MigrationPhase phase :
         {MigrationPhase::kBeforeCopy, MigrationPhase::kAfterCopy,
          MigrationPhase::kAfterCommit}) {
      for (const bool crash_source : {true, false}) {
        SCOPED_TRACE("step " + std::to_string(step) + " phase " +
                     std::to_string(static_cast<int>(phase)) +
                     (crash_source ? " crash-src" : " crash-dst"));
        CrashPoint point;
        point.step = step;
        point.phase = phase;
        point.crash_source = crash_source;
        size_t unused = 0;
        RunCrashPoint(point, &unused);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DST: scenario replay and the seed-swept acceptance run.
// ---------------------------------------------------------------------------

TEST(ClusterDstTest, ReplayIsByteIdentical) {
  const uint64_t seed = SeedList().front();
  ClusterScenarioOptions options;
  options.num_steps = 60;

  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    ClusterConfig config;
    config.initial_nodes = 4;
    auto rig = ClusterRig::Create(config);
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    Schedule sched(seed);
    auto stats = RunClusterScenario(**rig, sched, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n"
                            << sched.trace();
    traces[run] = sched.trace();
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1])
      << "same seed must replay byte-identically";
}

TEST(ClusterDstTest, DifferentSeedsDiverge) {
  ClusterScenarioOptions options;
  options.num_steps = 40;
  std::set<std::string> traces;
  int runs = 0;
  for (const uint64_t seed : SeedList()) {
    ClusterConfig config;
    config.initial_nodes = 4;
    auto rig = ClusterRig::Create(config);
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    Schedule sched(seed);
    auto stats = RunClusterScenario(**rig, sched, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n"
                            << sched.trace();
    traces.insert(sched.trace());
    if (++runs == 3) break;
  }
  EXPECT_EQ(traces.size(), static_cast<size_t>(runs));
}

// The acceptance run: an 8-node cluster where every seed's action
// stream includes (at least, via coverage floors) a node crash, a
// rejoin, and a rolling upgrade, with the cluster invariants checked
// after every step and a strict placement audit at the end.
TEST(ClusterDstTest, EightNodeSeedSweepHoldsInvariants) {
  for (const uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    ClusterConfig config;
    config.initial_nodes = 8;
    auto rig = ClusterRig::Create(config);
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    Schedule sched(seed);
    auto stats = RunClusterScenario(**rig, sched);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n"
                            << sched.trace();
    EXPECT_GE(stats->joins, 1u);
    EXPECT_GE(stats->crashes, 1u);
    EXPECT_GE(stats->rejoins, 1u);
    EXPECT_GE(stats->upgrades, 1u);
    EXPECT_GE(stats->invariant_checks, stats->steps);
    EXPECT_GT(stats->ok_ops, 0u);
    Cluster& cluster = (*rig)->cluster();
    EXPECT_EQ(cluster.forward_loops(), 0u);
    // Per-tenant SLO telemetry was recorded for the traffic tenants.
    auto* hist =
        (*rig)->telemetry().metrics().GetHistogram("cluster.tenant0.latency_ns");
    EXPECT_GT(hist->Merged().count(), 0u);
  }
}

}  // namespace
}  // namespace labstor::cluster

int main(int argc, char** argv) {
  labstor::dst::InitSeeds(&argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
