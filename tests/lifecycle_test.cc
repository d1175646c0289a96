// Deterministic lifecycle scheduler (src/dst/lifecycle, DESIGN.md §9).
//
// Own main (like dst_test): dst::InitSeeds strips --dst_seed /
// --dst_random_seeds before gtest parses argv, so CI can replay a
// failing lifecycle run (`test_lifecycle --dst_seed=0x...`) or widen
// the sweep (`test_lifecycle --dst_random_seeds=25`).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/client.h"
#include "core/module_manager.h"
#include "dst/lifecycle.h"
#include "dst/schedule.h"
#include "dst/workloads.h"
#include "faultinject/faultinject.h"
#include "ipc/request.h"

namespace labstor::dst {
namespace {

Result<core::LabMod*> FindProbe(LifecycleRig& rig, const std::string& uuid) {
  return rig.runtime().registry().Find(uuid);
}

core::UpgradeRequest ProbeUpgrade(uint32_t version, core::UpgradeKind kind) {
  core::UpgradeRequest request;
  request.mod_name = "dst_probe";
  request.new_version = version;
  request.kind = kind;
  return request;
}

// One dummy request through the probe stack; returns the units sum.
Result<uint64_t> ProbeSum(LifecycleRig& rig) {
  LABSTOR_ASSIGN_OR_RETURN(stack, rig.probe_stack());
  ipc::Request req;
  req.op = ipc::OpCode::kDummy;
  LABSTOR_RETURN_IF_ERROR(rig.client().Execute(req, *stack));
  LABSTOR_RETURN_IF_ERROR(req.ToStatus());
  return req.result_u64;
}

// ---------------------------------------------------------------------------
// The tentpole: seed-swept lifecycle runs under the four invariants.
// ---------------------------------------------------------------------------

TEST(LifecycleTest, SeedSweepHoldsInvariants) {
  for (const uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    auto rig = LifecycleRig::Create();
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    Schedule sched(seed);
    auto stats = RunLifecycle(**rig, sched, DefaultLifecycleInvariants());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n"
                            << sched.trace();
    // Acceptance coverage: every run interleaves both upgrade
    // protocols, a rebalance, and both restart flavors with live
    // LabFS and LabKVS traffic (floors force stragglers).
    EXPECT_GE(stats->upgrades_centralized, 1u);
    EXPECT_GE(stats->upgrades_decentralized, 1u);
    EXPECT_GE(stats->rebalances, 1u);
    EXPECT_GE(stats->client_restarts, 1u);
    EXPECT_GE(stats->runtime_restarts, 1u);
    EXPECT_GT(stats->fs_ops, 0u);
    EXPECT_GT(stats->kvs_ops, 0u);
    EXPECT_GT(stats->probe_ops, 0u);
    EXPECT_GT(stats->invariant_checks, 0u);
  }
}

TEST(LifecycleTest, ProbeStackSurvivesUpgradeMidTraffic) {
  // Every seed-swept lifecycle run above upgrades the sync probe chain
  // mid-traffic. This test pins that down explicitly: traffic flows,
  // and after a centralized upgrade every vertex is bound to the v2
  // instance the registry installed and no unit is lost.
  auto rig = LifecycleRig::Create();
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  auto stack = (*rig)->probe_stack();
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  auto sum_before = ProbeSum(**rig);
  ASSERT_TRUE(sum_before.ok());
  EXPECT_EQ(*sum_before, 10u);

  core::Runtime& rt = (*rig)->runtime();
  rt.SubmitUpgrade(ProbeUpgrade(2, core::UpgradeKind::kCentralized));
  ASSERT_TRUE(rt.StepAdmin().ok());

  // Re-fetch: a restart-tolerant handle, then verify the bindings.
  stack = (*rig)->probe_stack();
  ASSERT_TRUE(stack.ok());
  for (const core::Stack::Vertex& vertex : (*stack)->vertices) {
    auto live = rt.registry().Find(vertex.uuid);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(vertex.mod, *live);
    EXPECT_EQ(vertex.mod->version(), 2u);
  }
  auto sum_after = ProbeSum(**rig);
  ASSERT_TRUE(sum_after.ok());
  EXPECT_EQ(*sum_after, 10u) << "units lost across the upgrade";
}

TEST(LifecycleTest, ReplaysByteIdentically) {
  const uint64_t seed = SeedList().front();
  std::string traces[2];
  size_t steps[2] = {0, 0};
  size_t events[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    auto rig = LifecycleRig::Create();
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    Schedule sched(seed);
    auto stats = RunLifecycle(**rig, sched, DefaultLifecycleInvariants());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    traces[run] = sched.trace();
    steps[run] = stats->steps;
    events[run] = sched.events();
  }
  // The trace ends with a "life done" line carrying every stat, so
  // byte-identical traces mean identical event sequences AND counters.
  EXPECT_EQ(steps[0], steps[1]);
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(traces[0], traces[1])
      << "lifecycle schedule diverged for a fixed seed";
  EXPECT_FALSE(traces[0].empty());
}

// ---------------------------------------------------------------------------
// Centralized quiesce: queues born mid-upgrade (the old mark/clear race).
// ---------------------------------------------------------------------------

TEST(LifecycleQuiesceTest, LateConnectorIsBornPausedAndReleased) {
  auto rig = LifecycleRig::Create();
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  core::Runtime& rt = (*rig)->runtime();
  core::Client late(rt, ipc::Credentials{300, 1000, 1000});

  struct Observations {
    bool barrier_up = false;
    bool connect_ok = false;
    bool born_paused = false;
    bool submit_refused = false;
    uint64_t refused_count = 0;
  } obs;
  ipc::QueuePair* late_qp = nullptr;
  ipc::Request probe_req;

  rt.module_manager().SetPhaseHook([&](std::string_view phase) {
    if (phase != "centralized.quiesced") return;
    // A client connecting while every primary is quiesced: pre-fix,
    // its queue appeared after the mark sweep's snapshot, admitted
    // traffic through the barrier, and was never paused at all.
    obs.barrier_up = rt.ipc().quiescing();
    obs.connect_ok = late.Connect().ok();
    const std::vector<ipc::QueuePair*> queues = rt.ipc().PrimaryQueues();
    late_qp = queues.back();
    obs.born_paused = late_qp->update_pending();
    obs.submit_refused = !late_qp->Submit(&probe_req);
    obs.refused_count = late_qp->refused_while_paused();
  });

  rt.SubmitUpgrade(ProbeUpgrade(2, core::UpgradeKind::kCentralized));
  ASSERT_TRUE(rt.StepAdmin().ok());

  EXPECT_TRUE(obs.barrier_up);
  EXPECT_TRUE(obs.connect_ok);
  ASSERT_NE(late_qp, nullptr);
  EXPECT_TRUE(obs.born_paused) << "queue born mid-quiesce was not paused";
  EXPECT_TRUE(obs.submit_refused)
      << "submission admitted through the quiesce barrier";
  EXPECT_GE(obs.refused_count, 1u);

  // EndQuiesce must reopen the late queue too (pre-fix: permanently
  // paused if it only made the clear sweep's snapshot by luck).
  EXPECT_FALSE(late_qp->update_pending());
  EXPECT_EQ(late_qp->pauses(), 1u);
  EXPECT_EQ(late_qp->clears(), 1u);
  for (ipc::QueuePair* qp : rt.ipc().PrimaryQueues()) {
    EXPECT_FALSE(qp->update_pending());
    EXPECT_EQ(qp->pauses(), qp->clears());
  }
  // And the late client is fully serviceable afterwards.
  EXPECT_TRUE(late_qp->Submit(&probe_req));
  (void)late_qp->PollSubmission();
}

// ---------------------------------------------------------------------------
// Decentralized protocol: full barrier for the swap, then a roll that
// pauses at most one client queue at a time.
// ---------------------------------------------------------------------------

TEST(LifecycleProtocolTest, DecentralizedRollPausesOneQueueAtATime) {
  auto rig = LifecycleRig::Create();
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  core::Runtime& rt = (*rig)->runtime();
  const size_t num_primaries = rt.ipc().PrimaryQueues().size();
  ASSERT_GE(num_primaries, 2u);  // both rig clients are connected

  size_t swap_paused = 0;
  size_t roll_events = 0;
  bool always_exactly_one = true;
  rt.module_manager().SetPhaseHook([&](std::string_view phase) {
    if (phase == "decentralized.swap.quiesced") {
      swap_paused = rt.ipc().PausedPrimaryCount();
    } else if (phase == "decentralized.roll.paused") {
      ++roll_events;
      always_exactly_one &= rt.ipc().PausedPrimaryCount() == 1;
    }
  });

  rt.SubmitUpgrade(ProbeUpgrade(2, core::UpgradeKind::kDecentralized));
  ASSERT_TRUE(rt.StepAdmin().ok());

  // The swap itself is a full barrier...
  EXPECT_EQ(swap_paused, num_primaries);
  // ...then exactly one rolling pause per connected client, never two
  // at once (the per-client availability Table I trades for).
  EXPECT_EQ(roll_events, num_primaries);
  EXPECT_TRUE(always_exactly_one);
  EXPECT_EQ(rt.ipc().PausedPrimaryCount(), 0u);
}

TEST(LifecycleProtocolTest, BothProtocolsConvergeToSameState) {
  // Same scripted history on two rigs, one per protocol: the final
  // namespace must be indistinguishable (Table I's claim that the
  // protocols differ in availability/latency, not in outcome).
  constexpr uint64_t kSeed = 0x4C414253;
  struct Final {
    uint32_t version_a = 0;
    uint32_t version_b = 0;
    uint64_t probe_sum = 0;
    uint64_t applied = 0;
    std::vector<std::string> mounts;
    std::vector<uint64_t> file_sizes;
  };
  Final finals[2];
  const core::UpgradeKind kinds[2] = {core::UpgradeKind::kCentralized,
                                      core::UpgradeKind::kDecentralized};
  for (int i = 0; i < 2; ++i) {
    auto rig = LifecycleRig::Create();
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    core::Runtime& rt = (*rig)->runtime();
    Schedule sched(kSeed);
    FsModel model;
    FsWorkloadState state;
    for (int op = 0; op < 8; ++op) {
      auto stack = (*rig)->fs_stack();
      ASSERT_TRUE(stack.ok());
      ASSERT_TRUE(StepFsOp((*rig)->fs(), (*rig)->client(), **stack, sched,
                           nullptr, model, state)
                      .ok());
    }
    rt.SubmitUpgrade(ProbeUpgrade(2, kinds[i]));
    ASSERT_TRUE(rt.StepAdmin().ok());
    for (int op = 0; op < 8; ++op) {
      auto stack = (*rig)->fs_stack();
      ASSERT_TRUE(stack.ok());
      ASSERT_TRUE(StepFsOp((*rig)->fs(), (*rig)->client(), **stack, sched,
                           nullptr, model, state)
                      .ok());
    }

    Final& f = finals[i];
    auto a = FindProbe(**rig, "probe_a");
    auto b = FindProbe(**rig, "probe_b");
    ASSERT_TRUE(a.ok() && b.ok());
    f.version_a = (*a)->version();
    f.version_b = (*b)->version();
    auto sum = ProbeSum(**rig);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    f.probe_sum = *sum;
    f.applied = rt.module_manager().upgrades_applied();
    f.mounts = rt.ns().Mounts();
    std::sort(f.mounts.begin(), f.mounts.end());
    for (size_t p = 0; p < kWorkloadPoolSize; ++p) {
      auto size = (*rig)->fs().StatSize(WorkloadFsPath(p));
      f.file_sizes.push_back(size.ok() ? *size + 1 : 0);  // 0 = absent
    }
  }
  EXPECT_EQ(finals[0].version_a, 2u);
  EXPECT_EQ(finals[0].version_a, finals[1].version_a);
  EXPECT_EQ(finals[0].version_b, finals[1].version_b);
  EXPECT_EQ(finals[0].probe_sum, finals[1].probe_sum);
  EXPECT_EQ(finals[0].probe_sum, 10u);  // 7 + 3: configs survived
  EXPECT_EQ(finals[0].applied, finals[1].applied);
  EXPECT_EQ(finals[0].mounts, finals[1].mounts);
  EXPECT_EQ(finals[0].file_sizes, finals[1].file_sizes);
}

// ---------------------------------------------------------------------------
// All-or-nothing staging under injected faults.
// ---------------------------------------------------------------------------

TEST(LifecycleFaultTest, StageFaultLeavesAllInstancesOnOldVersion) {
  auto rig = LifecycleRig::Create();
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  core::Runtime& rt = (*rig)->runtime();

  // Fail staging of the SECOND of the two probe instances (instances
  // stage in sorted order: probe_a, then probe_b). Pre-fix, probe_a
  // had already swapped to v2 when probe_b's StateUpdate failed —
  // a mixed-version registry.
  faultinject::FaultInjector fi;
  faultinject::FaultPolicy policy;
  policy.trigger = faultinject::FaultPolicy::Trigger::kEveryN;
  policy.every_n = 2;
  policy.max_fires = 1;
  policy.message = "injected staging failure";
  fi.Arm("core.upgrade.stage", policy);
  {
    faultinject::ScopedInstall install(fi);
    rt.SubmitUpgrade(ProbeUpgrade(2, core::UpgradeKind::kCentralized));
    const Status st = rt.StepAdmin();
    EXPECT_FALSE(st.ok());
  }
  EXPECT_EQ(fi.fires("core.upgrade.stage"), 1u);

  for (const char* uuid : {"probe_a", "probe_b"}) {
    auto mod = FindProbe(**rig, uuid);
    ASSERT_TRUE(mod.ok());
    EXPECT_EQ((*mod)->version(), 1u) << uuid << " swapped despite the failure";
    EXPECT_TRUE(ProbeMod::IsLive(*mod));
  }
  // The full invariant set holds on the failed-upgrade state.
  LifecycleStats stats;
  LifecycleExpectation expect;
  expect.probe_version = 1;
  expect.probe_units = {{"probe_a", 7}, {"probe_b", 3}};
  const LifecycleContext ctx{**rig, stats, expect, 0, "failed-upgrade"};
  for (const LifecycleInvariant* inv : DefaultLifecycleInvariants()) {
    EXPECT_TRUE(inv->Check(ctx).ok()) << inv->name();
  }
  auto sum = ProbeSum(**rig);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 10u);

  // A clean retry completes the upgrade.
  rt.SubmitUpgrade(ProbeUpgrade(2, core::UpgradeKind::kCentralized));
  ASSERT_TRUE(rt.StepAdmin().ok());
  for (const char* uuid : {"probe_a", "probe_b"}) {
    auto mod = FindProbe(**rig, uuid);
    ASSERT_TRUE(mod.ok());
    EXPECT_EQ((*mod)->version(), 2u);
  }
  auto sum2 = ProbeSum(**rig);
  ASSERT_TRUE(sum2.ok());
  EXPECT_EQ(*sum2, 10u);
}

// ---------------------------------------------------------------------------
// Same-version upgrades are no-op successes, counted separately.
// ---------------------------------------------------------------------------

TEST(LifecycleTest, SameVersionUpgradeCountsAsNoop) {
  auto rig = LifecycleRig::Create();
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  core::Runtime& rt = (*rig)->runtime();
  core::ModuleManager& mm = rt.module_manager();

  rt.SubmitUpgrade(ProbeUpgrade(1, core::UpgradeKind::kCentralized));
  ASSERT_TRUE(rt.StepAdmin().ok());
  EXPECT_EQ(mm.upgrades_applied(), 0u);
  EXPECT_EQ(mm.noop_upgrades(), 1u);

  // The instances were not churned: same objects, probe still serves.
  auto sum = ProbeSum(**rig);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 10u);

  rt.SubmitUpgrade(ProbeUpgrade(2, core::UpgradeKind::kCentralized));
  ASSERT_TRUE(rt.StepAdmin().ok());
  EXPECT_EQ(mm.upgrades_applied(), 1u);
  EXPECT_EQ(mm.noop_upgrades(), 1u);

  // Decentralized no-ops count too (and still run their protocol with
  // balanced pause/clear transitions).
  rt.SubmitUpgrade(ProbeUpgrade(2, core::UpgradeKind::kDecentralized));
  ASSERT_TRUE(rt.StepAdmin().ok());
  EXPECT_EQ(mm.upgrades_applied(), 1u);
  EXPECT_EQ(mm.noop_upgrades(), 2u);
  for (ipc::QueuePair* qp : rt.ipc().PrimaryQueues()) {
    EXPECT_FALSE(qp->update_pending());
    EXPECT_EQ(qp->pauses(), qp->clears());
  }
}

}  // namespace
}  // namespace labstor::dst

int main(int argc, char** argv) {
  labstor::dst::InitSeeds(&argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
