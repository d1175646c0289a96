// Pushdown op chains (src/labmods/pushdown, DESIGN.md §12): the chain
// DSL sandbox, the device-queue-layer interpreter (pointer chase,
// scan+filter, compound RMW), the abort marker a failed chain leaves
// in the journal, epoch-gated re-registration, the
// Request::Reuse stale-cursor regression, crash atomicity of mutating
// chains at every chain-step boundary, and cluster routing of a whole
// chain to the shard owner.
//
// Own main (like dst_test): dst::InitSeeds strips --dst_seed /
// --dst_random_seeds before gtest parses argv, so CI can replay a
// failing run (`test_pushdown --dst_seed=0x...`) or widen the sweep
// (`test_pushdown --dst_random_seeds=25`). Suites are named Pushdown*
// so the TSan CI job can select them by name.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "dst/crash_enum.h"
#include "dst/invariants.h"
#include "dst/journal.h"
#include "dst/rigs.h"
#include "dst/schedule.h"
#include "dst/workloads.h"
#include "faultinject/faultinject.h"
#include "ipc/chain.h"
#include "ipc/request.h"
#include "labmods/pushdown.h"

namespace labstor::dst {
namespace {

using labmods::PushdownMod;

// ---------------------------------------------------------------------------
// Chain DSL: sandbox validation and wire framing.
// ---------------------------------------------------------------------------

TEST(PushdownDslTest, CanonicalBuildersValidate) {
  const ipc::ChainProgram chase = ipc::BuildPointerChaseChain(1, 8, 16);
  EXPECT_TRUE(chase.Validate().ok());
  EXPECT_EQ(chase.num_steps, 15u);  // 8 gets, 7 derefs between them
  EXPECT_FALSE(chase.Mutates());

  const ipc::ChainProgram rmw = ipc::BuildRmwChain(2, 0, 41);
  EXPECT_TRUE(rmw.Validate().ok());
  EXPECT_EQ(rmw.num_steps, 3u);
  EXPECT_TRUE(rmw.Mutates());
}

TEST(PushdownDslTest, SandboxRejectsOutOfBoundsPrograms) {
  // Zero id.
  ipc::ChainProgram p = ipc::BuildRmwChain(0, 0, 1);
  EXPECT_FALSE(p.Validate().ok());

  // Step count outside 1..kMaxChainSteps.
  p = ipc::BuildRmwChain(1, 0, 1);
  p.num_steps = 0;
  EXPECT_FALSE(p.Validate().ok());
  p.num_steps = ipc::kMaxChainSteps + 1;
  EXPECT_FALSE(p.Validate().ok());

  // Byte budget outside 1..kMaxChainScratch.
  p = ipc::BuildRmwChain(1, 0, 1);
  p.byte_budget = 0;
  EXPECT_FALSE(p.Validate().ok());
  p.byte_budget = ipc::kMaxChainScratch + 1;
  EXPECT_FALSE(p.Validate().ok());

  // u64 access past the budget.
  p = ipc::BuildRmwChain(1, /*field_offset=*/4090, 1, /*byte_budget=*/4096);
  EXPECT_FALSE(p.Validate().ok());

  // deref_key window past the budget / past key capacity.
  p = ipc::BuildPointerChaseChain(1, 2, 16, /*byte_budget=*/8);
  EXPECT_FALSE(p.Validate().ok());
  p = ipc::BuildPointerChaseChain(1, 2, ipc::kChainKeyCapacity);
  EXPECT_FALSE(p.Validate().ok());

  // Invalid step kind.
  p = ipc::BuildRmwChain(1, 0, 1);
  p.steps[1].kind = ipc::ChainStepKind::kInvalid;
  EXPECT_FALSE(p.Validate().ok());

  // Bad magic (a non-chain payload can never register).
  p = ipc::BuildRmwChain(1, 0, 1);
  p.magic = 0xDEAD;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(PushdownDslTest, EncodeDecodeRoundTrips) {
  const ipc::ChainProgram p = ipc::BuildPointerChaseChain(7, 4, 32);
  std::vector<uint8_t> wire(ipc::EncodedChainBytes());
  ipc::EncodeChainProgram(p, wire.data());

  auto decoded = ipc::DecodeChainProgram(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(std::memcmp(&p, &*decoded, sizeof(p)), 0);

  // Short payloads are rejected before validation can touch them.
  EXPECT_FALSE(ipc::DecodeChainProgram(wire.data(), wire.size() - 1).ok());
  EXPECT_FALSE(ipc::DecodeChainProgram(nullptr, wire.size()).ok());
}

// ---------------------------------------------------------------------------
// Interpreter on the sync pushdown -> labkvs -> driver rig.
// ---------------------------------------------------------------------------

// 64-byte value whose head is `next` NUL-terminated (a pointer-chase
// link) and whose tail is pattern bytes.
std::vector<uint8_t> LinkValue(const std::string& next, uint64_t tag) {
  std::vector<uint8_t> value = PatternBytes(tag, 64);
  std::memset(value.data(), 0, 32);
  std::memcpy(value.data(), next.data(), next.size());
  return value;
}

std::vector<uint8_t> CounterValue(uint64_t counter, uint64_t tag) {
  std::vector<uint8_t> value = PatternBytes(tag, 64);
  std::memcpy(value.data(), &counter, sizeof(counter));
  return value;
}

TEST(PushdownExecTest, PointerChaseRunsAtTheDeviceQueueLayer) {
  auto rig = CrashRig::Create(StackKind::kPushdownKvs);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  labmods::GenericKvs* kvs = (*rig)->kvs();
  PushdownMod* pd = (*rig)->pushdown();
  ASSERT_NE(pd, nullptr);

  // k0 -> k1 -> k2 -> k3(payload).
  const std::vector<uint8_t> payload = PatternBytes(99, 64);
  ASSERT_TRUE(kvs->Put(WorkloadKvsKey(3), payload).ok());
  for (int i = 2; i >= 0; --i) {
    ASSERT_TRUE(kvs->Put(WorkloadKvsKey(i),
                         LinkValue(WorkloadKvsKey(i + 1), 10 + i))
                    .ok());
  }

  const ipc::ChainProgram chase =
      ipc::BuildPointerChaseChain(2, /*depth=*/4, /*key_bytes=*/32);
  ASSERT_TRUE(kvs->RegisterChain("kvs::/dst", chase).ok());

  std::vector<uint8_t> out(64);
  auto copied = kvs->ExecChain(2, WorkloadKvsKey(0), out);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 64u);
  EXPECT_EQ(out, payload);  // the chain ended on k3's value

  // One round trip collapsed 4 dependent gets: 3 hops collapsed, 2
  // crossings saved per hop.
  const auto chains = pd->ListChains();
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].id, 2u);
  EXPECT_EQ(chains[0].executions, 1u);
  EXPECT_EQ(chains[0].steps_executed, 7u);
  EXPECT_EQ(chains[0].crossings_saved, 6u);
  EXPECT_GT(chains[0].saved_ns, 0u);
  EXPECT_EQ(pd->crossings_saved(), 6u);
}

TEST(PushdownExecTest, FilterStopsTheChainEarly) {
  auto rig = CrashRig::Create(StackKind::kPushdownKvs);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  labmods::GenericKvs* kvs = (*rig)->kvs();
  PushdownMod* pd = (*rig)->pushdown();

  const std::string key = WorkloadKvsKey(0);
  ASSERT_TRUE(kvs->Put(key, CounterValue(100, 5)).ok());

  // get -> filter(counter >= 500) -> modify(+7) -> put.
  ipc::ChainProgram p;
  p.id = 3;
  p.num_steps = 4;
  p.steps[0].kind = ipc::ChainStepKind::kGet;
  p.steps[1].kind = ipc::ChainStepKind::kFilter;
  p.steps[1].b = 500;
  p.steps[2].kind = ipc::ChainStepKind::kModify;
  p.steps[2].b = 7;
  p.steps[3].kind = ipc::ChainStepKind::kPut;
  ASSERT_TRUE(kvs->RegisterChain("kvs::/dst", p).ok());

  // Below the threshold: the chain stops after the filter step and the
  // value is untouched.
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(kvs->ExecChain(3, key, out).ok());
  EXPECT_EQ(pd->ListChains()[0].steps_executed, 2u);
  std::vector<uint8_t> got(64);
  ASSERT_TRUE(kvs->Get(key, got).ok());
  EXPECT_EQ(got, CounterValue(100, 5));

  // At/above the threshold: all four steps run and the put lands.
  ASSERT_TRUE(kvs->Put(key, CounterValue(1000, 5)).ok());
  ASSERT_TRUE(kvs->ExecChain(3, key, out).ok());
  EXPECT_EQ(pd->ListChains()[0].steps_executed, 6u);
  ASSERT_TRUE(kvs->Get(key, got).ok());
  EXPECT_EQ(got, CounterValue(1007, 5));
}

TEST(PushdownExecTest, RmwChainReadsModifiesAndPersists) {
  auto rig = CrashRig::Create(StackKind::kPushdownKvs);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  labmods::GenericKvs* kvs = (*rig)->kvs();

  const std::string key = WorkloadKvsKey(1);
  ASSERT_TRUE(kvs->Put(key, CounterValue(40, 9)).ok());
  ASSERT_TRUE(
      kvs->RegisterChain("kvs::/dst", ipc::BuildRmwChain(4, 0, 2)).ok());

  std::vector<uint8_t> out(64);
  auto copied = kvs->ExecChain(4, key, out);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 64u);
  EXPECT_EQ(out, CounterValue(42, 9));  // returned value is post-modify

  std::vector<uint8_t> got(64);
  ASSERT_TRUE(kvs->Get(key, got).ok());
  EXPECT_EQ(got, CounterValue(42, 9));  // and it is durable
}

TEST(PushdownExecTest, FailedChainClosesItsTransaction) {
  auto rig = CrashRig::Create(StackKind::kPushdownKvs);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  labmods::GenericKvs* kvs = (*rig)->kvs();

  const std::string key = WorkloadKvsKey(1);
  ASSERT_TRUE(kvs->Put(key, CounterValue(40, 9)).ok());
  ASSERT_TRUE(
      kvs->RegisterChain("kvs::/dst", ipc::BuildRmwChain(4, 0, 2)).ok());

  // The chain's first device write is its begin marker, the second its
  // put's size record: fail that one, so the chain fails inside its
  // transaction.
  faultinject::FaultInjector injector;
  faultinject::FaultPolicy second;
  second.trigger = faultinject::FaultPolicy::Trigger::kEveryN;
  second.every_n = 2;
  second.max_fires = 1;
  injector.Arm("simdev.write.eio", second);
  injector.Install();
  std::vector<uint8_t> out(64);
  EXPECT_EQ(kvs->ExecChain(4, key, out).status().code(),
            StatusCode::kInternal);
  injector.Uninstall();
  EXPECT_EQ(injector.fires("simdev.write.eio"), 1u);

  // A put acked after the failed chain must survive replay, and the
  // chain's key keeps its pre-chain value.
  const std::string other = WorkloadKvsKey(2);
  ASSERT_TRUE(kvs->Put(other, CounterValue(7, 3)).ok());
  ASSERT_TRUE((*rig)->labkvs()->StateRepair().ok());
  std::vector<uint8_t> got(64);
  ASSERT_TRUE(kvs->Get(other, got).ok());
  EXPECT_EQ(got, CounterValue(7, 3));
  ASSERT_TRUE(kvs->Get(key, got).ok());
  EXPECT_EQ(got, CounterValue(40, 9));
}

TEST(PushdownExecTest, ReRegistrationIsEpochGated) {
  auto rig = CrashRig::Create(StackKind::kPushdownKvs);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  PushdownMod* pd = (*rig)->pushdown();

  const ipc::ChainProgram original = ipc::BuildRmwChain(6, 0, 1);
  ASSERT_TRUE(pd->Register(original, /*epoch=*/5).ok());

  // Idempotent re-registration of the identical program: always fine,
  // even with a stale epoch view.
  EXPECT_TRUE(pd->Register(original, /*epoch=*/0).ok());

  // Replacing the program without an epoch bump is refused...
  const ipc::ChainProgram modified = ipc::BuildRmwChain(6, 0, 2);
  const Status stale = pd->Register(modified, /*epoch=*/5);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);

  // ...and allowed once the namespace epoch has advanced.
  EXPECT_TRUE(pd->Register(modified, /*epoch=*/6).ok());
  const auto chains = pd->ListChains();
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].registered_epoch, 6u);
}

TEST(PushdownExecTest, UnknownChainAndNonChainTrafficBehave) {
  auto rig = CrashRig::Create(StackKind::kPushdownKvs);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  labmods::GenericKvs* kvs = (*rig)->kvs();

  // Plain traffic passes through the pushdown mod untouched.
  const std::string key = WorkloadKvsKey(2);
  ASSERT_TRUE(kvs->Put(key, CounterValue(1, 1)).ok());
  std::vector<uint8_t> got(64);
  ASSERT_TRUE(kvs->Get(key, got).ok());
  EXPECT_EQ(got, CounterValue(1, 1));

  // Executing a chain id nobody registered fails cleanly.
  std::vector<uint8_t> out(64);
  EXPECT_FALSE(kvs->ExecChain(77, key, out).ok());
}

// ---------------------------------------------------------------------------
// Request::Reuse regression: a recycled slot must not carry the
// previous chain's descriptor/cursor into the next submission.
// ---------------------------------------------------------------------------

TEST(PushdownReuseTest, ReuseClearsChainDescriptorAndCursor) {
  ipc::Request req;
  req.chain_id = 9;
  req.chain_step = 5;
  req.Reuse();
  EXPECT_EQ(req.chain_id, 0u);
  EXPECT_EQ(req.chain_step, 0u);
}

TEST(PushdownReuseTest, ConsecutiveChainExecsOnOneSlotSucceed) {
  auto rig = CrashRig::Create(StackKind::kPushdownKvs);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  labmods::GenericKvs* kvs = (*rig)->kvs();

  const std::string key = WorkloadKvsKey(0);
  ASSERT_TRUE(kvs->Put(key, CounterValue(10, 3)).ok());
  ASSERT_TRUE(
      kvs->RegisterChain("kvs::/dst", ipc::BuildRmwChain(1, 0, 5)).ok());

  // GenericKvs recycles one request slot; the completed first chain
  // leaves chain_step = steps-executed on it. Without Reuse clearing
  // the cursor, the second exec would be rejected as a stale resume.
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(kvs->ExecChain(1, key, out).ok());
  auto second = kvs->ExecChain(1, key, out);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(out, CounterValue(20, 3));
}

// ---------------------------------------------------------------------------
// Crash atomicity: a partially executed RMW chain either fully
// replays or leaves no acked effect, at EVERY chain-step boundary.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<CrashRig>> MakeRig() {
  return CrashRig::Create(StackKind::kPushdownKvs);
}

TEST(PushdownCrashTest, RmwChainAtomicAtEveryCrashPoint) {
  const std::string key = WorkloadKvsKey(0);
  const std::vector<uint8_t> before = CounterValue(1000, 7);
  const std::vector<uint8_t> after = CounterValue(1041, 7);
  size_t enforce_from = 0;  // filled once the pre-chain value is durable

  const Workload workload = [&](CrashRig& rig, Schedule& sched,
                                const DeviceJournal& journal,
                                WorkloadLedger& ledger) -> Status {
    (void)sched;
    labmods::GenericKvs* kvs = rig.kvs();
    PushdownMod* pd = rig.pushdown();
    if (kvs == nullptr || pd == nullptr) {
      return Status::FailedPrecondition("rig has no pushdown stack");
    }
    size_t j0 = journal.entries();
    LABSTOR_RETURN_IF_ERROR(kvs->Put(key, before));
    ledger.kv.AckPut(key, before, j0, journal.entries());
    enforce_from = journal.entries();

    LABSTOR_RETURN_IF_ERROR(
        kvs->RegisterChain("kvs::/dst", ipc::BuildRmwChain(1, 0, 41)));
    pd->SetStepHook([&ledger, &journal](uint32_t, uint32_t) {
      ledger.chain_step_boundaries.push_back(journal.entries());
    });
    std::vector<uint8_t> out(64);
    j0 = journal.entries();
    const auto copied = kvs->ExecChain(1, key, out);
    pd->SetStepHook(nullptr);
    LABSTOR_RETURN_IF_ERROR(copied.status());
    ledger.kv.AckPut(key, after, j0, journal.entries());
    if (*copied != after.size() || out != after) {
      return Status::Internal("chain read-back mismatch");
    }
    return Status::Ok();
  };

  const LabKvsAckedPutsVisible visible;
  const PushdownChainAtomicity atomic(key, before, after, &enforce_from);
  Schedule sched(SeedList().front());
  auto report = EnumerateCrashPoints(MakeRig, workload,
                                     {&visible, &atomic}, sched);
  ASSERT_TRUE(report.ok()) << report.status().ToString() << "; "
                           << sched.ReplayHint();
  EXPECT_GT(report->boundaries, 0u);
  // 5 torn-prefix states per log boundary + end-of-run + one revisit
  // per chain step (the RMW chain runs get/modify/put = 3 steps).
  // Exact, so a silently skipped chain-step boundary fails.
  EXPECT_EQ(report->points_visited, report->boundaries * 5 + 1 + 3)
      << sched.ReplayHint();
  EXPECT_TRUE(report->failures.empty()) << report->Summary() << "\n"
                                        << sched.ReplayHint();
}

// The seed sweep runs as kSweepParts ctest entries, so that each one
// fits its 300 s timeout under ThreadSanitizer: part p covers the seeds
// at positions p, p + kSweepParts, ... of SeedList(). Together they
// visit every seed and every crash point.
constexpr size_t kSweepParts = 5;

void SweepSeedsRecoverEveryAckedChain(size_t part) {
  constexpr size_t kChains = 8;
  const LabKvsAckedPutsVisible visible;
  const std::vector<uint64_t>& seeds = SeedList();
  for (size_t i = part; i < seeds.size(); i += kSweepParts) {
    const uint64_t seed = seeds[i];
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    Schedule sched(seed);
    auto report = EnumerateCrashPoints(
        MakeRig,
        [](CrashRig& rig, Schedule& s, const DeviceJournal& journal,
           WorkloadLedger& ledger) {
          return RunPushdownWorkload(rig, s, journal, ledger, kChains);
        },
        {&visible}, sched);
    ASSERT_TRUE(report.ok()) << report.status().ToString() << "; "
                             << sched.ReplayHint();
    EXPECT_GT(report->boundaries, 0u) << sched.ReplayHint();
    // Every chain is a 3-step RMW, so the chain-step revisits are
    // exactly 3 per executed chain on top of the standard sweep.
    EXPECT_EQ(report->points_visited,
              report->boundaries * 5 + 1 + kChains * 3)
        << sched.ReplayHint();
    EXPECT_TRUE(report->failures.empty())
        << report->Summary() << "\n"
        << sched.ReplayHint();
  }
}

TEST(PushdownCrashTest, SeedSweptWorkloadRecoversEveryAckedChainPart0) {
  SweepSeedsRecoverEveryAckedChain(0);
}

TEST(PushdownCrashTest, SeedSweptWorkloadRecoversEveryAckedChainPart1) {
  SweepSeedsRecoverEveryAckedChain(1);
}

TEST(PushdownCrashTest, SeedSweptWorkloadRecoversEveryAckedChainPart2) {
  SweepSeedsRecoverEveryAckedChain(2);
}

TEST(PushdownCrashTest, SeedSweptWorkloadRecoversEveryAckedChainPart3) {
  SweepSeedsRecoverEveryAckedChain(3);
}

TEST(PushdownCrashTest, SeedSweptWorkloadRecoversEveryAckedChainPart4) {
  SweepSeedsRecoverEveryAckedChain(4);
}

TEST(PushdownCrashTest, SameSeedReplaysByteIdentically) {
  const auto run = [](uint64_t seed) {
    Schedule sched(seed);
    const LabKvsAckedPutsVisible visible;
    auto report = EnumerateCrashPoints(
        MakeRig,
        [](CrashRig& rig, Schedule& s, const DeviceJournal& journal,
           WorkloadLedger& ledger) {
          return RunPushdownWorkload(rig, s, journal, ledger, 5);
        },
        {&visible}, sched);
    EXPECT_TRUE(report.ok());
    return sched.trace();
  };
  const uint64_t seed = SeedList().front();
  const std::string first = run(seed);
  EXPECT_EQ(first, run(seed));
  EXPECT_FALSE(first.empty());
}

// ---------------------------------------------------------------------------
// Cluster: a chain routes to the shard owner and executes there in
// one network hop instead of one round trip per dependent step.
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

// A label owned by a node other than `gateway` (so the exec must
// forward), found by deterministic trial.
std::string RemoteLabel(cluster::Cluster& cluster, uint32_t gateway,
                        const std::string& prefix) {
  const auto map = cluster.map();
  for (int i = 0; i < 256; ++i) {
    const std::string label = prefix + std::to_string(i);
    if (map->OwnerOfLabel(label) != gateway) return label;
  }
  return "";
}

TEST(PushdownClusterTest, RmwChainExecutesAtTheRemoteOwner) {
  cluster::ClusterConfig config;
  config.initial_nodes = 4;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  cluster::Cluster& cluster = (*rig)->cluster();

  const std::string label = RemoteLabel(cluster, 0, "t0/rmw");
  ASSERT_FALSE(label.empty());
  const uint32_t owner = cluster.map()->OwnerOfLabel(label);

  ASSERT_TRUE(Drive(**rig, [&] {
                return cluster.PutBytes(0, 0, label, CounterValue(5, 2));
              }).ok());
  ASSERT_TRUE(cluster.RegisterChain(ipc::BuildRmwChain(7, 0, 10)).ok());

  uint64_t size = 0;
  uint32_t steps = 0;
  ASSERT_TRUE(Drive(**rig, [&] {
                return cluster.ExecChain(0, 0, 7, label, &size, &steps);
              }).ok());
  EXPECT_EQ(steps, 3u);
  EXPECT_EQ(size, 64u);

  // The whole chain ran at the owner; the gateway executed none of it.
  ASSERT_NE(cluster.node(owner), nullptr);
  EXPECT_EQ(cluster.node(owner)->pushdown()->chains_executed(), 1u);
  EXPECT_EQ(cluster.node(0)->pushdown()->chains_executed(), 0u);

  const cluster::Topology topo = cluster.GetTopology();
  EXPECT_EQ(topo.chains_registered, 1u);
  EXPECT_EQ(topo.chain_execs, 1u);
  EXPECT_EQ(topo.chain_steps, 3u);

  // The mutation is acked at its post-chain size and the cluster
  // invariants (including strict placement) still hold.
  EXPECT_TRUE(cluster.CheckInvariants(/*strict=*/true).ok());
}

TEST(PushdownClusterTest, PointerChaseFollowsStoredContentAtTheOwner) {
  cluster::ClusterConfig config;
  config.initial_nodes = 4;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  cluster::Cluster& cluster = (*rig)->cluster();

  // Two labels with the SAME remote owner: a chain executes entirely
  // at one node, so every hop's key must live there.
  const std::string head = RemoteLabel(cluster, 0, "t1/chase");
  ASSERT_FALSE(head.empty());
  const uint32_t owner = cluster.map()->OwnerOfLabel(head);
  std::string tail;
  for (int i = 0; i < 256 && tail.empty(); ++i) {
    const std::string label = "t1/tail" + std::to_string(i);
    if (cluster.map()->OwnerOfLabel(label) == owner) tail = label;
  }
  ASSERT_FALSE(tail.empty());

  // head's stored bytes name tail's full device key; tail holds a
  // 32-byte payload, so size_out proves the chase reached it.
  ASSERT_TRUE(Drive(**rig, [&] {
                return cluster.PutBytes(
                    0, 0, head,
                    LinkValue(cluster::ClusterNode::KeyFor(tail), 21));
              }).ok());
  ASSERT_TRUE(Drive(**rig, [&] {
                return cluster.PutBytes(0, 0, tail, PatternBytes(22, 32));
              }).ok());
  ASSERT_TRUE(cluster.RegisterChain(
                  ipc::BuildPointerChaseChain(8, /*depth=*/2,
                                              /*key_bytes=*/32))
                  .ok());

  uint64_t size = 0;
  uint32_t steps = 0;
  ASSERT_TRUE(Drive(**rig, [&] {
                return cluster.ExecChain(0, 0, 8, head, &size, &steps);
              }).ok());
  EXPECT_EQ(steps, 3u);  // get, deref_key, get
  EXPECT_EQ(size, 32u);  // the tail payload came back
  EXPECT_EQ(cluster.node(owner)->pushdown()->crossings_saved(), 2u);
  EXPECT_TRUE(cluster.CheckInvariants(/*strict=*/true).ok());
}

TEST(PushdownClusterTest, JoinersAndRejoinersPickUpRegisteredChains) {
  cluster::ClusterConfig config;
  config.initial_nodes = 3;
  auto rig = ClusterRig::Create(config);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  cluster::Cluster& cluster = (*rig)->cluster();

  ASSERT_TRUE(cluster.RegisterChain(ipc::BuildRmwChain(9, 0, 1)).ok());
  for (const uint32_t id : cluster.LiveNodeIds()) {
    EXPECT_EQ(cluster.node(id)->pushdown()->ListChains().size(), 1u)
        << "node " << id;
  }

  // A joiner gets the registry before it can own anything.
  uint32_t joiner = 0;
  ASSERT_TRUE(Drive(**rig, [&] { return cluster.AddNode(&joiner); }).ok());
  ASSERT_NE(cluster.node(joiner), nullptr);
  EXPECT_EQ(cluster.node(joiner)->pushdown()->ListChains().size(), 1u);

  // A rejoiner's restarted runtime lost its in-memory registry; the
  // rejoin path re-broadcasts it.
  ASSERT_TRUE(cluster.CrashNode(1).ok());
  ASSERT_TRUE(Drive(**rig, [&] { return cluster.RejoinNode(1); }).ok());
  EXPECT_EQ(cluster.node(1)->pushdown()->ListChains().size(), 1u);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

}  // namespace
}  // namespace labstor::dst

int main(int argc, char** argv) {
  labstor::dst::InitSeeds(&argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
