// Deterministic-simulation harness (src/dst, DESIGN.md §8).
//
// This binary has its own main: dst::InitSeeds strips --dst_seed /
// --dst_random_seeds before gtest sees argv, so CI can pin a failing
// seed (`test_dst --dst_seed=0x...`) or widen the sweep
// (`test_dst --dst_random_seeds=25`).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/sim_runtime.h"
#include "dst/crash_enum.h"
#include "dst/invariants.h"
#include "dst/journal.h"
#include "dst/model.h"
#include "dst/rigs.h"
#include "dst/schedule.h"
#include "dst/workloads.h"
#include "faultinject/faultinject.h"
#include "ipc/shmem.h"
#include "labmods/fslog.h"
#include "simdev/registry.h"

namespace labstor::dst {
namespace {

// ---------------------------------------------------------------------------
// Schedule: seeded per-site decision streams.
// ---------------------------------------------------------------------------

TEST(ScheduleTest, SameSeedSameDraws) {
  Schedule a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64("x"), b.NextU64("x"));
    EXPECT_EQ(a.Range("y", 3, 999), b.Range("y", 3, 999));
    EXPECT_EQ(a.Chance("z", 0.3), b.Chance("z", 0.3));
    EXPECT_EQ(a.Jitter("j", 5000), b.Jitter("j", 5000));
  }
}

TEST(ScheduleTest, DifferentSeedsDiverge) {
  Schedule a(1), b(2);
  bool diverged = false;
  for (int i = 0; i < 32 && !diverged; ++i) {
    diverged = a.NextU64("x") != b.NextU64("x");
  }
  EXPECT_TRUE(diverged);
}

// A site's stream must not depend on which OTHER sites exist or when
// they were first touched — that is what makes old seeds replayable on
// builds that added new decision sites.
TEST(ScheduleTest, SiteStreamsIndependentOfCreationOrder) {
  Schedule a(7), b(7);
  // a touches "extra" first; b never touches it.
  (void)a.NextU64("extra.site");
  std::vector<uint64_t> from_a, from_b;
  for (int i = 0; i < 16; ++i) {
    from_a.push_back(a.NextU64("stable.site"));
    from_b.push_back(b.NextU64("stable.site"));
  }
  EXPECT_EQ(from_a, from_b);
}

TEST(ScheduleTest, ReplayHintNamesTheSeed) {
  Schedule s(0xABCD);
  EXPECT_NE(s.ReplayHint().find("--dst_seed=0xabcd"), std::string::npos);
}

TEST(ScheduleTest, ZeroJitterBoundIsSafe) {
  Schedule s(3);
  EXPECT_EQ(s.Jitter("site", 0), 0u);
}

// ---------------------------------------------------------------------------
// Environment::StepOne: single-event stepping for external controllers.
// ---------------------------------------------------------------------------

sim::Task<void> BumpAfter(sim::Environment& env, sim::Time delay, int* count) {
  co_await env.Delay(delay);
  ++*count;
}

TEST(StepOneTest, ExecutesExactlyOneEventAndHonorsDeadline) {
  sim::Environment env;
  int count = 0;
  env.Spawn(BumpAfter(env, 10, &count));
  env.Spawn(BumpAfter(env, 20, &count));

  // Two start events at t=0, then the two delayed resumes.
  EXPECT_TRUE(env.StepOne());  // first task runs to its Delay
  EXPECT_TRUE(env.StepOne());  // second task runs to its Delay
  EXPECT_EQ(count, 0);
  EXPECT_EQ(env.now(), 0u);

  // Deadline before the next event: no side effects.
  EXPECT_FALSE(env.StepOne(5));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(env.now(), 0u);

  EXPECT_TRUE(env.StepOne());  // t=10 resume
  EXPECT_EQ(count, 1);
  EXPECT_EQ(env.now(), 10u);
  EXPECT_TRUE(env.StepOne());  // t=20 resume
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(env.StepOne());  // queue drained

  env.Run();  // reap roots
}

// ---------------------------------------------------------------------------
// SimRuntime under a schedule hook: same seed => byte-identical trace.
// ---------------------------------------------------------------------------

sim::Task<void> NotedRequest(sim::Environment& env, core::SimRuntime& rt,
                             uint32_t qid, core::Stack& stack,
                             ipc::Request& req, Schedule& sched,
                             std::string tag) {
  const Status st = co_await rt.Execute(qid, stack, req);
  sched.Note(tag + " ok=" + (st.ok() ? "1" : "0") +
             " t=" + std::to_string(env.now()));
}

// Runs a small async workload whose interleaving is perturbed by the
// schedule's jitter streams, and returns the full event trace.
std::string RunJitteredScenario(uint64_t seed) {
  Schedule sched(seed);
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  EXPECT_TRUE(devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  core::SimRuntime rt(env, devices, 2);
  rt.SetScheduleHook(sched.MakeSimHook(20 * sim::kUs));
  auto stack = rt.MountYaml(
      "mount: fs::/tr\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_trace\n"
      "    params:\n"
      "      log_records_per_worker: 1024\n"
      "    outputs: [drv_trace]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_trace\n");
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  rt.RegisterQueue(1, 3 * sim::kUs);
  rt.RegisterQueue(2, 3 * sim::kUs);
  core::RoundRobinOrchestrator rr;
  rt.ApplyAssignment(
      rr.Rebalance({core::QueueLoad{1, 0, 0}, core::QueueLoad{2, 0, 0}}, 2));

  constexpr size_t kReqs = 6;
  std::vector<uint8_t> data(4096, 0x5A);
  // Requests hold atomics and cannot move; fixed storage.
  auto reqs = std::make_unique<std::array<ipc::Request, kReqs>>();
  for (size_t i = 0; i < kReqs; ++i) {
    ipc::Request& req = (*reqs)[i];
    if (i % 2 == 0) {
      req.op = ipc::OpCode::kCreate;
      req.SetPath("fs::/tr/f" + std::to_string(i));
    } else {
      req.op = ipc::OpCode::kCreate;
      req.SetPath("fs::/tr/g" + std::to_string(i));
    }
    env.Spawn(NotedRequest(env, rt, static_cast<uint32_t>(1 + i % 2), **stack,
                           req, sched, "req" + std::to_string(i)));
  }
  const sim::Time end = env.Run();
  sched.Note("end t=" + std::to_string(end));
  (void)data;
  return sched.trace();
}

TEST(SimTraceTest, SameSeedByteIdenticalTrace) {
  const std::string first = RunJitteredScenario(0xFEED);
  const std::string second = RunJitteredScenario(0xFEED);
  EXPECT_EQ(first, second) << "same seed must replay the same schedule";
  EXPECT_FALSE(first.empty());
}

TEST(SimTraceTest, DifferentSeedsPerturbTheSchedule) {
  // Jitter draws differ, so completion timestamps (and possibly order)
  // diverge between seeds.
  EXPECT_NE(RunJitteredScenario(1), RunJitteredScenario(2));
}

// ---------------------------------------------------------------------------
// Crash-point enumeration: every fslog append boundary, every torn
// prefix class, every invariant — across the whole seed sweep.
// ---------------------------------------------------------------------------

RigFactory RigOf(StackKind kind) {
  return [kind] { return CrashRig::Create(kind); };
}

Workload FsWorkload(size_t num_ops) {
  return [num_ops](CrashRig& rig, Schedule& sched, const DeviceJournal& journal,
                   WorkloadLedger& ledger) {
    return RunFsWorkload(rig, sched, journal, ledger.fs, num_ops);
  };
}

Workload KvsWorkload(size_t num_ops) {
  return [num_ops](CrashRig& rig, Schedule& sched, const DeviceJournal& journal,
                   WorkloadLedger& ledger) {
    return RunKvsWorkload(rig, sched, journal, ledger.kv, num_ops);
  };
}

TEST(CrashEnumTest, LabFsEveryCrashPointRecoversConsistently) {
  const LabFsNoLostAckedWrites no_lost;
  const LabFsNoOrphanedBlocks no_orphans;
  const LabFsReplayIdempotence idempotent;
  const std::vector<const Invariant*> invariants{&no_lost, &no_orphans,
                                                 &idempotent};
  for (const uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    Schedule sched(seed);
    auto report = EnumerateCrashPoints(
        RigOf(StackKind::kLabFs),
        FsWorkload(25), invariants, sched);
    ASSERT_TRUE(report.ok()) << report.status().ToString() << "; "
                             << sched.ReplayHint();
    EXPECT_GT(report->boundaries, 0u) << sched.ReplayHint();
    // 256-byte records, stride 64: prefixes 0/64/128/192 + the fully
    // persisted record = 5 recovery states per boundary, plus the
    // end-of-run state. Exact, so a silently skipped boundary fails.
    EXPECT_EQ(report->points_visited, report->boundaries * 5 + 1)
        << sched.ReplayHint();
    EXPECT_TRUE(report->failures.empty())
        << report->Summary() << "\n"
        << sched.ReplayHint();
  }
}

TEST(CrashEnumTest, LabKvsEveryCrashPointRecoversConsistently) {
  const LabKvsAckedPutsVisible visible;
  const std::vector<const Invariant*> invariants{&visible};
  for (const uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    Schedule sched(seed);
    auto report = EnumerateCrashPoints(
        RigOf(StackKind::kLabKvs),
        KvsWorkload(20), invariants, sched);
    ASSERT_TRUE(report.ok()) << report.status().ToString() << "; "
                             << sched.ReplayHint();
    EXPECT_GT(report->boundaries, 0u) << sched.ReplayHint();
    EXPECT_EQ(report->points_visited, report->boundaries * 5 + 1)
        << sched.ReplayHint();
    EXPECT_TRUE(report->failures.empty())
        << report->Summary() << "\n"
        << sched.ReplayHint();
  }
}

TEST(CrashEnumTest, EnumerationTraceIsDeterministic) {
  const auto run = [](uint64_t seed) {
    Schedule sched(seed);
    const LabFsNoOrphanedBlocks no_orphans;
    auto report = EnumerateCrashPoints(
        RigOf(StackKind::kLabFs),
        FsWorkload(10), {&no_orphans}, sched);
    EXPECT_TRUE(report.ok());
    return sched.trace();
  };
  const uint64_t seed = SeedList().front();
  const std::string first = run(seed);
  EXPECT_EQ(first, run(seed));
  EXPECT_FALSE(first.empty());
}

// A deliberately impossible invariant: proves a violation surfaces as
// a failure whose detail names the seed that replays it.
class AlwaysViolated final : public Invariant {
 public:
  std::string_view name() const override { return "test.always_violated"; }
  Status Check(const InvariantContext& ctx) const override {
    return Status::Internal("deliberate violation at boundary " +
                            std::to_string(ctx.point.boundary));
  }
};

TEST(CrashEnumTest, FailingInvariantReportsReplayableSeed) {
  Schedule sched(0xBADBEEF);
  const AlwaysViolated bad;
  auto report = EnumerateCrashPoints(
      RigOf(StackKind::kLabKvs),
      KvsWorkload(4), {&bad}, sched);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->failures.empty());
  EXPECT_FALSE(report->ok());
  for (const CrashFailure& f : report->failures) {
    EXPECT_NE(f.detail.find("--dst_seed=0xbadbeef"), std::string::npos)
        << f.detail;
    EXPECT_EQ(f.invariant, "test.always_violated");
  }
  EXPECT_NE(report->Summary().find("--dst_seed=0xbadbeef"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshotable shared memory: crash-rollback semantics.
// ---------------------------------------------------------------------------

TEST(ShMemSnapshotTest, RestoreRollsBackBytesAndCursor) {
  ipc::ShMemSegment seg(1, 4096, ipc::Credentials{1, 0, 0});
  auto* a = seg.New<uint64_t>(0x1111'1111ULL);
  ASSERT_NE(a, nullptr);
  const size_t bytes_at_snap = seg.allocated_bytes();
  const Arena::Snapshot snap = seg.Snapshot();

  // Mutate pre-snapshot state and allocate past the checkpoint.
  *a = 0x2222'2222ULL;
  auto* b = seg.New<uint64_t>(0x3333'3333ULL);
  ASSERT_NE(b, nullptr);
  ASSERT_GT(seg.allocated_bytes(), bytes_at_snap);

  ASSERT_TRUE(seg.Restore(snap).ok());
  EXPECT_EQ(*a, 0x1111'1111ULL) << "mutation after the snapshot must vanish";
  EXPECT_EQ(seg.allocated_bytes(), bytes_at_snap);

  // The rolled-back region is reusable: the next allocation lands where
  // `b` was, exactly as after a real crash + restart.
  auto* c = seg.New<uint64_t>(0x4444'4444ULL);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(static_cast<void*>(c), static_cast<void*>(b));
}

TEST(ShMemSnapshotTest, RestoreRejectsForeignSnapshot) {
  ipc::ShMemSegment seg(1, 4096, ipc::Credentials{1, 0, 0});
  ipc::ShMemSegment other(2, 8192, ipc::Credentials{1, 0, 0});
  ASSERT_NE(other.New<uint64_t>(1), nullptr);
  const Arena::Snapshot snap = other.Snapshot();
  // 8192-byte chunk layout cannot restore into a 4096-byte arena.
  EXPECT_FALSE(seg.Restore(snap).ok());
}

// ---------------------------------------------------------------------------
// FsLog torn-tail accounting (regression): the cumulative counter used
// to be the only signal, so a second Replay over the same log doubled
// the count and per-scan assertions passed or failed by accident.
// ---------------------------------------------------------------------------

TEST(FsLogStatsTest, TornCounterIsPerReplayAndResettable) {
  simdev::DeviceRegistry devices(nullptr);
  auto dev = devices.Create(simdev::DeviceParams::NvmeP3700(1 << 20));
  ASSERT_TRUE(dev.ok());
  labmods::MetadataLog log(*dev, 0, 1, 16);

  labmods::LogRecord rec;
  rec.op = labmods::LogOp::kCreate;
  rec.SetPath("fs::/x/a");
  ASSERT_TRUE(log.Append(0, rec).ok());
  rec.SetPath("fs::/x/b");
  ASSERT_TRUE(log.Append(0, rec).ok());

  // Tear the third append: the device persists only the first 100
  // bytes (magic survives, crc does not), exactly the torn-write model
  // Replay must detect.
  {
    faultinject::FaultInjector fi(7);
    faultinject::FaultPolicy torn;
    torn.trigger = faultinject::FaultPolicy::Trigger::kOnce;
    torn.arg = 100;
    fi.Arm("simdev.write.torn", torn);
    faultinject::ScopedInstall install(fi);
    rec.SetPath("fs::/x/c");
    EXPECT_FALSE(log.Append(0, rec).ok()) << "torn write surfaces an error";
  }

  const auto count_records = [&log] {
    size_t n = 0;
    EXPECT_TRUE(log.Replay([&n](const labmods::LogRecord&) {
                     ++n;
                     return Status::Ok();
                   }).ok());
    return n;
  };

  EXPECT_EQ(count_records(), 2u);
  EXPECT_EQ(log.last_replay_torn_dropped(), 1u);
  EXPECT_EQ(log.torn_records_dropped(), 1u);

  // Second scan of the same log: per-replay count stays 1 (the
  // regression had no per-scan signal; the cumulative one doubles).
  EXPECT_EQ(count_records(), 2u);
  EXPECT_EQ(log.last_replay_torn_dropped(), 1u);
  EXPECT_EQ(log.torn_records_dropped(), 2u);

  log.ResetStats();
  EXPECT_EQ(log.last_replay_torn_dropped(), 0u);
  EXPECT_EQ(log.torn_records_dropped(), 0u);
  EXPECT_EQ(count_records(), 2u);
  EXPECT_EQ(log.last_replay_torn_dropped(), 1u);
  EXPECT_EQ(log.torn_records_dropped(), 1u);
}

// ---------------------------------------------------------------------------
// DeviceJournal: prefix replay reconstructs exact device states.
// ---------------------------------------------------------------------------

TEST(DeviceJournalTest, PrefixReplayReconstructsTornState) {
  simdev::DeviceRegistry devices(nullptr);
  auto dev = devices.Create(simdev::DeviceParams::NvmeP3700(1 << 20));
  ASSERT_TRUE(dev.ok());

  DeviceJournal journal;
  journal.Attach(**dev);
  const std::vector<uint8_t> first = PatternBytes(1, 512);
  const std::vector<uint8_t> second = PatternBytes(2, 512);
  ASSERT_TRUE((*dev)->WriteNow(0, first).ok());
  ASSERT_TRUE((*dev)->WriteNow(4096, second).ok());
  DeviceJournal::Detach(**dev);
  ASSERT_EQ(journal.entries(), 2u);

  // Replay entry 0 in full plus 128 torn bytes of entry 1.
  simdev::DeviceParams fresh_params = simdev::DeviceParams::NvmeP3700(1 << 20);
  fresh_params.name = "nvme_fresh";
  auto fresh = devices.Create(fresh_params);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(journal.ReplayInto(**fresh, 1, 128).ok());

  std::vector<uint8_t> got(512);
  ASSERT_TRUE((*fresh)->ReadNow(0, got).ok());
  EXPECT_EQ(got, first);
  ASSERT_TRUE((*fresh)->ReadNow(4096, got).ok());
  EXPECT_TRUE(std::equal(second.begin(), second.begin() + 128, got.begin()));
  const std::vector<uint8_t> zeros(512 - 128, 0);
  EXPECT_TRUE(std::equal(got.begin() + 128, got.end(), zeros.begin()))
      << "bytes past the torn prefix must be absent";
}

TEST(DeviceJournalTest, LogBoundariesSelectRegionWrites) {
  simdev::DeviceRegistry devices(nullptr);
  auto dev = devices.Create(simdev::DeviceParams::NvmeP3700(1 << 20));
  ASSERT_TRUE(dev.ok());
  DeviceJournal journal;
  journal.Attach(**dev);
  const std::vector<uint8_t> blob(256, 0xAA);
  ASSERT_TRUE((*dev)->WriteNow(0, blob).ok());        // in log region
  ASSERT_TRUE((*dev)->WriteNow(100000, blob).ok());   // data region
  ASSERT_TRUE((*dev)->WriteNow(256, blob).ok());      // in log region
  DeviceJournal::Detach(**dev);
  const std::vector<size_t> boundaries = journal.LogBoundaries(0, 4096);
  EXPECT_EQ(boundaries, (std::vector<size_t>{0, 2}));
}

}  // namespace
}  // namespace labstor::dst

int main(int argc, char** argv) {
  labstor::dst::InitSeeds(&argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
