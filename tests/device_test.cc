// Device completion layer: polled vs interrupt delivery.
//
//   * completion-mode resolution at driver attach (`completion:` param,
//     including the S4 regression: a non-polling device must REJECT a
//     polled attach instead of silently spinning forever);
//   * DST byte-identity: the same seeded workload produces the same
//     recovery-visible device bytes whether completions are polled or
//     interrupt-delivered — delivery affects time, never state;
//   * crash enumeration at interrupt-delivery boundaries (op durable,
//     waiter never notified: the classic lost-completion window).
//
// Own main: dst::InitSeeds strips --dst_seed so failures replay.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/debug_harness.h"
#include "core/orchestrator.h"
#include "core/sim_runtime.h"
#include "dst/crash_enum.h"
#include "dst/invariants.h"
#include "dst/rigs.h"
#include "dst/schedule.h"
#include "labmods/drivers.h"
#include "sim/environment.h"
#include "simdev/registry.h"

namespace labstor {
namespace {

// ---------------------------------------------------------------------------
// Completion-mode resolution at attach time.
// ---------------------------------------------------------------------------

class CompletionResolutionTest : public ::testing::Test {
 protected:
  Result<std::unique_ptr<core::DebugHarness>> Attach(
      simdev::DeviceParams params, const std::string& yaml) {
    auto dev = devices_.Create(std::move(params));
    if (!dev.ok()) return dev.status();
    device_ = *dev;
    core::ModContext ctx;
    ctx.devices = &devices_;
    auto parsed = yaml::Parse(yaml);
    if (!parsed.ok()) return parsed.status();
    return core::DebugHarness::Create("kernel_driver", *parsed, ctx);
  }

  simdev::DeviceRegistry devices_;
  simdev::SimDevice* device_ = nullptr;
};

TEST_F(CompletionResolutionTest, NonPollingDeviceRejectsPolledAttach) {
  // S4 regression: supports_polling used to be declared and never
  // consulted, so this attach silently produced a driver that would
  // poll a device that never posts pollable CQEs.
  auto params = simdev::DeviceParams::SataSsd(16 << 20);
  ASSERT_FALSE(params.supports_polling);
  auto harness = Attach(std::move(params), "device: ssd0\ncompletion: polling\n");
  ASSERT_FALSE(harness.ok());
  EXPECT_EQ(harness.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(harness.status().ToString().find("ssd0"), std::string::npos)
      << "the error must name the offending device: "
      << harness.status().ToString();
}

TEST_F(CompletionResolutionTest, DeviceDefaultDowngradesImpossiblePolling) {
  // A hand-rolled DeviceParams can claim kPolling on a device that
  // cannot be polled; the default `completion: device` resolution must
  // fall back to interrupts instead of honoring the contradiction.
  auto params = simdev::DeviceParams::SataSsd(16 << 20);
  params.completion_mode = simdev::CompletionMode::kPolling;  // misconfigured
  auto harness = Attach(std::move(params), "device: ssd0\n");
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  EXPECT_EQ(device_->completion_mode(), simdev::CompletionMode::kInterrupt);
}

TEST_F(CompletionResolutionTest, ExplicitModeOverridesTheDeviceDefault) {
  auto params = simdev::DeviceParams::NvmeP3700(16 << 20);
  ASSERT_TRUE(params.supports_polling);
  ASSERT_EQ(params.completion_mode, simdev::CompletionMode::kPolling);
  auto harness = Attach(std::move(params),
                        "device: nvme0\ncompletion: interrupt\n");
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  EXPECT_EQ(device_->completion_mode(), simdev::CompletionMode::kInterrupt);
}

TEST_F(CompletionResolutionTest, UnknownModeIsAnError) {
  auto harness = Attach(simdev::DeviceParams::NvmeP3700(16 << 20),
                        "device: nvme0\ncompletion: carrier-pigeon\n");
  ASSERT_FALSE(harness.ok());
  EXPECT_EQ(harness.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Byte identity across completion modes (DST).
// ---------------------------------------------------------------------------

sim::Task<void> SequentialFsOps(core::SimRuntime& rt, core::Stack& stack,
                                ipc::Request& req, uint64_t seed,
                                Status* out) {
  // One request reused across strictly-sequential ops: completion
  // delivery may stretch virtual time, but the op ORDER is fixed, so
  // any cross-mode divergence in device bytes is a real state bug.
  std::vector<uint8_t> payload(4096);
  for (int i = 0; i < 8; ++i) {
    const std::string path = "fs::/dev/f" + std::to_string(i);
    req.Reuse();
    req.op = ipc::OpCode::kCreate;
    req.SetPath(path);
    if (Status st = co_await rt.Execute(1, stack, req); !st.ok()) {
      *out = st;
      co_return;
    }
    for (size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<uint8_t>(seed + i + b);
    }
    req.Reuse();
    req.op = ipc::OpCode::kWrite;
    req.SetPath(path);
    req.offset = (static_cast<uint64_t>(i) % 3) * 1000;  // partials too
    req.length = payload.size();
    req.data = payload.data();
    if (Status st = co_await rt.Execute(1, stack, req); !st.ok()) {
      *out = st;
      co_return;
    }
  }
  *out = Status::Ok();
}

uint64_t DeviceDigest(simdev::SimDevice& dev) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  std::vector<uint8_t> block(4096);
  for (uint64_t off = 0; off < dev.params().capacity_bytes;
       off += block.size()) {
    EXPECT_TRUE(dev.ReadNow(off, block).ok());
    for (const uint8_t byte : block) {
      hash = (hash ^ byte) * 1099511628211ULL;
    }
  }
  return hash;
}

struct ModeRun {
  uint64_t digest = 0;
  uint64_t polled = 0;
  uint64_t interrupts = 0;
};

ModeRun RunSeededWorkload(uint64_t seed, const char* completion) {
  dst::Schedule sched(seed);
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  auto dev = devices.Create(simdev::DeviceParams::NvmeP3700(16 << 20));
  EXPECT_TRUE(dev.ok());
  core::SimRuntime rt(env, devices, 1);
  rt.SetScheduleHook(sched.MakeSimHook(20 * sim::kUs));
  auto stack = rt.MountYaml(std::string(
      "mount: fs::/dev\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_dev\n"
      "    params:\n"
      "      log_records_per_worker: 1024\n"
      "    outputs: [drv_dev]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_dev\n"
      "    params:\n"
      "      completion: ") + completion + "\n");
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  rt.RegisterQueue(1, 3 * sim::kUs);
  core::RoundRobinOrchestrator rr;
  rt.ApplyAssignment(rr.Rebalance({core::QueueLoad{1, 0, 0}}, 1));

  auto req = std::make_unique<ipc::Request>();
  Status status = Status::Internal("workload never ran");
  env.Spawn(SequentialFsOps(rt, **stack, *req, seed, &status));
  env.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();

  ModeRun run;
  run.digest = DeviceDigest(**dev);
  run.polled = rt.polled_completions();
  run.interrupts = rt.interrupt_completions();
  return run;
}

TEST(ModeByteIdentityTest, PolledAndInterruptRunsProduceIdenticalBytes) {
  for (const uint64_t seed : dst::SeedList()) {
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    const ModeRun polled = RunSeededWorkload(seed, "polling");
    const ModeRun irq = RunSeededWorkload(seed, "interrupt");
    // Delivery mechanisms actually differed...
    EXPECT_GT(polled.polled, 0u);
    EXPECT_EQ(polled.interrupts, 0u);
    EXPECT_GT(irq.interrupts, 0u);
    EXPECT_EQ(irq.polled, 0u);
    // ...and the durable state did not.
    EXPECT_EQ(polled.digest, irq.digest)
        << "completion delivery changed recovery-visible device bytes";
  }
}

TEST(ModeByteIdentityTest, SameSeedSameModeIsDeterministic) {
  const uint64_t seed = dst::SeedList().front();
  EXPECT_EQ(RunSeededWorkload(seed, "interrupt").digest,
            RunSeededWorkload(seed, "interrupt").digest);
}

// ---------------------------------------------------------------------------
// Crash enumeration at interrupt-delivery boundaries.
// ---------------------------------------------------------------------------

dst::Workload InterruptFsWorkload(size_t num_ops) {
  return [num_ops](dst::CrashRig& rig, dst::Schedule& sched,
                   const dst::DeviceJournal& journal,
                   dst::WorkloadLedger& ledger) -> Status {
    rig.device().set_completion_mode(simdev::CompletionMode::kInterrupt);
    labmods::GenericFs* fs = rig.fs();
    if (fs == nullptr) return Status::FailedPrecondition("rig has no fs");
    for (size_t i = 0; i < num_ops; ++i) {
      auto fd = fs->Create("fs::/dst/irq" + std::to_string(i));
      if (!fd.ok()) return fd.status();
      std::vector<uint8_t> data(sched.Range("irq.len", 1, 4096),
                                static_cast<uint8_t>(i + 1));
      auto wrote = fs->Write(*fd, data, 0);
      if (!wrote.ok()) return wrote.status();
      // The durable prefix at the moment the simulated IRQ would fire:
      // the op's writes are on the device, the waiter has not resumed.
      ledger.interrupt_boundaries.push_back(journal.entries());
    }
    return Status::Ok();
  };
}

TEST(InterruptCrashEnumTest, LostCompletionWindowsRecoverConsistently) {
  const dst::LabFsNoOrphanedBlocks no_orphans;
  const dst::LabFsReplayIdempotence idempotent;
  const std::vector<const dst::Invariant*> invariants{&no_orphans,
                                                      &idempotent};
  constexpr size_t kOps = 12;
  for (const uint64_t seed : dst::SeedList()) {
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    dst::Schedule sched(seed);
    auto report = dst::EnumerateCrashPoints(
        [] { return dst::CrashRig::Create(dst::StackKind::kLabFs); },
        InterruptFsWorkload(kOps), invariants, sched);
    ASSERT_TRUE(report.ok()) << report.status().ToString() << "; "
                             << sched.ReplayHint();
    EXPECT_GT(report->boundaries, 0u);
    // boundary x torn-prefix points + end-of-run + one reconstructed
    // prefix per interrupt boundary: exact, so none can be skipped.
    EXPECT_EQ(report->points_visited, report->boundaries * 5 + 1 + kOps)
        << sched.ReplayHint();
    EXPECT_TRUE(report->failures.empty())
        << report->Summary() << "\n"
        << sched.ReplayHint();
  }
}

}  // namespace
}  // namespace labstor

int main(int argc, char** argv) {
  labstor::dst::InitSeeds(&argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
