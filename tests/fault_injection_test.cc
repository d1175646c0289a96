// End-to-end fault injection: every fault class the failpoint registry
// can arm, driven through the real stack — device EIO/ENOSPC, torn log
// writes, queue-pair overflow, shmem attach failure, worker death,
// poisoned request slots, mid-DAG mount failure, partial StateRepair —
// asserting that each surfaces a Status (never a hang; the CMake entry
// puts a hard TIMEOUT on this binary) and that the recovery paths
// converge.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "faultinject/faultinject.h"
#include "labmods/genericfs.h"
#include "labmods/labfs.h"
#include "sim/environment.h"
#include "simdev/registry.h"
#include "telemetry/telemetry.h"

namespace labstor {
namespace {

using namespace std::chrono_literals;
using faultinject::FaultPolicy;

// One injector per test, seeded for reproducibility (LABSTOR_FAULTS_SEED
// overrides, which is how CI pins the probabilistic sites). Tests arm
// policies and then Install(); TearDown guarantees the process-wide
// pointer is cleared even when an assertion bails out early.
class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : injector_(faultinject::FaultInjector::SeedFromEnv(42)) {}
  void TearDown() override { injector_.Uninstall(); }

  static FaultPolicy Once(StatusCode code) {
    FaultPolicy policy;
    policy.trigger = FaultPolicy::Trigger::kOnce;
    policy.code = code;
    return policy;
  }
  static FaultPolicy Always(StatusCode code) {
    FaultPolicy policy;
    policy.code = code;
    return policy;
  }

  faultinject::FaultInjector injector_;
};

// Mounts a sync labfs stack on a fresh runtime; the common rig for the
// device- and log-level fault classes.
struct SyncFsRig {
  SyncFsRig()
      : devices(nullptr),
        runtime(MakeOptions(), devices),
        client(runtime, ipc::Credentials{100, 1000, 1000}),
        fs(client) {
    EXPECT_TRUE(
        devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
    auto spec = core::StackSpec::Parse(
        "mount: fs::/fi\n"
        "rules:\n"
        "  exec_mode: sync\n"
        "dag:\n"
        "  - mod: labfs\n"
        "    uuid: fi_fs\n"
        "    params:\n"
        "      log_records_per_worker: 256\n"
        "    outputs: [fi_drv]\n"
        "  - mod: kernel_driver\n"
        "    uuid: fi_drv\n");
    EXPECT_TRUE(spec.ok());
    auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    EXPECT_TRUE(client.Connect().ok());
  }

  static core::Runtime::Options MakeOptions() {
    core::Runtime::Options options;
    options.max_workers = 2;
    return options;
  }

  labmods::LabFsMod* labfs() {
    auto mod = runtime.registry().Find("fi_fs");
    EXPECT_TRUE(mod.ok());
    return dynamic_cast<labmods::LabFsMod*>(*mod);
  }

  simdev::DeviceRegistry devices;
  core::Runtime runtime;
  core::Client client;
  labmods::GenericFs fs;
};

TEST_F(FaultInjectionTest, DisabledFailpointsAreInert) {
  // The zero-overhead claim: with no injector installed the macro is a
  // branch on nullptr and the workload is untouched.
  ASSERT_EQ(faultinject::Active(), nullptr);
  SyncFsRig rig;
  auto fd = rig.fs.Create("fs::/fi/plain");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(4096, 9);
  EXPECT_TRUE(rig.fs.Write(*fd, data, 0).ok());
  EXPECT_TRUE(rig.fs.Read(*fd, data, 0).ok());
  // Installed but unarmed sites are equally inert.
  injector_.Install();
  EXPECT_FALSE(injector_.Evaluate("simdev.read.eio").has_value());
  EXPECT_TRUE(rig.fs.Read(*fd, data, 0).ok());
  EXPECT_EQ(injector_.total_fires(), 0u);
}

TEST_F(FaultInjectionTest, DeviceEioSurfacesOnRead) {
  SyncFsRig rig;
  auto fd = rig.fs.Create("fs::/fi/eio");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(4096, 1);
  ASSERT_TRUE(rig.fs.Write(*fd, data, 0).ok());

  injector_.Arm("simdev.read.eio", Once(StatusCode::kInternal));
  injector_.Install();
  EXPECT_EQ(rig.fs.Read(*fd, data, 0).status().code(), StatusCode::kInternal);
  EXPECT_EQ(injector_.fires("simdev.read.eio"), 1u);
  // kOnce: the next read goes through.
  EXPECT_TRUE(rig.fs.Read(*fd, data, 0).ok());
}

TEST_F(FaultInjectionTest, DeviceFullSurfacesEnospc) {
  SyncFsRig rig;
  auto fd = rig.fs.Create("fs::/fi/full");
  ASSERT_TRUE(fd.ok());
  injector_.Arm("simdev.write.full", Once(StatusCode::kResourceExhausted));
  injector_.Install();
  std::vector<uint8_t> data(4096, 2);
  EXPECT_EQ(rig.fs.Write(*fd, data, 0).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(rig.fs.Write(*fd, data, 0).ok());
}

TEST_F(FaultInjectionTest, TornLogWriteIsDroppedOnReplay) {
  SyncFsRig rig;
  auto fd = rig.fs.Create("fs::/fi/a");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(8192, 7);
  ASSERT_TRUE(rig.fs.Write(*fd, data, 0).ok());

  // Tear the NEXT log append after 16 persisted bytes: magic and seq
  // land on the device, the payload and crc don't — the classic torn
  // tail a crash leaves behind.
  FaultPolicy torn = Once(StatusCode::kUnavailable);
  torn.arg = 16;
  injector_.Arm("simdev.write.torn", torn);
  injector_.Install();
  EXPECT_EQ(rig.fs.Create("fs::/fi/b").status().code(),
            StatusCode::kUnavailable);
  injector_.Uninstall();

  auto* labfs = rig.labfs();
  ASSERT_NE(labfs, nullptr);
  // The failed create rolled its inode back.
  EXPECT_FALSE(labfs->Exists("fs::/fi/b"));
  // Crash-repair replays the log; the torn record is detected by its
  // crc and dropped as the region's tail instead of replayed as junk.
  ASSERT_TRUE(rig.runtime.registry().RepairAll().ok());
  EXPECT_GE(labfs->log_torn_dropped(), 1u);
  EXPECT_TRUE(labfs->Exists("fs::/fi/a"));
  auto size = labfs->FileSize("fs::/fi/a");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, data.size());
  // The slot is reusable: the create now succeeds.
  EXPECT_TRUE(rig.fs.Create("fs::/fi/b").ok());
}

TEST_F(FaultInjectionTest, PartialStateRepairConverges) {
  SyncFsRig rig;
  auto fd = rig.fs.Create("fs::/fi/repair");
  ASSERT_TRUE(fd.ok());
  injector_.Arm("core.repair.partial", Once(StatusCode::kInternal));
  injector_.Install();
  EXPECT_FALSE(rig.runtime.registry().RepairAll().ok());
  // StateRepair is idempotent clear-and-rebuild: the retry converges.
  ASSERT_TRUE(rig.runtime.registry().RepairAll().ok());
  EXPECT_TRUE(rig.labfs()->Exists("fs::/fi/repair"));
}

TEST_F(FaultInjectionTest, MountStackMidDagFailureLeavesNamespaceClean) {
  simdev::DeviceRegistry devices(nullptr);
  core::Runtime runtime(SyncFsRig::MakeOptions(), devices);
  ASSERT_TRUE(devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  auto spec = core::StackSpec::Parse(
      "mount: fs::/middag\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: middag_fs\n"
      "    outputs: [middag_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: middag_drv\n");
  ASSERT_TRUE(spec.ok());

  injector_.Arm("core.mount.middag", Once(StatusCode::kInternal));
  injector_.Install();
  EXPECT_FALSE(runtime.MountStack(*spec, ipc::Credentials{1, 0, 0}).ok());
  EXPECT_EQ(runtime.ns().size(), 0u);  // no half-mounted stack
  // kOnce consumed: the retry mounts and serves traffic.
  ASSERT_TRUE(runtime.MountStack(*spec, ipc::Credentials{1, 0, 0}).ok());
  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  EXPECT_TRUE(fs.Create("fs::/middag/ok").ok());
}

TEST_F(FaultInjectionTest, ShmemAttachFailureSurfacesAndRecovers) {
  SyncFsRig rig;
  injector_.Arm("ipc.connect.shmem", Once(StatusCode::kUnavailable));
  injector_.Install();
  core::Client late(rig.runtime, ipc::Credentials{200, 1000, 1000});
  EXPECT_EQ(late.Connect().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(late.connected());
  // The transient attach failure clears; reconnect succeeds.
  ASSERT_TRUE(late.Connect().ok());
  EXPECT_TRUE(late.connected());
}

// --- async-runtime fault classes ---

struct AsyncRig {
  explicit AsyncRig(size_t workers,
                    std::chrono::milliseconds request_timeout = 100ms,
                    core::RetryPolicy retry = {})
      : devices(nullptr),
        runtime(MakeOptions(workers, request_timeout), devices),
        client(runtime, ipc::Credentials{100, 1000, 1000}, retry) {
    EXPECT_TRUE(
        devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
    auto spec = core::StackSpec::Parse(
        "mount: ctl::/fi\n"
        "rules:\n"
        "  exec_mode: async\n"
        "dag:\n"
        "  - mod: dummy\n"
        "    uuid: fi_dummy\n");
    EXPECT_TRUE(spec.ok());
    auto mounted = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(mounted.ok()) << mounted.status().ToString();
    stack = *mounted;
    EXPECT_TRUE(runtime.Start().ok());
    EXPECT_TRUE(client.Connect().ok());
  }
  ~AsyncRig() {
    if (runtime.running()) (void)runtime.Stop();
  }

  static core::Runtime::Options MakeOptions(
      size_t workers, std::chrono::milliseconds request_timeout) {
    core::Runtime::Options options;
    options.max_workers = workers;
    options.admin_poll = 2ms;
    options.ipc.request_timeout = request_timeout;
    return options;
  }

  Status ExecuteDummy() {
    auto req = client.NewRequest();
    EXPECT_TRUE(req.ok());
    (*req)->op = ipc::OpCode::kDummy;
    return client.Execute(**req, *stack);
  }

  simdev::DeviceRegistry devices;
  core::Runtime runtime;
  core::Client client;
  core::Stack* stack = nullptr;
};

TEST_F(FaultInjectionTest, QueueOverflowSubmissionTimesOutNotHangs) {
  core::RetryPolicy retry;
  retry.submit_deadline = 100ms;
  AsyncRig rig(/*workers=*/2, /*request_timeout=*/1000ms, retry);
  injector_.Arm("ipc.qp.overflow", Always(StatusCode::kResourceExhausted));
  injector_.Install();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(rig.ExecuteDummy().code(), StatusCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s) << "bounded, no hang";
}

TEST_F(FaultInjectionTest, QueueOverflowTransientRetriesSucceed) {
  AsyncRig rig(/*workers=*/2);
  injector_.Arm("ipc.qp.overflow", Once(StatusCode::kResourceExhausted));
  injector_.Install();
  EXPECT_TRUE(rig.ExecuteDummy().ok());
  EXPECT_EQ(injector_.fires("ipc.qp.overflow"), 1u);
}

TEST_F(FaultInjectionTest, WorkerDeathRequestRecoveredByRetry) {
  core::RetryPolicy retry;
  retry.max_attempts = 6;
  AsyncRig rig(/*workers=*/2, /*request_timeout=*/100ms, retry);
  injector_.Arm("core.worker.death", Once(StatusCode::kInternal));
  injector_.Install();
  // The first worker to dequeue the request dies with it; the client's
  // wait times out, it resubmits, and the surviving worker (handed the
  // dead worker's queues by the death-time rebalance) completes it.
  EXPECT_TRUE(rig.ExecuteDummy().ok());
  EXPECT_GE(rig.client.retries(), 1u);
  EXPECT_EQ(rig.runtime.dead_workers(), 1u);
  // Later traffic flows without further retries.
  EXPECT_TRUE(rig.ExecuteDummy().ok());
}

TEST_F(FaultInjectionTest, AllWorkersDeadDeadlineExceeded) {
  core::RetryPolicy retry;
  retry.max_attempts = 2;
  AsyncRig rig(/*workers=*/1, /*request_timeout=*/50ms, retry);
  injector_.Arm("core.worker.death", Always(StatusCode::kInternal));
  injector_.Install();
  // The only worker dies; every retry times out; the client reports
  // DEADLINE_EXCEEDED semantics instead of wedging forever.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(rig.ExecuteDummy().code(), StatusCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 30s) << "bounded, no hang";
  EXPECT_EQ(rig.runtime.dead_workers(), 1u);
}

TEST_F(FaultInjectionTest, PoisonedSlotCompletesWithCorruptionNotRetried) {
  AsyncRig rig(/*workers=*/2);
  injector_.Arm("ipc.slot.poison", Once(StatusCode::kCorruption));
  injector_.Install();
  // The worker rejects the poisoned request without executing it. A
  // completed verdict is FINAL: the client must not blindly retry a
  // corruption (it could double-apply a mutation).
  EXPECT_EQ(rig.ExecuteDummy().code(), StatusCode::kCorruption);
  EXPECT_EQ(rig.client.retries(), 0u);
  EXPECT_TRUE(rig.ExecuteDummy().ok());
}

// --- sim-time windows, determinism, YAML, telemetry ---

sim::Task<void> TimedWrites(sim::Environment& env, simdev::SimDevice& dev) {
  // t = 0: outside the [1ms, 2ms) window — must not fire.
  co_await dev.WriteTimed(0, 0, 4096);
  co_await env.Delay(sim::Time{1500} * sim::kUs);  // into the window
  co_await dev.WriteTimed(0, 4096, 4096);          // fires
}

TEST_F(FaultInjectionTest, SimWindowOnlyFiresInsideWindow) {
  sim::Environment env;
  simdev::SimDevice dev(&env, simdev::DeviceParams::PmemEmulated(16 << 20));
  FaultPolicy spike;
  spike.sim_window = true;
  spike.window_start_ns = 1000 * sim::kUs;  // [1ms, 2ms)
  spike.window_end_ns = 2000 * sim::kUs;
  spike.arg = 100 * sim::kUs;
  injector_.Arm("simdev.latency.spike", spike);
  injector_.AttachSimEnv(&env);
  injector_.Install();
  env.Spawn(TimedWrites(env, dev));
  env.Run();
  EXPECT_EQ(injector_.fires("simdev.latency.spike"), 1u);

  // A windowed site with NO attached environment must never fire:
  // there is no clock to be inside the window of.
  faultinject::FaultInjector clockless(42);
  clockless.Arm("simdev.latency.spike", spike);
  EXPECT_FALSE(clockless.Evaluate("simdev.latency.spike").has_value());
}

TEST_F(FaultInjectionTest, LatencySpikeStretchesVirtualTime) {
  sim::Environment env;
  simdev::SimDevice dev(&env, simdev::DeviceParams::PmemEmulated(16 << 20));
  FaultPolicy spike;
  spike.arg = 500 * sim::kUs;  // +500us per op
  injector_.Arm("simdev.latency.spike", spike);
  injector_.AttachSimEnv(&env);
  injector_.Install();
  env.Spawn(dev.WriteTimed(0, 0, 4096));
  const sim::Time with_spike = env.Run();
  EXPECT_GE(with_spike, 500 * sim::kUs);
}

TEST_F(FaultInjectionTest, ProbabilisticFiringIsSeedDeterministic) {
  faultinject::FaultInjector a(1234);
  faultinject::FaultInjector b(1234);
  FaultPolicy coin;
  coin.trigger = FaultPolicy::Trigger::kProbability;
  coin.probability = 0.5;
  a.Arm("coin.flip", coin);
  b.Arm("coin.flip", coin);
  std::vector<bool> fires_a;
  std::vector<bool> fires_b;
  for (int i = 0; i < 256; ++i) {
    fires_a.push_back(a.Evaluate("coin.flip").has_value());
    fires_b.push_back(b.Evaluate("coin.flip").has_value());
  }
  EXPECT_EQ(fires_a, fires_b);  // same seed, same sequence
  EXPECT_GT(a.total_fires(), 0u);
  EXPECT_LT(a.total_fires(), 256u);  // actually probabilistic
}

TEST_F(FaultInjectionTest, EveryNFiresOnSchedule) {
  FaultPolicy every3;
  every3.trigger = FaultPolicy::Trigger::kEveryN;
  every3.every_n = 3;
  injector_.Arm("tick.tock", every3);
  int fired = 0;
  for (int i = 1; i <= 9; ++i) {
    if (injector_.Evaluate("tick.tock").has_value()) {
      ++fired;
      EXPECT_EQ(i % 3, 0) << "fired off-schedule at hit " << i;
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(FaultInjectionTest, YamlConfigArmsPolicies) {
  const Status st = injector_.LoadYaml(
      "seed: 7\n"
      "faults:\n"
      "  - site: simdev.write.eio\n"
      "    trigger: every_n\n"
      "    n: 32\n"
      "    code: internal\n"
      "    message: injected device EIO\n"
      "  - site: simdev.latency.spike\n"
      "    trigger: probability\n"
      "    p: 0.05\n"
      "    arg: 100000\n"
      "  - site: ipc.qp.overflow\n"
      "    trigger: once\n"
      "    window_start_us: 10\n"
      "    window_end_us: 20\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(injector_.IsArmed("simdev.write.eio"));
  EXPECT_TRUE(injector_.IsArmed("simdev.latency.spike"));
  EXPECT_TRUE(injector_.IsArmed("ipc.qp.overflow"));
  EXPECT_FALSE(injector_.IsArmed("simdev.read.eio"));

  EXPECT_FALSE(injector_.LoadYaml("faults:\n"
                                  "  - site: x\n"
                                  "    trigger: sometimes\n")
                   .ok());
  EXPECT_FALSE(injector_.LoadYaml("faults:\n"
                                  "  - site: x\n"
                                  "    code: not_a_code\n")
                   .ok());
  EXPECT_FALSE(injector_.LoadYaml("faults:\n"
                                  "  - trigger: once\n")  // missing site
                   .ok());
}

TEST_F(FaultInjectionTest, TelemetryCountsEveryFire) {
  telemetry::Telemetry tel;
  injector_.AttachTelemetry(&tel);
  injector_.Arm("audit.me", Always(StatusCode::kInternal));
  injector_.Install();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector_.InjectStatus("audit.me").code(),
              StatusCode::kInternal);
  }
  EXPECT_EQ(tel.metrics().GetCounter("faultinject.fired")->Value(), 5u);
  EXPECT_EQ(tel.metrics().GetCounter("faultinject.fired.audit.me")->Value(),
            5u);
  EXPECT_EQ(injector_.total_fires(), 5u);
}

TEST_F(FaultInjectionTest, NoUnhandledFaultsUnderInjectedWorkload) {
  // The audit the CI job enforces: no drained request is lost. Every
  // op must end with its own verdict — ok, or exactly the injected
  // error — on the first submission. A request the runtime dropped
  // would instead surface as a Wait timeout, a transport retry, and
  // finally kTimeout.
  telemetry::Telemetry tel;
  core::RetryPolicy retry;
  retry.max_attempts = 6;
  simdev::DeviceRegistry devices(nullptr);
  // A generous Wait bound: only a lost request, never a slow host,
  // may turn into a retry.
  core::Runtime::Options options = AsyncRig::MakeOptions(2, 2s);
  options.telemetry = &tel;
  core::Runtime runtime(std::move(options), devices);
  ASSERT_TRUE(devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  auto spec = core::StackSpec::Parse(
      "mount: ctl::/audit\n"
      "rules:\n"
      "  exec_mode: async\n"
      "dag:\n"
      "  - mod: dummy\n"
      "    uuid: audit_dummy\n");
  ASSERT_TRUE(spec.ok());
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok());
  ASSERT_TRUE(runtime.Start().ok());
  core::Client client(runtime, ipc::Credentials{100, 1000, 1000}, retry);
  ASSERT_TRUE(client.Connect().ok());

  FaultPolicy flaky;
  flaky.trigger = FaultPolicy::Trigger::kEveryN;
  flaky.every_n = 7;
  flaky.code = StatusCode::kCorruption;
  injector_.Arm("ipc.slot.poison", flaky);
  injector_.AttachTelemetry(&tel);
  injector_.Install();

  int ok_ops = 0;
  int failed_ops = 0;
  for (int i = 0; i < 64; ++i) {
    auto req = client.NewRequest();
    ASSERT_TRUE(req.ok());
    (*req)->op = ipc::OpCode::kDummy;
    const Status st = client.Execute(**req, **stack);
    if (st.ok()) {
      ++ok_ops;
    } else {
      ++failed_ops;
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << "op " << i << " did not end with the injected error: "
          << st.ToString();
    }
  }
  ASSERT_TRUE(runtime.Stop().ok());
  EXPECT_GT(ok_ops, 0);
  EXPECT_GT(failed_ops, 0);  // the injection actually bit
  EXPECT_EQ(client.retries(), 0u) << "a drained request was lost";
}

}  // namespace
}  // namespace labstor
