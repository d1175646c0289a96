// Virtual-core scaling suite (DESIGN.md §11): the DES-driven
// properties behind bench_scaling's sweep —
//   * the sync 4-layer chain replays a seed byte-identically (timing,
//     ordering, and read-back state);
//   * mean request cost stays flat as the simulated pool grows 4 ->
//     128 workers (no contention cliff);
//   * a Rebalance pass over 1024 queues x 256 workers is cheap enough
//     to run every epoch (the galloping-search + heap-pack fix).
//
// Own main (like dst_test): dst::InitSeeds strips --dst_seed /
// --dst_random_seeds before gtest parses argv, so CI can replay any
// failing sweep seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/orchestrator.h"
#include "core/sim_runtime.h"
#include "dst/schedule.h"
#include "simdev/registry.h"

namespace labstor::dst {
namespace {

using sim::Time;

std::string FsStackYaml(const char* mode) {
  std::string yaml = "mount: fs::/sc\nrules:\n  exec_mode: ";
  yaml += mode;
  yaml +=
      "\ndag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_sc\n"
      "    params:\n"
      "      log_records_per_worker: 4096\n"
      "    outputs: [lru_sc]\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_sc\n"
      "    outputs: [sched_sc]\n"
      "  - mod: noop_sched\n"
      "    uuid: sched_sc\n"
      "    outputs: [drv_sc]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_sc\n";
  return yaml;
}

sim::Task<void> NotedRequest(sim::Environment& env, core::SimRuntime& rt,
                             uint32_t qid, core::Stack& stack,
                             ipc::Request& req, Schedule& sched,
                             std::string tag) {
  const Status st = co_await rt.Execute(qid, stack, req);
  sched.Note(tag + " code=" + std::to_string(static_cast<int>(st.code())) +
             " r=" + std::to_string(req.result_u64) +
             " t=" + std::to_string(env.now()));
}

// One seeded sync-stack scenario: creates, writes, and reads through
// the 4-layer FS chain with per-site jitter. Returns the full event
// trace plus the read-back bytes, so callers can compare runs for
// byte-identity.
std::string RunSyncScenario(uint64_t seed) {
  Schedule sched(seed);
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  EXPECT_TRUE(devices.Create(simdev::DeviceParams::NvmeP3700(128 << 20)).ok());
  core::SimRuntime rt(env, devices, 4);
  rt.SetScheduleHook(sched.MakeSimHook(20 * sim::kUs));
  auto stack = rt.MountYaml(FsStackYaml("sync"));
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  for (uint32_t q = 1; q <= 4; ++q) rt.RegisterQueue(q, 3 * sim::kUs);

  constexpr size_t kFiles = 4;
  auto writes = std::make_unique<std::array<ipc::Request, kFiles>>();
  auto creates = std::make_unique<std::array<ipc::Request, kFiles>>();
  std::vector<std::vector<uint8_t>> payloads(kFiles);
  for (size_t i = 0; i < kFiles; ++i) {
    payloads[i].assign(4096, static_cast<uint8_t>(0x11 * (i + 1)));
    ipc::Request& c = (*creates)[i];
    c.op = ipc::OpCode::kCreate;
    c.SetPath("fs::/sc/f" + std::to_string(i));
    env.Spawn(NotedRequest(env, rt, static_cast<uint32_t>(1 + i % 4), **stack,
                           c, sched, "create" + std::to_string(i)));
  }
  env.Run();
  for (size_t i = 0; i < kFiles; ++i) {
    ipc::Request& w = (*writes)[i];
    w.op = ipc::OpCode::kWrite;
    w.SetPath("fs::/sc/f" + std::to_string(i));
    w.data = payloads[i].data();
    w.length = payloads[i].size();
    env.Spawn(NotedRequest(env, rt, static_cast<uint32_t>(1 + i % 4), **stack,
                           w, sched, "write" + std::to_string(i)));
  }
  env.Run();
  // Read-back state: the functional effects must be identical too.
  auto reads = std::make_unique<std::array<ipc::Request, kFiles>>();
  std::vector<std::vector<uint8_t>> out(kFiles);
  for (size_t i = 0; i < kFiles; ++i) {
    out[i].assign(4096, 0);
    ipc::Request& r = (*reads)[i];
    r.op = ipc::OpCode::kRead;
    r.SetPath("fs::/sc/f" + std::to_string(i));
    r.data = out[i].data();
    r.length = out[i].size();
    env.Spawn(NotedRequest(env, rt, static_cast<uint32_t>(1 + i % 4), **stack,
                           r, sched, "read" + std::to_string(i)));
  }
  const Time end = env.Run();
  sched.Note("end t=" + std::to_string(end) +
             " done=" + std::to_string(rt.requests_done()));
  std::string result = sched.trace();
  for (size_t i = 0; i < kFiles; ++i) {
    EXPECT_EQ(out[i], payloads[i]) << "file " << i << " read-back";
    result += "file" + std::to_string(i) + "=";
    for (size_t b = 0; b < 8; ++b) result += std::to_string(out[i][b]) + ",";
    result += ";";
  }
  return result;
}

TEST(ScalingSyncTest, SyncChainReplaysByteIdentically) {
  // Same seed, two independent runs of the sync chain under the DES:
  // the virtual-time trace and the read-back state must be identical.
  for (const uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed 0x" + std::to_string(seed));
    const std::string first = RunSyncScenario(seed);
    const std::string second = RunSyncScenario(seed);
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
  }
}

// Issues `per_queue` 4KB async writes per queue at worker count W and
// returns the mean virtual ns per request.
double MeanLatencyAt(size_t workers, size_t per_queue) {
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  simdev::DeviceParams params = simdev::DeviceParams::NvmeP3700(512 << 20);
  // Per-core hardware queues: the stock preset's 31 channels serialize
  // the device beyond 31 cores, which would measure the device, not
  // the runtime.
  params.num_hw_queues =
      static_cast<uint32_t>(std::max<size_t>(workers, 31));
  params.device_parallelism = params.num_hw_queues;
  EXPECT_TRUE(devices.Create(params).ok());
  core::SimRuntime rt(env, devices, workers);
  auto stack = rt.MountYaml(FsStackYaml("async"));
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  for (size_t q = 0; q < workers; ++q) {
    rt.RegisterQueue(static_cast<uint32_t>(q + 1), 3 * sim::kUs);
  }
  core::RoundRobinOrchestrator rr;
  std::vector<core::QueueLoad> loads;
  for (size_t q = 0; q < workers; ++q) {
    loads.push_back(core::QueueLoad{static_cast<uint32_t>(q + 1), 0, 0});
  }
  rt.ApplyAssignment(rr.Rebalance(loads, workers));

  const size_t total = workers * per_queue;
  std::vector<std::unique_ptr<ipc::Request>> reqs;
  reqs.reserve(total);
  std::vector<uint8_t> data(4096, 0x5C);
  struct Done {
    Time sum = 0;
    size_t count = 0;
  };
  auto done = std::make_unique<Done>();
  struct Submit {
    static sim::Task<void> One(sim::Environment& env, core::SimRuntime& rt,
                               uint32_t qid, core::Stack& stack,
                               ipc::Request& req, Done* done) {
      const Time t0 = env.now();
      const Status st = co_await rt.Execute(qid, stack, req);
      EXPECT_TRUE(st.ok()) << st.ToString();
      done->sum += env.now() - t0;
      ++done->count;
    }
  };
  for (size_t q = 0; q < workers; ++q) {
    for (size_t i = 0; i < per_queue; ++i) {
      auto req = std::make_unique<ipc::Request>();
      req->op = ipc::OpCode::kCreate;
      req->SetPath("fs::/sc/w" + std::to_string(q) + "_" + std::to_string(i));
      env.Spawn(Submit::One(env, rt, static_cast<uint32_t>(q + 1), **stack,
                            *req, done.get()));
      reqs.push_back(std::move(req));
    }
  }
  env.Run();
  EXPECT_EQ(done->count, total);
  return static_cast<double>(done->sum) / static_cast<double>(done->count);
}

TEST(ScalingSweepTest, NoContentionCliffUpTo128Workers) {
  // Per-worker load is constant across the sweep, so a scalable
  // runtime holds mean latency roughly flat. The pre-fix per-hw-queue
  // serialization showed up here as a super-linear climb past 31
  // workers (every channel shared) — the cliff the acceptance
  // criterion names.
  const double at4 = MeanLatencyAt(4, 8);
  const double at64 = MeanLatencyAt(64, 8);
  const double at128 = MeanLatencyAt(128, 8);
  EXPECT_GT(at4, 0.0);
  EXPECT_LT(at64, at4 * 3.0) << "at4=" << at4 << " at64=" << at64;
  EXPECT_LT(at128, at4 * 3.0) << "at4=" << at4 << " at128=" << at128;
}

TEST(ScalingSweepTest, DynamicRebalanceDrivesTrafficAt128Workers) {
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  simdev::DeviceParams params = simdev::DeviceParams::NvmeP3700(512 << 20);
  params.num_hw_queues = 128;
  params.device_parallelism = 128;
  ASSERT_TRUE(devices.Create(params).ok());
  core::SimRuntime rt(env, devices, 128);
  auto stack = rt.MountYaml(FsStackYaml("async"));
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  constexpr size_t kQueues = 256;
  for (size_t q = 0; q < kQueues; ++q) {
    rt.RegisterQueue(static_cast<uint32_t>(q + 1), 3 * sim::kUs);
  }
  core::DynamicOrchestrator dynamic;
  rt.StartRebalancer(&dynamic, 1 * sim::kMs);

  constexpr size_t kPerQueue = 4;
  std::vector<std::unique_ptr<ipc::Request>> reqs;
  struct Submit {
    static sim::Task<void> One(core::SimRuntime& rt, uint32_t qid,
                               core::Stack& stack, ipc::Request& req) {
      const Status st = co_await rt.Execute(qid, stack, req);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  };
  for (size_t q = 0; q < kQueues; ++q) {
    for (size_t i = 0; i < kPerQueue; ++i) {
      auto req = std::make_unique<ipc::Request>();
      req->op = ipc::OpCode::kCreate;
      req->SetPath("fs::/sc/s" + std::to_string(q) + "_" + std::to_string(i));
      env.Spawn(Submit::One(rt, static_cast<uint32_t>(q + 1), **stack, *req));
      reqs.push_back(std::move(req));
    }
  }
  env.Run();
  EXPECT_EQ(rt.requests_done(), kQueues * kPerQueue);
  EXPECT_GE(rt.ActiveWorkers(), 1u);
}

TEST(ScalingRebalanceTest, EpochPassIsCheapAt256Workers) {
  // 1024 queues x 256 workers, mixed light/heavy. The old linear
  // consolidation scan ran O(budget) LPT packs, each O(queues x
  // workers) — seconds per epoch at this scale. The galloping search
  // + heap pack must get a full pass well under the epoch budget.
  std::vector<core::QueueLoad> queues;
  for (uint32_t i = 1; i <= 1024; ++i) {
    const bool heavy = (i % 8) == 0;
    queues.push_back(core::QueueLoad{
        i, heavy ? 20 * sim::kMs : 3 * sim::kUs, heavy ? 50u : 1u});
  }
  core::DynamicOrchestrator dynamic;
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kPasses = 20;
  size_t covered = 0;
  for (int p = 0; p < kPasses; ++p) {
    const core::Assignment a = dynamic.Rebalance(queues, 256);
    covered = 0;
    for (const auto& bin : a.worker_queues) covered += bin.size();
    ASSERT_EQ(covered, queues.size());
    ASSERT_LE(a.num_workers(), 256u);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  // Generous wall bound (sanitizer-friendly): 20 passes in under 5s
  // means < 250ms per epoch pass. The pre-fix scan blew through this
  // by an order of magnitude.
  EXPECT_LT(ms, 5000) << ms << "ms for " << kPasses << " passes";
}

}  // namespace
}  // namespace labstor::dst

int main(int argc, char** argv) {
  labstor::dst::InitSeeds(&argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
