// Runtime integration: async stacks through real worker threads, live
// upgrades with the centralized protocol, crash/restart recovery, and
// the KVS path.
#include "core/runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/client.h"
#include "labmods/dummy.h"
#include "labmods/genericfs.h"
#include "labmods/generickvs.h"
#include "labmods/labfs.h"
#include "labmods/labkvs.h"
#include "simdev/registry.h"

namespace labstor::core {
namespace {

using namespace std::chrono_literals;

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : devices_(nullptr), runtime_(MakeOptions(), devices_) {
    auto dev = devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20));
    EXPECT_TRUE(dev.ok());
  }

  ~RuntimeTest() override {
    if (runtime_.running()) (void)runtime_.Stop();
  }

  static Runtime::Options MakeOptions() {
    Runtime::Options options;
    options.max_workers = 2;
    options.admin_poll = 2ms;
    return options;
  }

  Stack* MountAsyncFsStack() {
    auto spec = StackSpec::Parse(
        "mount: fs::/rt\n"
        "rules:\n"
        "  exec_mode: async\n"
        "dag:\n"
        "  - mod: labfs\n"
        "    uuid: labfs_rt\n"
        "    params:\n"
        "      log_records_per_worker: 2048\n"
        "    outputs: [drv_rt]\n"
        "  - mod: kernel_driver\n"
        "    uuid: drv_rt\n");
    EXPECT_TRUE(spec.ok());
    auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    return *stack;
  }

  simdev::DeviceRegistry devices_;
  Runtime runtime_;
};

TEST_F(RuntimeTest, StartStopLifecycle) {
  EXPECT_FALSE(runtime_.running());
  ASSERT_TRUE(runtime_.Start().ok());
  EXPECT_TRUE(runtime_.running());
  EXPECT_EQ(runtime_.Start().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(runtime_.Stop().ok());
  EXPECT_FALSE(runtime_.running());
  EXPECT_EQ(runtime_.Stop().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuntimeTest, AsyncFileIoThroughWorkers) {
  MountAsyncFsStack();
  ASSERT_TRUE(runtime_.Start().ok());
  Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);

  auto fd = fs.Create("fs::/rt/via_worker");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::vector<uint8_t> data(4096, 0x42);
  auto written = fs.Write(*fd, data, 0);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 4096u);
  std::vector<uint8_t> out(4096, 0);
  auto read = fs.Read(*fd, out, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);
  // The ops took the shared-memory queue, not the inline path.
  EXPECT_GT(runtime_.doorbell_rings(), 0u);
}

TEST_F(RuntimeTest, ManyClientsConcurrently) {
  MountAsyncFsStack();
  ASSERT_TRUE(runtime_.Start().ok());
  constexpr int kClients = 4;
  constexpr int kFilesEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(runtime_,
                    ipc::Credentials{static_cast<uint32_t>(200 + c), 1000, 1000});
      if (!client.Connect().ok()) {
        ++failures;
        return;
      }
      labmods::GenericFs fs(client);
      for (int i = 0; i < kFilesEach; ++i) {
        const std::string path =
            "fs::/rt/c" + std::to_string(c) + "_f" + std::to_string(i);
        auto fd = fs.Create(path);
        if (!fd.ok()) {
          ++failures;
          continue;
        }
        std::vector<uint8_t> data(512, static_cast<uint8_t>(c * 16 + i));
        if (!fs.Write(*fd, data, 0).ok()) ++failures;
        std::vector<uint8_t> out(512);
        auto read = fs.Read(*fd, out, 0);
        if (!read.ok() || out != data) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto mod = runtime_.registry().Find("labfs_rt");
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ(dynamic_cast<labmods::LabFsMod*>(*mod)->file_count(),
            static_cast<size_t>(kClients * kFilesEach));
}

TEST_F(RuntimeTest, KvsPutGetDeleteThroughWorkers) {
  auto spec = StackSpec::Parse(
      "mount: kvs::/store\n"
      "dag:\n"
      "  - mod: labkvs\n"
      "    uuid: labkvs_rt\n"
      "    params:\n"
      "      log_records_per_worker: 2048\n"
      "    outputs: [drv_kvs_rt]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_kvs_rt\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0}).ok());
  ASSERT_TRUE(runtime_.Start().ok());

  Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericKvs kvs(client);

  std::vector<uint8_t> value(8192);
  for (size_t i = 0; i < value.size(); ++i) value[i] = static_cast<uint8_t>(i * 3);
  ASSERT_TRUE(kvs.Put("kvs::/store/alpha", value).ok());
  auto exists = kvs.Exists("kvs::/store/alpha");
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);

  std::vector<uint8_t> out(8192);
  auto got = kvs.Get("kvs::/store/alpha", out);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value.size());
  EXPECT_EQ(out, value);

  // Overwrite with a smaller value.
  std::vector<uint8_t> small(100, 0xEE);
  ASSERT_TRUE(kvs.Put("kvs::/store/alpha", small).ok());
  auto got2 = kvs.Get("kvs::/store/alpha", out);
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(*got2, 100u);

  ASSERT_TRUE(kvs.Delete("kvs::/store/alpha").ok());
  auto gone = kvs.Exists("kvs::/store/alpha");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(*gone);
  EXPECT_EQ(kvs.Get("kvs::/store/alpha", out).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RuntimeTest, LiveUpgradeWhileTrafficFlows) {
  // Dummy stack, async: messages flow through a worker while the admin
  // swaps the mod underneath (Table I's scenario).
  auto spec = StackSpec::Parse(
      "mount: ctl::/dummy\n"
      "dag:\n"
      "  - mod: dummy\n"
      "    uuid: dummy_rt\n"
      "    version: 1\n");
  ASSERT_TRUE(spec.ok());
  auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok());
  ASSERT_TRUE(runtime_.Start().ok());

  Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent{0};
  std::atomic<int> errors{0};
  std::thread app([&] {
    while (!stop.load()) {
      auto req = client.NewRequest();
      if (!req.ok()) break;  // segment exhausted: stop sending
      (*req)->op = ipc::OpCode::kDummy;
      const Status st = client.Execute(**req, **stack);
      if (!st.ok() || !(*req)->ToStatus().ok()) {
        ++errors;
      } else {
        ++sent;
      }
    }
  });

  // Let traffic flow, then upgrade v1 -> v2 live.
  while (sent.load() < 100) std::this_thread::yield();
  runtime_.SubmitUpgrade(UpgradeRequest{"dummy", 2, UpgradeKind::kCentralized,
                                        1 << 20});
  // Wait for the admin thread to apply it.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (runtime_.module_manager().upgrades_applied() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(runtime_.module_manager().upgrades_applied(), 1u);
  const uint64_t sent_at_upgrade = sent.load();
  // Traffic continues after the upgrade.
  while (sent.load() < sent_at_upgrade + 100) std::this_thread::yield();
  stop.store(true);
  app.join();
  EXPECT_EQ(errors.load(), 0);

  auto mod = runtime_.registry().Find("dummy_rt");
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ((*mod)->version(), 2u);
  // Message counter survived the upgrade (StateUpdate) and kept
  // counting: total messages == total successful sends.
  EXPECT_EQ(dynamic_cast<labmods::DummyMod*>(*mod)->messages(), sent.load());
}

TEST_F(RuntimeTest, CrashAndRestartRecovers) {
  MountAsyncFsStack();
  ASSERT_TRUE(runtime_.Start().ok());
  Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  auto fd = fs.Create("fs::/rt/pre_crash");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(4096, 0x5A);
  ASSERT_TRUE(fs.Write(*fd, data, 0).ok());

  const uint64_t epoch_before = runtime_.ipc().epoch();
  runtime_.CrashForTesting();
  EXPECT_FALSE(runtime_.ipc().online());

  // A waiter during the outage sees recovery once the admin restarts.
  std::thread admin([&] {
    std::this_thread::sleep_for(50ms);
    ASSERT_TRUE(runtime_.Restart().ok());
  });
  // This request is submitted while offline-bound; Execute backs off
  // in Submit until queues drain post-restart.
  std::vector<uint8_t> out(4096, 0);
  auto read = fs.Read(*fd, out, 0);
  admin.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(out, data);
  EXPECT_EQ(runtime_.ipc().epoch(), epoch_before + 1);
  // File state survived (and StateRepair replayed the log).
  auto fd2 = fs.Open("fs::/rt/pre_crash", 0);
  EXPECT_TRUE(fd2.ok());
}

TEST_F(RuntimeTest, SyncStackWorksWithoutWorkers) {
  auto spec = StackSpec::Parse(
      "mount: fs::/sync\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_sync\n"
      "    params:\n"
      "      log_records_per_worker: 512\n"
      "    outputs: [drv_sync]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_sync\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0}).ok());
  // Note: runtime NOT started — decentralized stacks bypass it.
  Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  auto fd = fs.Create("fs::/sync/direct");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(100, 7);
  EXPECT_TRUE(fs.Write(*fd, data, 0).ok());
}

TEST_F(RuntimeTest, RebalanceAssignsAllQueues) {
  MountAsyncFsStack();
  ASSERT_TRUE(runtime_.Start().ok());
  // Connect several clients; their queues must all get workers.
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(
        runtime_, ipc::Credentials{300 + i, 1000, 1000}));
    ASSERT_TRUE(clients.back()->Connect().ok());
  }
  // Give the admin a moment to rebalance, then verify all clients can
  // do I/O (i.e. every queue is drained by someone).
  std::this_thread::sleep_for(50ms);
  for (uint32_t i = 0; i < 4; ++i) {
    labmods::GenericFs fs(*clients[i]);
    auto fd = fs.Create("fs::/rt/rebalance_" + std::to_string(i));
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  }
  EXPECT_GE(runtime_.active_workers(), 1u);
}

}  // namespace
}  // namespace labstor::core
