// Failure injection: the error paths a production I/O platform must
// survive — device exhaustion, log exhaustion, malformed requests,
// queue overflow, permission walls, crashed runtimes with dirty state.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/runtime.h"
#include "faultinject/faultinject.h"
#include "labmods/consistency.h"
#include "labmods/genericfs.h"
#include "labmods/labfs.h"
#include "simdev/registry.h"

namespace labstor {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : devices_(nullptr), runtime_(MakeOptions(), devices_) {}

  static core::Runtime::Options MakeOptions() {
    core::Runtime::Options options;
    options.max_workers = 2;
    return options;
  }

  core::Stack* Mount(const std::string& yaml) {
    auto spec = core::StackSpec::Parse(yaml);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    return *stack;
  }

  simdev::DeviceRegistry devices_;
  core::Runtime runtime_;
};

TEST_F(FailureTest, DeviceFullSurfacesEnospcAndRecoversAfterUnlink) {
  // Tiny device: log region + a handful of data blocks.
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(2 << 20)).ok());
  Mount(
      "mount: fs::/tiny\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: tiny_fs\n"
      "    params:\n"
      "      log_records_per_worker: 256\n"
      "    outputs: [tiny_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: tiny_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);

  auto fd = fs.Create("fs::/tiny/hog");
  ASSERT_TRUE(fd.ok());
  // Write until the allocator runs dry.
  std::vector<uint8_t> chunk(64 * 1024, 1);
  Status last = Status::Ok();
  uint64_t offset = 0;
  for (int i = 0; i < 64 && last.ok(); ++i) {
    last = fs.Write(*fd, chunk, offset).status();
    offset += chunk.size();
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);

  // Free space; writing works again.
  auto fd2 = fs.Create("fs::/tiny/small");
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(fs.Close(*fd).ok());
  ASSERT_TRUE(fs.Unlink("fs::/tiny/hog").ok());
  std::vector<uint8_t> small(4096, 2);
  EXPECT_TRUE(fs.Write(*fd2, small, 0).ok());
}

TEST_F(FailureTest, MetadataLogExhaustionIsAnError) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  Mount(
      "mount: fs::/logfull\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: logfull_fs\n"
      "    params:\n"
      "      log_records_per_worker: 8\n"
      "    outputs: [logfull_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: logfull_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  Status last = Status::Ok();
  for (int i = 0; i < 64 && last.ok(); ++i) {
    last = fs.Create("fs::/logfull/f" + std::to_string(i)).status();
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST_F(FailureTest, DriverRejectsNonBlockOps) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  core::Stack* stack = Mount(
      "mount: blk::/raw\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: kernel_driver\n"
      "    uuid: raw_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  ipc::Request req;
  req.op = ipc::OpCode::kPut;  // KVS op straight at a driver
  req.SetPath("blk::/raw/key");
  EXPECT_EQ(client.Execute(req, *stack).code(), StatusCode::kInvalidArgument);
}

TEST_F(FailureTest, StackMissingModFailsMountCleanly) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  auto spec = core::StackSpec::Parse(
      "mount: fs::/ghost\n"
      "dag:\n"
      "  - mod: does_not_exist\n"
      "    uuid: g1\n");
  ASSERT_TRUE(spec.ok());
  auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
  EXPECT_EQ(stack.status().code(), StatusCode::kNotFound);
  // The namespace is untouched: remounting something valid works.
  EXPECT_EQ(runtime_.ns().size(), 0u);
}

TEST_F(FailureTest, DriverMissingDeviceFailsInit) {
  // No devices registered at all.
  auto spec = core::StackSpec::Parse(
      "mount: blk::/nodev\n"
      "dag:\n"
      "  - mod: kernel_driver\n"
      "    uuid: nodev_drv\n"
      "    params:\n"
      "      device: missing0\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(FailureTest, PermissionDenialNeverTouchesTheDevice) {
  auto dev = devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20));
  ASSERT_TRUE(dev.ok());
  core::Stack* stack = Mount(
      "mount: blk::/walled\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: permissions\n"
      "    uuid: wall\n"
      "    params:\n"
      "      default: deny\n"
      "    outputs: [wall_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: wall_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  std::vector<uint8_t> data(4096, 7);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.client_uid = 1000;
  req.length = data.size();
  req.data = data.data();
  req.SetPath("blk::/walled/x");
  EXPECT_EQ(client.Execute(req, *stack).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ((*dev)->stats().writes.load(), 0u);
  EXPECT_EQ((*dev)->stats().bytes_written.load(), 0u);
}

TEST_F(FailureTest, GenericFsRejectsBadAndStaleFds) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  Mount(
      "mount: fs::/fds\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: fds_fs\n"
      "    params:\n"
      "      log_records_per_worker: 256\n"
      "    outputs: [fds_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: fds_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  std::vector<uint8_t> buf(16);
  EXPECT_EQ(fs.Write(42, buf, 0).status().code(), StatusCode::kNotFound);
  auto fd = fs.Create("fs::/fds/a");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs.Close(*fd).ok());
  EXPECT_EQ(fs.Close(*fd).code(), StatusCode::kNotFound);       // double close
  EXPECT_EQ(fs.Read(*fd, buf, 0).status().code(), StatusCode::kNotFound);
}

TEST_F(FailureTest, QueueOverflowBlocksSubmissionNotCorrectness) {
  ipc::QueuePair qp(1, 4, ipc::Credentials{1, 0, 0});
  std::array<ipc::Request, 6> reqs;
  int accepted = 0;
  for (auto& req : reqs) accepted += qp.Submit(&req) ? 1 : 0;
  EXPECT_EQ(accepted, 4);
  // Draining one admits one more.
  ASSERT_TRUE(qp.PollSubmission().has_value());
  EXPECT_TRUE(qp.Submit(&reqs[4]));
}

TEST_F(FailureTest, CrashDropsUnflushedWriteBackData) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  core::Stack* stack = Mount(
      "mount: blk::/wb\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: consistency\n"
      "    uuid: wb_fail\n"
      "    params:\n"
      "      policy: write_back\n"
      "      watermark_extents: 1000\n"
      "    outputs: [wb_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: wb_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  std::vector<uint8_t> data(4096, 0xAA);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.length = data.size();
  req.data = data.data();
  ASSERT_TRUE(client.Execute(req, *stack).ok());
  auto mod = runtime_.registry().Find("wb_fail");
  ASSERT_TRUE(mod.ok());
  auto* wb = dynamic_cast<labmods::ConsistencyMod*>(*mod);
  EXPECT_EQ(wb->dirty_extents(), 1u);
  // Crash + repair: the dirty buffer is gone by contract.
  ASSERT_TRUE(runtime_.registry().RepairAll().ok());
  EXPECT_EQ(wb->dirty_extents(), 0u);
}

TEST_F(FailureTest, UpgradeOfUnknownModReportedWithoutWedgingQueues) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  core::Stack* stack = Mount(
      "mount: ctl::/d\n"
      "dag:\n"
      "  - mod: dummy\n"
      "    uuid: dummy_fail\n"
      "    version: 1\n");
  ASSERT_TRUE(runtime_.Start().ok());
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  runtime_.SubmitUpgrade(
      core::UpgradeRequest{"no_such_mod", 0, core::UpgradeKind::kCentralized});
  // Traffic still flows after the failed upgrade unblocks the queues.
  auto req = client.NewRequest();
  ASSERT_TRUE(req.ok());
  (*req)->op = ipc::OpCode::kDummy;
  EXPECT_TRUE(client.Execute(**req, *stack).ok());
  EXPECT_TRUE((*req)->ToStatus().ok());
  EXPECT_EQ(runtime_.module_manager().upgrades_applied(), 0u);
  ASSERT_TRUE(runtime_.Stop().ok());
}

TEST_F(FailureTest, KvsGetBufferTooSmall) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  core::Stack* stack = Mount(
      "mount: kvs::/small\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labkvs\n"
      "    uuid: small_kvs\n"
      "    params:\n"
      "      log_records_per_worker: 256\n"
      "    outputs: [small_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: small_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  std::vector<uint8_t> value(8192, 5);
  ipc::Request put;
  put.op = ipc::OpCode::kPut;
  put.length = value.size();
  put.data = value.data();
  put.SetPath("kvs::/small/key");
  ASSERT_TRUE(client.Execute(put, *stack).ok());

  std::vector<uint8_t> tiny(16);
  ipc::Request get;
  get.op = ipc::OpCode::kGet;
  get.length = tiny.size();
  get.data = tiny.data();
  get.SetPath("kvs::/small/key");
  EXPECT_EQ(client.Execute(get, *stack).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FailureTest, PartialStateRepairConvergesOnSecondEpoch) {
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  Mount(
      "mount: fs::/partial\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: partial_fs\n"
      "    params:\n"
      "      log_records_per_worker: 256\n"
      "    outputs: [partial_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: partial_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  auto fd = fs.Create("fs::/partial/a");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(8192, 3);
  ASSERT_TRUE(fs.Write(*fd, data, 0).ok());

  // Fail the SECOND StateRepair call of the sweep: the first instance
  // repairs, the second doesn't — a genuinely mid-repair failure.
  faultinject::FaultInjector injector;
  faultinject::FaultPolicy policy;
  policy.trigger = faultinject::FaultPolicy::Trigger::kEveryN;
  policy.every_n = 2;
  policy.max_fires = 1;
  policy.code = StatusCode::kInternal;
  injector.Arm("core.repair.partial", policy);
  faultinject::ScopedInstall armed(injector);

  EXPECT_FALSE(runtime_.registry().RepairAll().ok());
  EXPECT_EQ(injector.fires("core.repair.partial"), 1u);
  // StateRepair is clear-and-rebuild, so the retry sweep converges.
  ASSERT_TRUE(runtime_.registry().RepairAll().ok());

  auto mod = runtime_.registry().Find("partial_fs");
  ASSERT_TRUE(mod.ok());
  auto* labfs = dynamic_cast<labmods::LabFsMod*>(*mod);
  ASSERT_NE(labfs, nullptr);
  EXPECT_TRUE(labfs->Exists("fs::/partial/a"));
  auto size = labfs->FileSize("fs::/partial/a");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, data.size());
}

TEST_F(FailureTest, FailedWriteReturnsAllBlocksToAllocator) {
  // Regression: EnsureBlocks used to interleave "assign extent into the
  // inode" with "append its map record". When the metadata log filled
  // between extents, the not-yet-assigned extents (typically the stolen
  // ones) were stranded outside both the inode and the allocator —
  // leaked until remount. Set up exactly that: a 2-worker log with ONE
  // record per worker, so the create consumes worker 0's region and the
  // first map append of the big write fails.
  ASSERT_TRUE(devices_.Create(simdev::DeviceParams::NvmeP3700(2 << 20)).ok());
  Mount(
      "mount: fs::/leak\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: leak_fs\n"
      "    params:\n"
      "      log_records_per_worker: 1\n"
      "    outputs: [leak_drv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: leak_drv\n");
  core::Client client(runtime_, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  auto mod = runtime_.registry().Find("leak_fs");
  ASSERT_TRUE(mod.ok());
  auto* labfs = dynamic_cast<labmods::LabFsMod*>(*mod);
  ASSERT_NE(labfs, nullptr);

  auto fd = fs.Create("fs::/leak/a");  // consumes worker 0's only record
  ASSERT_TRUE(fd.ok());
  const uint64_t free_before = labfs->allocator_free_blocks();

  // Big enough to need worker 0's whole pool plus stolen extents, so
  // the allocation spans several extents.
  std::vector<uint8_t> big(300 * labmods::LabFsMod::kBlockSize, 1);
  EXPECT_EQ(fs.Write(*fd, big, 0).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_GT(labfs->allocator_steals(), 0u);

  // Every block the write claimed is mapped into the inode, so none is
  // stranded outside both the inode and the allocator.
  const labmods::LabFsMod::BlockAudit audit = labfs->AuditBlocks();
  EXPECT_TRUE(audit.Consistent());
  EXPECT_EQ(audit.mapped_blocks, 300u);

  // Unlink is write-ahead: its record cannot be logged (the region is
  // full), so it frees nothing and the file stays. The mappings were
  // never logged either, so replay hands every block back.
  EXPECT_EQ(fs.Unlink("fs::/leak/a").code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(labfs->Exists("fs::/leak/a"));
  ASSERT_TRUE(labfs->StateRepair().ok());
  EXPECT_EQ(labfs->allocator_free_blocks(), free_before);
  EXPECT_TRUE(labfs->AuditBlocks().Consistent());
}

}  // namespace
}  // namespace labstor
