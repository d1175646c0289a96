// LabFS end-to-end behaviour through GenericFS over a sync LabStack
// (decentralized mode: DAG executes inline, no worker threads needed).
#include "labmods/labfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/client.h"
#include "core/runtime.h"
#include "labmods/genericfs.h"
#include "simdev/registry.h"

namespace labstor::labmods {
namespace {

constexpr const char* kStackYaml =
    "mount: fs::/t\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: labfs\n"
    "    uuid: labfs_test\n"
    "    params:\n"
    "      log_records_per_worker: 2048\n"
    "    outputs: [drv_labfs_test]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv_labfs_test\n";

class LabFsTest : public ::testing::Test {
 protected:
  LabFsTest()
      : devices_(nullptr),
        runtime_(MakeOptions(), devices_),
        client_(runtime_, ipc::Credentials{100, 1000, 1000}),
        fs_(client_) {
    auto dev = devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20));
    EXPECT_TRUE(dev.ok());
    device_ = *dev;
    auto spec = core::StackSpec::Parse(kStackYaml);
    EXPECT_TRUE(spec.ok());
    auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    EXPECT_TRUE(client_.Connect().ok());
  }

  static core::Runtime::Options MakeOptions() {
    core::Runtime::Options options;
    options.max_workers = 2;
    return options;
  }

  LabFsMod* labfs() {
    auto mod = runtime_.registry().Find("labfs_test");
    EXPECT_TRUE(mod.ok());
    return dynamic_cast<LabFsMod*>(*mod);
  }

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(seed + i);
    return data;
  }

  simdev::DeviceRegistry devices_;
  simdev::SimDevice* device_ = nullptr;
  core::Runtime runtime_;
  core::Client client_;
  GenericFs fs_;
};

TEST_F(LabFsTest, CreateWriteReadRoundTrip) {
  auto fd = fs_.Create("fs::/t/hello.txt");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const auto data = Pattern(4096);
  auto written = fs_.Write(*fd, data, 0);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 4096u);
  std::vector<uint8_t> out(4096);
  auto read = fs_.Read(*fd, out, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 4096u);
  EXPECT_EQ(out, data);
  EXPECT_TRUE(fs_.Close(*fd).ok());
}

TEST_F(LabFsTest, OpenMissingFileFails) {
  EXPECT_EQ(fs_.Open("fs::/t/ghost", 0).status().code(),
            StatusCode::kNotFound);
}

TEST_F(LabFsTest, OpenExistingWithoutCreate) {
  auto fd = fs_.Create("fs::/t/exists");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Close(*fd).ok());
  auto again = fs_.Open("fs::/t/exists", 0);
  EXPECT_TRUE(again.ok());
}

TEST_F(LabFsTest, UnalignedMultiBlockWrite) {
  auto fd = fs_.Create("fs::/t/unaligned");
  ASSERT_TRUE(fd.ok());
  const auto data = Pattern(10000, 7);
  ASSERT_TRUE(fs_.Write(*fd, data, 1234).ok());
  std::vector<uint8_t> out(10000);
  auto read = fs_.Read(*fd, out, 1234);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 10000u);
  EXPECT_EQ(out, data);
  auto size = fs_.StatSize("fs::/t/unaligned");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1234u + 10000u);
}

TEST_F(LabFsTest, SparseHoleReadsZero) {
  auto fd = fs_.Create("fs::/t/sparse");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(100), 100000).ok());
  std::vector<uint8_t> out(200, 0xFF);
  auto read = fs_.Read(*fd, out, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 200u);
  for (const uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST_F(LabFsTest, ReadPastEofClamps) {
  auto fd = fs_.Create("fs::/t/short");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(100), 0).ok());
  std::vector<uint8_t> out(4096);
  auto read = fs_.Read(*fd, out, 50);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 50u);
  auto eof = fs_.Read(*fd, out, 100);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);
}

TEST_F(LabFsTest, OverwriteKeepsSize) {
  auto fd = fs_.Create("fs::/t/over");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(8192, 1), 0).ok());
  const uint64_t free_after_first = labfs()->allocator_free_blocks();
  ASSERT_TRUE(fs_.Write(*fd, Pattern(8192, 9), 0).ok());
  // Overwrite reuses blocks: no new allocation.
  EXPECT_EQ(labfs()->allocator_free_blocks(), free_after_first);
  std::vector<uint8_t> out(8192);
  ASSERT_TRUE(fs_.Read(*fd, out, 0).ok());
  EXPECT_EQ(out, Pattern(8192, 9));
}

TEST_F(LabFsTest, UnlinkFreesBlocks) {
  const uint64_t free_before = labfs()->allocator_free_blocks();
  auto fd = fs_.Create("fs::/t/doomed");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(40960), 0).ok());
  EXPECT_EQ(labfs()->allocator_free_blocks(), free_before - 10);
  ASSERT_TRUE(fs_.Close(*fd).ok());
  ASSERT_TRUE(fs_.Unlink("fs::/t/doomed").ok());
  EXPECT_EQ(labfs()->allocator_free_blocks(), free_before);
  EXPECT_FALSE(labfs()->Exists("fs::/t/doomed"));
  EXPECT_EQ(fs_.Unlink("fs::/t/doomed").code(), StatusCode::kNotFound);
}

TEST_F(LabFsTest, RenamePreservesContent) {
  auto fd = fs_.Create("fs::/t/old_name");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(512), 0).ok());
  ASSERT_TRUE(fs_.Close(*fd).ok());
  ASSERT_TRUE(fs_.Rename("fs::/t/old_name", "fs::/t/new_name").ok());
  EXPECT_FALSE(labfs()->Exists("fs::/t/old_name"));
  auto nfd = fs_.Open("fs::/t/new_name", 0);
  ASSERT_TRUE(nfd.ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(fs_.Read(*nfd, out, 0).ok());
  EXPECT_EQ(out, Pattern(512));
  // Rename onto an existing file fails.
  auto fd2 = fs_.Create("fs::/t/other");
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(fs_.Rename("fs::/t/new_name", "fs::/t/other").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(LabFsTest, MkdirAndReaddir) {
  ASSERT_TRUE(fs_.Mkdir("fs::/t/dir").ok());
  EXPECT_EQ(fs_.Mkdir("fs::/t/dir").code(), StatusCode::kAlreadyExists);
  for (int i = 0; i < 5; ++i) {
    auto fd = fs_.Create("fs::/t/dir/f" + std::to_string(i));
    ASSERT_TRUE(fd.ok());
  }
  auto fd = fs_.Create("fs::/t/dir_sibling");  // not inside /dir
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Mkdir("fs::/t/dir/sub").ok());
  auto count = fs_.ReaddirCount("fs::/t/dir");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);  // 5 files + 1 subdir, not the sibling
}

TEST_F(LabFsTest, TruncateShrinksAndFrees) {
  auto fd = fs_.Create("fs::/t/trunc");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(16384), 0).ok());
  const uint64_t free_before = labfs()->allocator_free_blocks();
  // Truncate to 5000 bytes: blocks 2 and 3 freed.
  ipc::Request req;
  auto stack = client_.ResolvePath("fs::/t/trunc");
  ASSERT_TRUE(stack.ok());
  req.op = ipc::OpCode::kTruncate;
  req.SetPath("fs::/t/trunc");
  req.offset = 5000;
  ASSERT_TRUE(client_.Execute(req, **stack).ok());
  ASSERT_TRUE(req.ToStatus().ok());
  EXPECT_EQ(labfs()->allocator_free_blocks(), free_before + 2);
  auto size = fs_.StatSize("fs::/t/trunc");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5000u);
}

TEST_F(LabFsTest, ExtendingTruncateReadsZeros) {
  auto fd = fs_.Create("fs::/t/grow");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(100), 0).ok());
  // Truncate up to 3 blocks: the size grows, no block is mapped.
  ipc::Request req;
  auto stack = client_.ResolvePath("fs::/t/grow");
  ASSERT_TRUE(stack.ok());
  req.op = ipc::OpCode::kTruncate;
  req.SetPath("fs::/t/grow");
  req.offset = 3 * 4096;
  ASSERT_TRUE(client_.Execute(req, **stack).ok());
  std::vector<uint8_t> out(3 * 4096, 0xFF);
  auto read = fs_.Read(*fd, out, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, out.size());
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 100, Pattern(100).begin()));
  for (size_t i = 100; i < out.size(); ++i) ASSERT_EQ(out[i], 0) << i;
}

// A block freed by one file and mapped again by another still holds
// the first file's bytes on the device. A write that covers only part
// of such a block must not expose the rest: it reads as zeros.
TEST_F(LabFsTest, PartialWriteIntoReusedBlockReadsZeros) {
  auto old_fd = fs_.Create("fs::/t/old");
  ASSERT_TRUE(old_fd.ok());
  ASSERT_TRUE(fs_.Write(*old_fd, std::vector<uint8_t>(2 * 4096, 0x5A), 0).ok());
  ASSERT_TRUE(fs_.Close(*old_fd).ok());
  ASSERT_TRUE(fs_.Unlink("fs::/t/old").ok());

  // Head: 10 bytes at offset 100 of a fresh block.
  auto fd = fs_.Create("fs::/t/new");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(10), 100).ok());
  std::vector<uint8_t> out(110, 0xFF);
  auto read = fs_.Read(*fd, out, 0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, out.size());
  for (size_t i = 0; i < 100; ++i) ASSERT_EQ(out[i], 0) << i;
  EXPECT_TRUE(std::equal(out.begin() + 100, out.end(), Pattern(10).begin()));

  // Tail: a write that ends inside a fresh block, then one byte at
  // that block's end to bring the gap inside the file size.
  auto tail_fd = fs_.Create("fs::/t/tail");
  ASSERT_TRUE(tail_fd.ok());
  ASSERT_TRUE(fs_.Write(*tail_fd, Pattern(5000), 0).ok());
  ASSERT_TRUE(fs_.Write(*tail_fd, Pattern(1), 2 * 4096 - 1).ok());
  std::vector<uint8_t> whole(2 * 4096, 0xFF);
  read = fs_.Read(*tail_fd, whole, 0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, whole.size());
  EXPECT_TRUE(std::equal(whole.begin(), whole.begin() + 5000,
                         Pattern(5000).begin()));
  for (size_t i = 5000; i < whole.size() - 1; ++i) ASSERT_EQ(whole[i], 0) << i;
}

TEST_F(LabFsTest, FsyncSucceeds) {
  auto fd = fs_.Create("fs::/t/sync_me");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(100), 0).ok());
  EXPECT_TRUE(fs_.Fsync(*fd).ok());
}

TEST_F(LabFsTest, ProvenanceTracksCreatorAndOps) {
  auto fd = fs_.Create("fs::/t/prov");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(10), 0).ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(10), 10).ok());
  std::vector<uint8_t> out(10);
  ASSERT_TRUE(fs_.Read(*fd, out, 0).ok());
  auto prov = labfs()->GetProvenance("fs::/t/prov");
  ASSERT_TRUE(prov.ok());
  EXPECT_EQ(prov->creator_uid, 1000u);
  EXPECT_EQ(prov->creator_pid, 100u);
  EXPECT_EQ(prov->writes, 2u);
  EXPECT_EQ(prov->reads, 1u);
}

TEST_F(LabFsTest, StateRepairRebuildsFromLog) {
  // Write files, wipe in-memory state, replay the on-device log.
  auto fd = fs_.Create("fs::/t/survivor");
  ASSERT_TRUE(fd.ok());
  const auto data = Pattern(12288, 3);
  ASSERT_TRUE(fs_.Write(*fd, data, 0).ok());
  ASSERT_TRUE(fs_.Mkdir("fs::/t/dir2").ok());
  ASSERT_TRUE(fs_.Rename("fs::/t/survivor", "fs::/t/renamed").ok());
  auto dead = fs_.Create("fs::/t/deleted");
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(fs_.Unlink("fs::/t/deleted").ok());
  const size_t files_before = labfs()->file_count();
  const uint64_t free_before = labfs()->allocator_free_blocks();

  ASSERT_TRUE(labfs()->StateRepair().ok());

  EXPECT_EQ(labfs()->file_count(), files_before);
  EXPECT_TRUE(labfs()->Exists("fs::/t/renamed"));
  EXPECT_TRUE(labfs()->Exists("fs::/t/dir2"));
  EXPECT_FALSE(labfs()->Exists("fs::/t/survivor"));
  EXPECT_FALSE(labfs()->Exists("fs::/t/deleted"));
  EXPECT_EQ(labfs()->allocator_free_blocks(), free_before);
  // Data still readable through a fresh fd (mappings replayed).
  auto nfd = fs_.Open("fs::/t/renamed", 0);
  ASSERT_TRUE(nfd.ok());
  std::vector<uint8_t> out(12288);
  auto read = fs_.Read(*nfd, out, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);
  // And new allocations don't collide with replayed ones.
  auto fresh = fs_.Create("fs::/t/after_repair");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fs_.Write(*fresh, Pattern(8192, 5), 0).ok());
  std::vector<uint8_t> out2(12288);
  ASSERT_TRUE(fs_.Read(*nfd, out2, 0).ok());
  EXPECT_EQ(out2, data);
}

TEST_F(LabFsTest, FdTableCloneForFork) {
  auto fd = fs_.Create("fs::/t/forked");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Write(*fd, Pattern(64), 0).ok());
  // "Child process": new client + connector, inherits the fd table.
  core::Client child(runtime_, ipc::Credentials{101, 1000, 1000});
  ASSERT_TRUE(child.Connect().ok());
  GenericFs child_fs(child);
  ASSERT_TRUE(child_fs.CloneFdTableFrom(fs_).ok());
  std::vector<uint8_t> out(64);
  auto read = child_fs.Read(*fd, out, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, Pattern(64));
}

}  // namespace
}  // namespace labstor::labmods
