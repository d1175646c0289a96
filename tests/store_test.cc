// The store core LabFS and LabKVS share (LogStore: per-worker metadata
// log plus per-worker block allocator).
//
// KvsWriteAheadTest, KvsTornGroupTest, FsWriteAheadTest: an op that
// frees blocks of an acked value or file makes its log record durable
// first, so when the append fails (log full, failed write) or the
// allocation fails (device full) the old bytes stay readable, before
// and after a StateRepair.
//
// StoreConcurrencyTest: threads share one allocator or one LabFS. The
// CI ThreadSanitizer job selects this suite by name.
//
// SyncSlotTest: sync clients execute as the slot they took at Connect,
// so two of them append to different log slots and allocate from
// different pools of one LabFS. Also selected by the TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "core/runtime.h"
#include "faultinject/faultinject.h"
#include "labmods/block_allocator.h"
#include "labmods/genericfs.h"
#include "labmods/generickvs.h"
#include "labmods/labfs.h"
#include "labmods/labkvs.h"
#include "simdev/registry.h"

namespace labstor::labmods {
namespace {

constexpr uint64_t kBlock = LogStore::kBlockSize;

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(seed + i);
  return data;
}

// One sync stack, `mod` over a kernel driver, on a fresh device. Sync
// requests execute inline in the calling thread and log to the
// client's slot: slot 0 for the rig's own client, which connects first.
class StoreRig {
 public:
  StoreRig(const std::string& mod, const std::string& mount,
           uint64_t log_records, uint64_t device_bytes, size_t workers = 1)
      : devices_(nullptr),
        runtime_(Options(workers), devices_),
        client_(runtime_, ipc::Credentials{100, 1000, 1000}) {
    EXPECT_TRUE(
        devices_.Create(simdev::DeviceParams::NvmeP3700(device_bytes)).ok());
    auto spec = core::StackSpec::Parse(
        "mount: " + mount + "\n"
        "rules:\n"
        "  exec_mode: sync\n"
        "dag:\n"
        "  - mod: " + mod + "\n"
        "    uuid: store_mod\n"
        "    params:\n"
        "      log_records_per_worker: " + std::to_string(log_records) + "\n"
        "    outputs: [store_drv]\n"
        "  - mod: kernel_driver\n"
        "    uuid: store_drv\n");
    EXPECT_TRUE(spec.ok());
    auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    EXPECT_TRUE(client_.Connect().ok());
  }

  template <typename Mod>
  Mod* mod() {
    auto found = runtime_.registry().Find("store_mod");
    EXPECT_TRUE(found.ok());
    return dynamic_cast<Mod*>(*found);
  }
  core::Runtime& runtime() { return runtime_; }
  core::Client& client() { return client_; }
  simdev::SimDevice* device() { return *devices_.Find("nvme0"); }

 private:
  static core::Runtime::Options Options(size_t workers) {
    core::Runtime::Options options;
    options.max_workers = workers;
    return options;
  }

  simdev::DeviceRegistry devices_;
  core::Runtime runtime_;
  core::Client client_;
};

// ---------- LabKVS ----------

class KvsWriteAheadTest : public ::testing::Test {
 protected:
  void Mount(uint64_t log_records, uint64_t device_bytes = 64 << 20) {
    rig_ = std::make_unique<StoreRig>("labkvs", "kvs::/wa", log_records,
                                      device_bytes);
    kvs_ = std::make_unique<GenericKvs>(rig_->client());
  }
  LabKvsMod* mod() { return rig_->mod<LabKvsMod>(); }

  void ExpectValue(const std::string& key, const std::vector<uint8_t>& want) {
    std::vector<uint8_t> out(want.size() + 4 * kBlock);
    auto got = kvs_->Get(key, out);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, want.size());
    out.resize(*got);
    EXPECT_EQ(out, want);
  }

  std::unique_ptr<StoreRig> rig_;
  std::unique_ptr<GenericKvs> kvs_;
};

TEST_F(KvsWriteAheadTest, OverwriteWithFullLogKeepsOldValue) {
  Mount(/*log_records=*/3);  // create + size + one map
  const auto old_value = Pattern(2 * kBlock, 1);
  ASSERT_TRUE(kvs_->Put("kvs::/wa/a", old_value).ok());
  const uint64_t free_before = mod()->allocator_free_blocks();

  EXPECT_EQ(kvs_->Put("kvs::/wa/a", Pattern(3 * kBlock, 7)).code(),
            StatusCode::kResourceExhausted);

  EXPECT_EQ(mod()->allocator_free_blocks(), free_before);
  ExpectValue("kvs::/wa/a", old_value);
  ASSERT_TRUE(mod()->StateRepair().ok());
  EXPECT_EQ(mod()->allocator_free_blocks(), free_before);
  ExpectValue("kvs::/wa/a", old_value);
}

TEST_F(KvsWriteAheadTest, OverwriteLargerThanFreeSpaceKeepsOldValue) {
  Mount(/*log_records=*/64, /*device_bytes=*/1 << 20);
  const auto old_value = Pattern(100 * kBlock, 1);
  ASSERT_TRUE(kvs_->Put("kvs::/wa/a", old_value).ok());
  const uint64_t free_before = mod()->allocator_free_blocks();

  // Too big even if the old value's blocks were handed back first.
  const auto huge = Pattern((free_before + 101) * kBlock, 7);
  EXPECT_EQ(kvs_->Put("kvs::/wa/a", huge).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(mod()->allocator_free_blocks(), free_before);
  ExpectValue("kvs::/wa/a", old_value);

  // A later put takes free blocks; none of them may be the old value's.
  const auto other = Pattern(100 * kBlock, 9);
  ASSERT_TRUE(kvs_->Put("kvs::/wa/b", other).ok());
  EXPECT_EQ(mod()->allocator_free_blocks(), free_before - 100);
  ExpectValue("kvs::/wa/a", old_value);
  ExpectValue("kvs::/wa/b", other);
  ASSERT_TRUE(mod()->StateRepair().ok());
  EXPECT_EQ(mod()->allocator_free_blocks(), free_before - 100);
  ExpectValue("kvs::/wa/a", old_value);
  ExpectValue("kvs::/wa/b", other);
}

TEST_F(KvsWriteAheadTest, DeleteWithFullLogKeepsValue) {
  Mount(/*log_records=*/3);
  const auto value = Pattern(2 * kBlock, 3);
  ASSERT_TRUE(kvs_->Put("kvs::/wa/a", value).ok());
  const uint64_t free_before = mod()->allocator_free_blocks();

  EXPECT_EQ(kvs_->Delete("kvs::/wa/a").code(), StatusCode::kResourceExhausted);

  EXPECT_EQ(mod()->allocator_free_blocks(), free_before);
  ExpectValue("kvs::/wa/a", value);
  ASSERT_TRUE(mod()->StateRepair().ok());
  ExpectValue("kvs::/wa/a", value);
}

// A put's size record and block map are one log group. When the group
// tears inside the map (log full, or a failed log write whose slot the
// next record reuses), the put fails, its blocks go back, and replay
// must not install the torn value: it would name blocks that another
// key's later put may own, and replace the old value with one whose
// bytes were never written.
class KvsTornGroupTest : public KvsWriteAheadTest {
 protected:
  static constexpr const char* kKey = "kvs::/wa/x";

  // x and y hold a block each with a free block between them, so a
  // put that needs every free block gets two extents: the tail range
  // first, then the hole. Ten records.
  void SetUpFragmented(uint64_t log_records) {
    Mount(log_records, /*device_bytes=*/1 << 20);
    ASSERT_TRUE(kvs_->Put(kKey, old_value_).ok());
    ASSERT_TRUE(kvs_->Put("kvs::/wa/hole", Pattern(kBlock, 2)).ok());
    ASSERT_TRUE(kvs_->Put("kvs::/wa/y", y_value_).ok());
    ASSERT_TRUE(kvs_->Delete("kvs::/wa/hole").ok());
    free_before_ = mod()->allocator_free_blocks();
  }

  std::vector<uint8_t> TwoExtentValue() const {
    return Pattern(free_before_ * kBlock, 7);
  }

  void ExpectOldValues(uint64_t free_blocks) {
    EXPECT_EQ(mod()->allocator_free_blocks(), free_blocks);
    ExpectValue(kKey, old_value_);
    ExpectValue("kvs::/wa/y", y_value_);
  }

  const std::vector<uint8_t> old_value_ = Pattern(kBlock, 1);
  const std::vector<uint8_t> y_value_ = Pattern(kBlock, 3);
  uint64_t free_before_ = 0;
};

TEST_F(KvsTornGroupTest, OverwriteWithLogFullInsideMapKeepsOldValue) {
  SetUpFragmented(/*log_records=*/12);  // room for size + one map
  EXPECT_EQ(kvs_->Put(kKey, TwoExtentValue()).code(),
            StatusCode::kResourceExhausted);
  ExpectOldValues(free_before_);
  ASSERT_TRUE(mod()->StateRepair().ok());
  ExpectOldValues(free_before_);
}

TEST_F(KvsTornGroupTest, FailedMapWriteLeavesNoBlockMappedTwice) {
  SetUpFragmented(/*log_records=*/64);
  // Fail the third log write of the overwrite: its size record and the
  // tail's map are durable, the hole's map is not.
  faultinject::FaultInjector injector;
  faultinject::FaultPolicy third;
  third.trigger = faultinject::FaultPolicy::Trigger::kEveryN;
  third.every_n = 3;
  third.max_fires = 1;
  injector.Arm("simdev.write.eio", third);
  injector.Install();
  EXPECT_EQ(kvs_->Put(kKey, TwoExtentValue()).code(), StatusCode::kInternal);
  injector.Uninstall();
  EXPECT_EQ(injector.fires("simdev.write.eio"), 1u);
  ExpectOldValues(free_before_);

  // z takes the head of the tail range, which the durable map record
  // of the failed put names too.
  const auto z_value = Pattern(2 * kBlock, 9);
  ASSERT_TRUE(kvs_->Put("kvs::/wa/z", z_value).ok());
  ExpectOldValues(free_before_ - 2);
  ExpectValue("kvs::/wa/z", z_value);
  // The rebuild counts each used block once, so a block mapped by two
  // values shows up as one more free block than expected.
  ASSERT_TRUE(mod()->StateRepair().ok());
  ExpectOldValues(free_before_ - 2);
  ExpectValue("kvs::/wa/z", z_value);
}

TEST_F(KvsWriteAheadTest, NewKeyTornInsideGroupStaysAbsent) {
  Mount(/*log_records=*/2);  // create + size; the map does not fit
  const uint64_t free_before = mod()->allocator_free_blocks();
  EXPECT_EQ(kvs_->Put("kvs::/wa/a", Pattern(kBlock, 4)).code(),
            StatusCode::kResourceExhausted);
  const auto expect_absent = [&] {
    std::vector<uint8_t> out(kBlock);
    EXPECT_EQ(kvs_->Get("kvs::/wa/a", out).status().code(),
              StatusCode::kNotFound);
    EXPECT_TRUE(mod()->ListKeys().empty());
    EXPECT_EQ(mod()->allocator_free_blocks(), free_before);
  };
  expect_absent();
  ASSERT_TRUE(mod()->StateRepair().ok());
  expect_absent();
}

// ---------- LabFS ----------

class FsWriteAheadTest : public ::testing::Test {
 protected:
  static constexpr const char* kPath = "fs::/wa/f";

  // A two-block file whose create, map and size records fill the log.
  void SetUp() override {
    rig_ = std::make_unique<StoreRig>("labfs", "fs::/wa", /*log_records=*/3,
                                      64 << 20);
    fs_ = std::make_unique<GenericFs>(rig_->client());
    auto fd = fs_->Create(kPath);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(fs_->Write(*fd, content_, 0).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
    free_before_ = mod()->allocator_free_blocks();
  }

  LabFsMod* mod() { return rig_->mod<LabFsMod>(); }

  void ExpectIntact() {
    ASSERT_TRUE(mod()->Exists(kPath));
    auto size = mod()->FileSize(kPath);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, content_.size());
    EXPECT_EQ(mod()->allocator_free_blocks(), free_before_);
    auto fd = fs_->Open(kPath, 0);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    std::vector<uint8_t> out(content_.size());
    auto read = fs_->Read(*fd, out, 0);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, content_.size());
    EXPECT_EQ(out, content_);
    ASSERT_TRUE(fs_->Close(*fd).ok());
    EXPECT_TRUE(mod()->AuditBlocks().Consistent());
  }

  void ExpectIntactBeforeAndAfterRepair() {
    ExpectIntact();
    ASSERT_TRUE(mod()->StateRepair().ok());
    ExpectIntact();
  }

  const std::vector<uint8_t> content_ = Pattern(2 * kBlock, 5);
  std::unique_ptr<StoreRig> rig_;
  std::unique_ptr<GenericFs> fs_;
  uint64_t free_before_ = 0;
};

TEST_F(FsWriteAheadTest, UnlinkWithFullLogKeepsFile) {
  EXPECT_EQ(fs_->Unlink(kPath).code(), StatusCode::kResourceExhausted);
  ExpectIntactBeforeAndAfterRepair();
}

TEST_F(FsWriteAheadTest, TruncateWithFullLogKeepsFile) {
  ipc::Request req;
  auto stack = rig_->client().ResolvePath(kPath);
  ASSERT_TRUE(stack.ok());
  req.op = ipc::OpCode::kTruncate;
  req.SetPath(kPath);
  req.offset = 100;
  const Status st = rig_->client().Execute(req, **stack);
  EXPECT_EQ(st.ok() ? req.ToStatus().code() : st.code(),
            StatusCode::kResourceExhausted);
  ExpectIntactBeforeAndAfterRepair();
}

TEST_F(FsWriteAheadTest, OpenTruncWithFullLogKeepsFile) {
  // Create on an existing path is open(O_CREAT | O_TRUNC).
  EXPECT_EQ(fs_->Create(kPath).status().code(),
            StatusCode::kResourceExhausted);
  ExpectIntactBeforeAndAfterRepair();
}

// ---------- concurrency ----------

TEST(StoreConcurrencyTest, AllocatorThreadsNeverShareOrLoseBlocks) {
  constexpr uint64_t kBlocks = 4096;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  PerWorkerAllocator alloc(0, kBlocks, kThreads);
  std::vector<std::atomic<uint8_t>> owned(kBlocks);
  std::atomic<uint64_t> double_owned{0};
  std::atomic<uint64_t> lost_owner{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      const auto worker = static_cast<uint32_t>(t);
      std::vector<BlockExtent> held;
      uint64_t held_blocks = 0;
      for (int op = 0; op < kOps; ++op) {
        // Swing between holding little and holding more than one pool,
        // so every thread steals and the device fills up now and then.
        const uint64_t target = (op / 500) % 2 == 0 ? 128 : 1400;
        if (held_blocks < target && rng.Bernoulli(0.7)) {
          auto extents = alloc.Alloc(worker, rng.Range(1, 16));
          if (!extents.ok()) continue;
          for (const BlockExtent& e : *extents) {
            for (uint64_t b = e.start; b < e.start + e.count; ++b) {
              if (owned[b].exchange(1) != 0) ++double_owned;
            }
            held.push_back(e);
            held_blocks += e.count;
          }
        } else if (!held.empty()) {
          const size_t victim = rng.Uniform(held.size());
          const BlockExtent e = held[victim];
          held[victim] = held.back();
          held.pop_back();
          held_blocks -= e.count;
          for (uint64_t b = e.start; b < e.start + e.count; ++b) {
            if (owned[b].exchange(0) != 1) ++lost_owner;
          }
          alloc.Free(worker, e);
        }
      }
      for (const BlockExtent& e : held) {
        for (uint64_t b = e.start; b < e.start + e.count; ++b) owned[b] = 0;
        alloc.Free(worker, e);
      }
    });
  }
  // Readers race the writers: totals never exceed the device.
  std::thread sampler([&] {
    while (!stop.load()) {
      EXPECT_LE(alloc.FreeBlocks(), kBlocks);
      (void)alloc.steals();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  stop = true;
  sampler.join();

  EXPECT_EQ(double_owned.load(), 0u);
  EXPECT_EQ(lost_owner.load(), 0u);
  EXPECT_GT(alloc.steals(), 0u);
  EXPECT_EQ(alloc.FreeBlocks(), kBlocks);
  // Every block is back and allocatable again.
  auto all = alloc.Alloc(0, kBlocks);
  ASSERT_TRUE(all.ok());
  uint64_t total = 0;
  for (const BlockExtent& e : *all) total += e.count;
  EXPECT_EQ(total, kBlocks);
}

TEST(StoreConcurrencyTest, TwoThreadsCreateWriteUnlinkThroughOneLabFs) {
  constexpr int kFiles = 150;
  StoreRig rig("labfs", "fs::/c", /*log_records=*/16384, 64 << 20,
               /*workers=*/2);
  auto* labfs = rig.mod<LabFsMod>();
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      core::Client client(rig.runtime(),
                          ipc::Credentials{static_cast<uint32_t>(200 + t),
                                           1000, 1000});
      if (!client.Connect().ok()) {
        ++failures;
        return;
      }
      GenericFs fs(client);
      Rng rng(static_cast<uint64_t>(t) + 11);
      for (int i = 0; i < kFiles; ++i) {
        const std::string path =
            "fs::/c/t" + std::to_string(t) + "_" + std::to_string(i);
        const auto data = Pattern(rng.Range(1, 5) * kBlock - rng.Range(0, 99),
                                  static_cast<uint8_t>(i));
        auto fd = fs.Create(path);
        if (!fd.ok() || !fs.Write(*fd, data, 0).ok()) {
          ++failures;
          continue;
        }
        std::vector<uint8_t> out(data.size());
        auto read = fs.Read(*fd, out, 0);
        if (!read.ok() || out != data) ++failures;
        if (!fs.Close(*fd).ok()) ++failures;
        // Keep every third file; the rest go away again.
        if (i % 3 != 0 && !fs.Unlink(path).ok()) ++failures;
      }
    });
  }
  // A reader walks the namespace and the block maps meanwhile; the
  // audit's counts are only meaningful once the writers stop.
  std::thread auditor([&] {
    while (!stop.load()) {
      (void)labfs->AuditBlocks();
      (void)labfs->ListPaths();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  stop = true;
  auditor.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(labfs->file_count(), static_cast<size_t>(2 * kFiles / 3));
  const LabFsMod::BlockAudit audit = labfs->AuditBlocks();
  EXPECT_TRUE(audit.Consistent())
      << "free " << audit.free_blocks << " + mapped " << audit.mapped_blocks
      << " != " << audit.data_blocks;
  EXPECT_GT(audit.mapped_blocks, 0u);
  ASSERT_TRUE(labfs->StateRepair().ok());
  const LabFsMod::BlockAudit repaired = labfs->AuditBlocks();
  EXPECT_TRUE(repaired.Consistent());
  EXPECT_EQ(repaired.mapped_blocks, audit.mapped_blocks);
  EXPECT_EQ(repaired.free_blocks, audit.free_blocks);
}

// ---------- worker slots of sync clients ----------

TEST(SyncSlotTest, TwoClientsWriteThroughTheirOwnLogSlotAndPool) {
  constexpr int kFilesPerClient = 40;
  constexpr uint64_t kLogRecords = 4096;
  constexpr uint32_t kWorkers = 2;
  StoreRig rig("labfs", "fs::/slot", kLogRecords, 64 << 20, kWorkers);
  auto* labfs = rig.mod<LabFsMod>();
  EXPECT_EQ(rig.client().slot(), 0u);
  std::vector<std::unique_ptr<core::Client>> clients;
  for (uint32_t c = 0; c < 2; ++c) {
    clients.push_back(std::make_unique<core::Client>(
        rig.runtime(), ipc::Credentials{200 + c, 1000, 1000}));
    ASSERT_TRUE(clients.back()->Connect().ok());
  }
  // After the rig's client (queue 1, slot 0): queues 2 and 3.
  ASSERT_EQ(clients[0]->slot(), 1u);
  ASSERT_EQ(clients[1]->slot(), 0u);

  struct File {
    std::string path;
    std::vector<uint8_t> data;
  };
  std::vector<std::vector<File>> files(2);
  std::vector<uint64_t> blocks(2, 0);
  Rng rng(29);
  for (uint32_t c = 0; c < 2; ++c) {
    for (int i = 0; i < kFilesPerClient; ++i) {
      const uint64_t size = rng.Range(1, 4) * kBlock - rng.Range(0, 99);
      files[c].push_back(File{"fs::/slot/c" + std::to_string(c) + "_" +
                                  std::to_string(i),
                              Pattern(size, static_cast<uint8_t>(c * 64 + i))});
      blocks[c] += (size + kBlock - 1) / kBlock;
    }
  }
  std::vector<uint64_t> free_before(kWorkers);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    free_before[w] = labfs->allocator_free_blocks_of(w);
  }

  // Both clients write at once.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      GenericFs fs(*clients[c]);
      for (const File& f : files[c]) {
        auto fd = fs.Create(f.path);
        if (!fd.ok() || !fs.Write(*fd, f.data, 0).ok() ||
            !fs.Close(*fd).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Each client's blocks came out of its own pool, and nothing stole.
  for (uint32_t c = 0; c < 2; ++c) {
    const uint32_t slot = clients[c]->slot();
    EXPECT_EQ(labfs->allocator_free_blocks_of(slot),
              free_before[slot] - blocks[c])
        << "client " << c << " (slot " << slot << ")";
  }
  EXPECT_EQ(labfs->allocator_steals(), 0u);

  // Both log slots hold records on the device: slot w's region starts
  // w * kLogRecords records into the log.
  const MetadataLog* log = labfs->log();
  ASSERT_NE(log, nullptr);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    LogRecord first;
    auto* bytes = reinterpret_cast<uint8_t*>(&first);
    ASSERT_TRUE(rig.device()
                    ->ReadNow(log->region_offset() +
                                  w * kLogRecords * sizeof(LogRecord),
                              std::span(bytes, sizeof(LogRecord)))
                    .ok());
    EXPECT_EQ(first.magic, LogRecord::kMagic) << "log slot " << w << " empty";
  }

  // Replay merges the slots by sequence number: every file comes back
  // with its size and bytes.
  ASSERT_TRUE(labfs->StateRepair().ok());
  EXPECT_EQ(labfs->log_torn_dropped(), 0u);
  EXPECT_EQ(labfs->file_count(), 2u * kFilesPerClient);
  GenericFs fs(rig.client());
  for (const std::vector<File>& mine : files) {
    for (const File& f : mine) {
      auto size = labfs->FileSize(f.path);
      ASSERT_TRUE(size.ok()) << f.path;
      EXPECT_EQ(*size, f.data.size()) << f.path;
      auto fd = fs.Open(f.path, 0);
      ASSERT_TRUE(fd.ok()) << f.path;
      std::vector<uint8_t> out(f.data.size());
      auto read = fs.Read(*fd, out, 0);
      ASSERT_TRUE(read.ok()) << f.path;
      EXPECT_EQ(*read, f.data.size()) << f.path;
      EXPECT_EQ(out, f.data) << f.path;
      EXPECT_TRUE(fs.Close(*fd).ok());
    }
  }
  const LabFsMod::BlockAudit audit = labfs->AuditBlocks();
  EXPECT_TRUE(audit.Consistent());
  EXPECT_EQ(audit.mapped_blocks, blocks[0] + blocks[1]);
}

}  // namespace
}  // namespace labstor::labmods
