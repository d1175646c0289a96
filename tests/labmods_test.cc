// Unit tests for the substrate pieces of the bundled LabMods:
// allocator, compressor, metadata log, and the policy/cache/gate mods
// driven through hand-built two-vertex stacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/module_registry.h"
#include "core/runtime.h"
#include "core/stack.h"
#include "core/stack_exec.h"
#include "labmods/adaptive_cache.h"
#include "labmods/block_allocator.h"
#include "labmods/compress.h"
#include "labmods/consistency.h"
#include "labmods/drivers.h"
#include "labmods/fslog.h"
#include "labmods/genericfs.h"
#include "labmods/lru_cache.h"
#include "labmods/lz77.h"
#include "labmods/permissions.h"
#include "labmods/schedulers.h"
#include "simdev/registry.h"

namespace labstor::labmods {
namespace {

// ---------- PerWorkerAllocator ----------

uint64_t TotalBlocks(const std::vector<BlockExtent>& extents) {
  uint64_t total = 0;
  for (const BlockExtent& e : extents) total += e.count;
  return total;
}

TEST(AllocatorTest, EvenInitialDivision) {
  PerWorkerAllocator alloc(100, 1000, 4);
  EXPECT_EQ(alloc.FreeBlocks(), 1000u);
  for (uint32_t w = 0; w < 4; ++w) EXPECT_EQ(alloc.FreeBlocksOf(w), 250u);
}

TEST(AllocatorTest, ContiguousAllocationFromOwnPool) {
  PerWorkerAllocator alloc(0, 1000, 4);
  auto extents = alloc.Alloc(1, 10);
  ASSERT_TRUE(extents.ok());
  ASSERT_EQ(extents->size(), 1u);
  EXPECT_EQ(TotalBlocks(*extents), 10u);
  // Worker 1's pool starts at block 250.
  EXPECT_EQ((*extents)[0].start, 250u);
  EXPECT_EQ(alloc.FreeBlocksOf(1), 240u);
  EXPECT_EQ(alloc.steals(), 0u);
}

TEST(AllocatorTest, StealsWhenOwnPoolDry) {
  PerWorkerAllocator alloc(0, 100, 2);  // 50 each
  auto big = alloc.Alloc(0, 50);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(alloc.FreeBlocksOf(0), 0u);
  auto stolen = alloc.Alloc(0, 10);
  ASSERT_TRUE(stolen.ok());
  EXPECT_EQ(TotalBlocks(*stolen), 10u);
  EXPECT_GE(alloc.steals(), 1u);
  EXPECT_EQ(alloc.FreeBlocks(), 40u);
}

TEST(AllocatorTest, ExhaustionFailsCleanly) {
  PerWorkerAllocator alloc(0, 20, 2);
  EXPECT_TRUE(alloc.Alloc(0, 20).ok());
  auto fail = alloc.Alloc(0, 1);
  EXPECT_EQ(fail.status().code(), StatusCode::kResourceExhausted);
  // Partial requests roll back: free count unchanged after failure.
  EXPECT_EQ(alloc.FreeBlocks(), 0u);
}

TEST(AllocatorTest, FreeCoalesces) {
  PerWorkerAllocator alloc(0, 100, 1);
  auto a = alloc.Alloc(0, 100);
  ASSERT_TRUE(a.ok());
  // Free in shuffled pieces; a full-range alloc must succeed again
  // (only possible if ranges coalesced back into one).
  alloc.Free(0, BlockExtent{30, 30});
  alloc.Free(0, BlockExtent{0, 30});
  alloc.Free(0, BlockExtent{60, 40});
  auto again = alloc.Alloc(0, 100);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), 1u);
  EXPECT_EQ((*again)[0].start, 0u);
}

TEST(AllocatorTest, RebuildFromFreeRanges) {
  PerWorkerAllocator alloc({BlockExtent{10, 5}, BlockExtent{100, 20}}, 2);
  EXPECT_EQ(alloc.FreeBlocks(), 25u);
  auto got = alloc.Alloc(0, 25);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(TotalBlocks(*got), 25u);
}

TEST(AllocatorTest, RandomizedNoDoubleAllocation) {
  Rng rng(42);
  PerWorkerAllocator alloc(0, 2000, 4);
  std::vector<bool> owned(2000, false);
  std::vector<BlockExtent> held;
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || rng.Bernoulli(0.6)) {
      const uint32_t worker = static_cast<uint32_t>(rng.Uniform(4));
      auto extents = alloc.Alloc(worker, rng.Range(1, 8));
      if (!extents.ok()) continue;
      for (const BlockExtent& e : *extents) {
        for (uint64_t i = e.start; i < e.start + e.count; ++i) {
          ASSERT_FALSE(owned[i]) << "block " << i << " double-allocated";
          owned[i] = true;
        }
        held.push_back(e);
      }
    } else {
      const size_t victim = rng.Uniform(held.size());
      const BlockExtent e = held[victim];
      held.erase(held.begin() + static_cast<ptrdiff_t>(victim));
      for (uint64_t i = e.start; i < e.start + e.count; ++i) owned[i] = false;
      alloc.Free(static_cast<uint32_t>(rng.Uniform(4)), e);
    }
  }
  uint64_t held_blocks = 0;
  for (const BlockExtent& e : held) held_blocks += e.count;
  EXPECT_EQ(alloc.FreeBlocks(), 2000u - held_blocks);
}

// ---------- LZ77 ----------

void RoundTrip(const std::vector<uint8_t>& input) {
  const std::vector<uint8_t> compressed = Lz77Compress(input);
  auto restored = Lz77Decompress(compressed, input.size());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, input);
}

TEST(Lz77Test, EmptyInput) { RoundTrip({}); }

TEST(Lz77Test, TinyInput) { RoundTrip({1, 2, 3}); }

TEST(Lz77Test, RepetitiveCompressesWell) {
  std::vector<uint8_t> input(100000);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<uint8_t>(i % 7);
  const std::vector<uint8_t> compressed = Lz77Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  RoundTrip(input);
}

TEST(Lz77Test, AllSameByte) {
  std::vector<uint8_t> input(65536, 0xAA);
  const std::vector<uint8_t> compressed = Lz77Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 6);
  RoundTrip(input);
}

TEST(Lz77Test, RandomDataSurvives) {
  Rng rng(7);
  std::vector<uint8_t> input(50000);
  for (uint8_t& b : input) b = static_cast<uint8_t>(rng.Next());
  RoundTrip(input);  // may expand slightly but must round-trip
}

TEST(Lz77Test, TextLikeData) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "particle simulation writes 8 floating point values per step; ";
  }
  std::vector<uint8_t> input(text.begin(), text.end());
  const std::vector<uint8_t> compressed = Lz77Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 3);
  RoundTrip(input);
}

TEST(Lz77Test, CorruptionDetected) {
  std::vector<uint8_t> input(1000, 0x55);
  std::vector<uint8_t> compressed = Lz77Compress(input);
  compressed.resize(compressed.size() / 2);  // truncate
  EXPECT_FALSE(Lz77Decompress(compressed, input.size()).ok());
  EXPECT_FALSE(Lz77Decompress({}, 10).ok());
}

TEST(Lz77Test, SizeMismatchDetected) {
  std::vector<uint8_t> input(1000, 0x55);
  const std::vector<uint8_t> compressed = Lz77Compress(input);
  EXPECT_FALSE(Lz77Decompress(compressed, input.size() + 1).ok());
}

// ---------- MetadataLog ----------

TEST(MetadataLogTest, AppendAndReplayInSequenceOrder) {
  simdev::SimDevice device(nullptr, simdev::DeviceParams::NvmeP3700(8 << 20));
  MetadataLog log(&device, 0, /*workers=*/4, /*per_worker_records=*/64);
  // Interleave appends across workers.
  for (uint64_t i = 0; i < 20; ++i) {
    LogRecord record;
    record.op = LogOp::kCreate;
    record.inode_id = i;
    record.SetPath("/f" + std::to_string(i));
    ASSERT_TRUE(log.Append(static_cast<uint32_t>(i % 4), record).ok());
  }
  uint64_t expected_seq = 0;
  uint64_t count = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord& record) -> Status {
                   EXPECT_GT(record.seq, expected_seq);
                   expected_seq = record.seq;
                   ++count;
                   return Status::Ok();
                 })
                  .ok());
  EXPECT_EQ(count, 20u);
  EXPECT_EQ(log.records_appended(), 20u);
}

TEST(MetadataLogTest, RegionFull) {
  simdev::SimDevice device(nullptr, simdev::DeviceParams::NvmeP3700(8 << 20));
  MetadataLog log(&device, 0, 1, 4);
  LogRecord record;
  record.op = LogOp::kCreate;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(log.Append(0, record).ok());
  EXPECT_EQ(log.Append(0, record).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(MetadataLogTest, ReplaySurvivesReconstruction) {
  // A second MetadataLog over the same region must see the records
  // (this is what StateRepair relies on).
  simdev::SimDevice device(nullptr, simdev::DeviceParams::NvmeP3700(8 << 20));
  {
    MetadataLog log(&device, 0, 2, 64);
    LogRecord record;
    record.op = LogOp::kCreate;
    record.inode_id = 42;
    record.SetPath("/persisted");
    ASSERT_TRUE(log.Append(1, record).ok());
  }
  MetadataLog fresh(&device, 0, 2, 64);
  bool seen = false;
  ASSERT_TRUE(fresh
                  .Replay([&](const LogRecord& record) -> Status {
                    seen = record.inode_id == 42 &&
                           record.GetPath() == "/persisted";
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_TRUE(seen);
}

// ---------- Mods through minimal stacks ----------

class ModStackTest : public ::testing::Test {
 protected:
  ModStackTest() {
    auto dev = devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20));
    EXPECT_TRUE(dev.ok());
    device_ = *dev;
    ctx_.devices = &devices_;
    ctx_.num_workers = 2;
  }

  core::Stack* MountYaml(const std::string& yaml) {
    auto spec = core::StackSpec::Parse(yaml);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto stack = ns_.Mount(*spec, registry_, ctx_, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    return *stack;
  }

  Status Run(core::Stack* stack, ipc::Request& req, core::ExecTrace* trace) {
    core::StackExec exec(*stack, ctx_, *trace);
    return exec.Dispatch(req);
  }

  simdev::DeviceRegistry devices_;
  simdev::SimDevice* device_ = nullptr;
  core::ModuleRegistry registry_;
  core::ModContext ctx_;
  core::StackNamespace ns_;
};

TEST_F(ModStackTest, LruCacheWriteThroughAndReadHit) {
  core::Stack* stack = MountYaml(
      "mount: blk::/cache\n"
      "dag:\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_t1\n"
      "    outputs: [drv_t1]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t1\n");
  std::vector<uint8_t> data(8192, 0x3C);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.offset = 4096;
  req.length = data.size();
  req.data = data.data();
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  // Write-through: device saw the write.
  EXPECT_EQ(device_->stats().writes.load(), 1u);

  // Read back: served from cache, no device read.
  std::vector<uint8_t> out(8192, 0);
  req.op = ipc::OpCode::kBlkRead;
  req.data = out.data();
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_EQ(device_->stats().reads.load(), 0u);
  EXPECT_EQ(out, data);

  auto mod = registry_.Find("lru_t1");
  ASSERT_TRUE(mod.ok());
  auto* lru = dynamic_cast<LruCacheMod*>(*mod);
  ASSERT_NE(lru, nullptr);
  EXPECT_EQ(lru->hits(), 1u);
  EXPECT_EQ(lru->misses(), 0u);
}

TEST_F(ModStackTest, LruCacheMissFetchesAndFills) {
  core::Stack* stack = MountYaml(
      "mount: blk::/cache2\n"
      "dag:\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_t2\n"
      "    outputs: [drv_t2]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t2\n");
  // Seed the device directly, bypassing the cache.
  std::vector<uint8_t> data(4096, 0x77);
  ASSERT_TRUE(device_->WriteNow(0, data).ok());

  std::vector<uint8_t> out(4096, 0);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkRead;
  req.offset = 0;
  req.length = 4096;
  req.data = out.data();
  core::ExecTrace trace;
  const uint64_t reads_before = device_->stats().reads.load();
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  EXPECT_EQ(device_->stats().reads.load(), reads_before + 1);
  EXPECT_EQ(out, data);
  // Second read hits.
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_EQ(device_->stats().reads.load(), reads_before + 1);
}

TEST_F(ModStackTest, LruCacheEvicts) {
  core::Stack* stack = MountYaml(
      "mount: blk::/cache3\n"
      "dag:\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_t3\n"
      "    params:\n"
      "      capacity_pages: 4\n"
      "    outputs: [drv_t3]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t3\n");
  std::vector<uint8_t> data(4096, 1);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.length = 4096;
  req.data = data.data();
  core::ExecTrace trace;
  for (int i = 0; i < 10; ++i) {
    req.offset = static_cast<uint64_t>(i) * 4096;
    ASSERT_TRUE(Run(stack, req, &trace).ok());
  }
  auto mod = registry_.Find("lru_t3");
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ(dynamic_cast<LruCacheMod*>(*mod)->resident_pages(), 4u);
}

// A chunk smaller than a page must not make the page resident: the
// cache never saw the rest of its bytes. Both page caches keep this
// rule, so each case runs over both.
class CacheSubPageTest : public ModStackTest,
                         public ::testing::WithParamInterface<std::string> {
 protected:
  core::Stack* MountCache(const std::string& tag) {
    return MountYaml("mount: blk::/cache_" + tag +
                     "\n"
                     "dag:\n"
                     "  - mod: " + GetParam() +
                     "\n"
                     "    uuid: cache_" + tag +
                     "\n"
                     "    outputs: [drv_" + tag +
                     "]\n"
                     "  - mod: kernel_driver\n"
                     "    uuid: drv_" + tag + "\n");
  }

  // {hits, misses} of the cache MountCache(tag) mounted.
  std::pair<uint64_t, uint64_t> Counts(const std::string& tag) {
    auto mod = registry_.Find("cache_" + tag);
    EXPECT_TRUE(mod.ok());
    if (!mod.ok()) return {0, 0};
    if (const auto* lru = dynamic_cast<LruCacheMod*>(*mod); lru != nullptr) {
      return {lru->hits(), lru->misses()};
    }
    const auto* adaptive = dynamic_cast<AdaptiveCacheMod*>(*mod);
    EXPECT_NE(adaptive, nullptr);
    if (adaptive == nullptr) return {0, 0};
    return {adaptive->hits(), adaptive->misses()};
  }
};

// A sub-page write to a page the cache does not hold goes to the
// device only; a later full-page read misses and returns the device's
// bytes.
TEST_P(CacheSubPageTest, WriteKeepsDeviceBytes) {
  core::Stack* stack = MountCache("sw");
  ASSERT_TRUE(device_->WriteNow(0, std::vector<uint8_t>(4096, 0x77)).ok());
  std::vector<uint8_t> small(10, 0x11);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.offset = 100;
  req.length = small.size();
  req.data = small.data();
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());

  std::vector<uint8_t> want(4096, 0x77);
  std::fill(want.begin() + 100, want.begin() + 110, 0x11);
  for (int pass = 0; pass < 2; ++pass) {  // a miss, then a hit
    std::vector<uint8_t> out(4096, 0);
    req.op = ipc::OpCode::kBlkRead;
    req.offset = 0;
    req.length = out.size();
    req.data = out.data();
    core::ExecTrace read_trace;
    ASSERT_TRUE(Run(stack, req, &read_trace).ok());
    EXPECT_EQ(out, want) << "pass " << pass;
  }
  EXPECT_EQ(Counts("sw"), std::make_pair(uint64_t{1}, uint64_t{1}));

  // Once resident, a sub-page write updates the page in place.
  req.op = ipc::OpCode::kBlkWrite;
  req.offset = 4000;
  req.length = small.size();
  req.data = small.data();
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  std::fill(want.begin() + 4000, want.begin() + 4010, 0x11);
  std::vector<uint8_t> out(4096, 0);
  req.op = ipc::OpCode::kBlkRead;
  req.offset = 0;
  req.length = out.size();
  req.data = out.data();
  core::ExecTrace trace3;
  ASSERT_TRUE(Run(stack, req, &trace3).ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(Counts("sw").first, 2u);
}

// A sub-page read miss fills nothing: the device returned only the
// bytes asked for.
TEST_P(CacheSubPageTest, ReadMissKeepsDeviceBytes) {
  core::Stack* stack = MountCache("sr");
  const std::vector<uint8_t> data(4096, 0x77);
  ASSERT_TRUE(device_->WriteNow(0, data).ok());
  std::vector<uint8_t> small(100, 0);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkRead;
  req.offset = 10;
  req.length = small.size();
  req.data = small.data();
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  EXPECT_EQ(small, std::vector<uint8_t>(100, 0x77));

  std::vector<uint8_t> out(4096, 0);
  req.offset = 0;
  req.length = out.size();
  req.data = out.data();
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    BothCaches, CacheSubPageTest,
    ::testing::Values(std::string("lru_cache"), std::string("adaptive_cache")),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

// End to end through GenericFs: a page evicted from a one-page cache,
// then written in part, still reads back its other bytes.
TEST(LruCacheFsTest, SubPageWriteAfterEvictionKeepsFileBytes) {
  simdev::DeviceRegistry devices(nullptr);
  ASSERT_TRUE(
      devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  core::Runtime::Options options;
  options.max_workers = 1;
  core::Runtime runtime(std::move(options), devices);
  auto spec = core::StackSpec::Parse(
      "mount: fs::/lc\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_lc\n"
      "    params:\n"
      "      log_records_per_worker: 1024\n"
      "    outputs: [lru_lc]\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_lc\n"
      "    params:\n"
      "      capacity_pages: 1\n"
      "    outputs: [drv_lc]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_lc\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(runtime.MountStack(*spec, ipc::Credentials{1, 0, 0}).ok());
  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  GenericFs fs(client);

  auto f = fs.Create("fs::/lc/f");
  auto g = fs.Create("fs::/lc/g");
  ASSERT_TRUE(f.ok() && g.ok());
  ASSERT_TRUE(fs.Write(*f, std::vector<uint8_t>(4096, 'A'), 0).ok());
  ASSERT_TRUE(fs.Write(*g, std::vector<uint8_t>(4096, 'B'), 0).ok());
  ASSERT_TRUE(fs.Write(*f, std::vector<uint8_t>(10, 'C'), 100).ok());
  std::vector<uint8_t> out(4096, 0);
  auto read = fs.Read(*f, out, 0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, out.size());
  std::vector<uint8_t> want(4096, 'A');
  std::fill(want.begin() + 100, want.begin() + 110, 'C');
  EXPECT_EQ(out, want);
}

// The LRU's rule, modelled independently: min(16, capacity) shards,
// HashBucket of the page index picks one, the capacity is split evenly
// with the remainder on the first shards, and each shard evicts its
// least recently used page. A read hits only when all its pages are
// resident. Hit, miss fill and write each touch the request's pages in
// order (refresh a resident page, insert a missing one).
class LruModel {
 public:
  explicit LruModel(uint64_t capacity)
      : shards_(std::min<uint64_t>(16, capacity)) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i].capacity =
          capacity / shards_.size() + (i < capacity % shards_.size() ? 1 : 0);
    }
  }
  void Touch(uint64_t page) {
    Shard& shard = shards_[HashBucket(page, shards_.size())];
    const auto it = std::find(shard.lru.begin(), shard.lru.end(), page);
    if (it != shard.lru.end()) {
      shard.lru.erase(it);
    } else if (shard.lru.size() == shard.capacity) {
      shard.lru.pop_back();
    }
    shard.lru.push_front(page);
  }
  bool Resident(uint64_t page) const {
    const Shard& shard = shards_[HashBucket(page, shards_.size())];
    return std::find(shard.lru.begin(), shard.lru.end(), page) !=
           shard.lru.end();
  }
  size_t resident() const {
    size_t total = 0;
    for (const Shard& shard : shards_) total += shard.lru.size();
    return total;
  }

 private:
  struct Shard {
    size_t capacity = 0;
    std::list<uint64_t> lru;  // front = most recent
  };
  std::vector<Shard> shards_;
};

class LruSemanticsTest : public ModStackTest,
                         public ::testing::WithParamInterface<uint64_t> {
 protected:
  static constexpr uint64_t kPage = 4096;
  // Page `page` at write `version`; version 0 is the device's zeros.
  static void Fill(uint8_t* out, uint64_t page, uint32_t version) {
    if (version == 0) {
      std::memset(out, 0, kPage);
      return;
    }
    for (uint64_t i = 0; i < kPage; ++i) {
      out[i] = static_cast<uint8_t>(page * 31 + version * 7 + i);
    }
    std::memcpy(out, &page, sizeof(page));
    std::memcpy(out + sizeof(page), &version, sizeof(version));
  }
};

// A seeded single-threaded stream of 1-3 page writes and reads over
// twice the capacity, half of it aimed at a hot set: every read
// returns the last bytes written, hits or misses exactly when the
// model does, and the resident set never exceeds the capacity.
TEST_P(LruSemanticsTest, SeededStreamMatchesShardedLruModel) {
  const uint64_t capacity = GetParam();
  const std::string tag = "lru_sem" + std::to_string(capacity);
  core::Stack* stack = MountYaml(
      "mount: blk::/" + tag + "\ndag:\n  - mod: lru_cache\n    uuid: " +
      tag + "\n    params:\n      capacity_pages: " +
      std::to_string(capacity) + "\n    outputs: [drv_" + tag +
      "]\n  - mod: kernel_driver\n    uuid: drv_" + tag + "\n");
  auto mod = registry_.Find(tag);
  ASSERT_TRUE(mod.ok());
  auto* lru = dynamic_cast<LruCacheMod*>(*mod);
  ASSERT_NE(lru, nullptr);

  const uint64_t universe = 2 * capacity + 5;
  const uint64_t hot = capacity / 2 + 1;
  const uint64_t ops = std::max<uint64_t>(3000, 6 * capacity);
  LruModel model(capacity);
  std::vector<uint32_t> version(universe, 0);
  std::vector<uint8_t> buf(3 * kPage);
  std::vector<uint8_t> want(kPage);
  Rng rng(capacity * 7919 + 1);
  uint64_t reads = 0;
  uint64_t model_hits = 0;
  for (uint64_t op = 0; op < ops; ++op) {
    const uint64_t span = rng.Bernoulli(0.1) ? rng.Range(2, 3) : 1;
    const uint64_t first = rng.Bernoulli(0.5)
                               ? rng.Uniform(hot)
                               : rng.Uniform(universe - span + 1);
    ipc::Request req;
    req.offset = first * kPage;
    req.length = span * kPage;
    req.data = buf.data();
    core::ExecTrace trace;
    if (rng.Bernoulli(0.4)) {
      for (uint64_t p = 0; p < span; ++p) {
        Fill(buf.data() + p * kPage, first + p, ++version[first + p]);
      }
      req.op = ipc::OpCode::kBlkWrite;
      ASSERT_TRUE(Run(stack, req, &trace).ok());
    } else {
      bool hit = true;
      for (uint64_t p = 0; p < span; ++p) hit = hit && model.Resident(first + p);
      const uint64_t hits_before = lru->hits();
      req.op = ipc::OpCode::kBlkRead;
      ASSERT_TRUE(Run(stack, req, &trace).ok());
      ++reads;
      model_hits += hit ? 1 : 0;
      ASSERT_EQ(lru->hits() - hits_before, hit ? 1u : 0u)
          << "op " << op << " reads pages " << first << ".." << first + span - 1;
      ASSERT_EQ(req.result_u64, req.length);
      for (uint64_t p = 0; p < span; ++p) {
        Fill(want.data(), first + p, version[first + p]);
        ASSERT_EQ(std::memcmp(buf.data() + p * kPage, want.data(), kPage), 0)
            << "op " << op << " page " << first + p << " version "
            << version[first + p];
      }
    }
    for (uint64_t p = 0; p < span; ++p) model.Touch(first + p);
    ASSERT_EQ(lru->resident_pages(), model.resident()) << "op " << op;
    ASSERT_LE(lru->resident_pages(), capacity);
  }
  EXPECT_EQ(lru->hits() + lru->misses(), reads);
  EXPECT_EQ(lru->hits(), model_hits);
  // The stream exercised both outcomes.
  EXPECT_GT(model_hits, 0u);
  EXPECT_LT(model_hits, reads);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruSemanticsTest,
                         ::testing::Values(1, 3, 16, 17, 4096),
                         [](const auto& capacity) {
                           return "cap" + std::to_string(capacity.param);
                         });

// Two workers can drain queues bound to one stack, so one cache
// instance sees concurrent reads. Its hit/miss counters must count
// each read exactly once and be readable mid-run (ThreadSanitizer flags
// any counter access outside the cache's locks).
class CacheCounterTest : public ModStackTest {
 protected:
  static constexpr uint64_t kPages = 8;
  static constexpr uint64_t kReadsPerThread = 2000;

  core::Stack* MountCache(const std::string& mod, const std::string& tag) {
    return MountYaml("mount: blk::/" + tag + "\ndag:\n  - mod: " + mod +
                     "\n    uuid: cache_" + tag + "\n    outputs: [drv_" +
                     tag + "]\n  - mod: kernel_driver\n    uuid: drv_" + tag +
                     "\n");
  }

  // Writes 2 * kPages pages through `stack` (write-through fills the
  // cache), then two threads read kPages of them back while this
  // thread samples the hit counter: both the first kPages, or with
  // `disjoint` one thread the first kPages and the other the rest.
  template <typename Cache>
  void ReadConcurrently(core::Stack* stack, const Cache& cache,
                        bool disjoint = false) {
    std::vector<uint8_t> page(4096, 0x5A);
    for (uint64_t p = 0; p < 2 * kPages; ++p) {
      ipc::Request req;
      req.op = ipc::OpCode::kBlkWrite;
      req.offset = p * page.size();
      req.length = page.size();
      req.data = page.data();
      core::ExecTrace trace;
      ASSERT_TRUE(Run(stack, req, &trace).ok());
    }
    std::atomic<int> running{2};
    const auto reader = [&](uint64_t first_page) {
      std::vector<uint8_t> out(page.size());
      for (uint64_t i = 0; i < kReadsPerThread; ++i) {
        ipc::Request req;
        req.op = ipc::OpCode::kBlkRead;
        req.offset = (first_page + i % kPages) * out.size();
        req.length = out.size();
        req.data = out.data();
        core::ExecTrace trace;
        EXPECT_TRUE(Run(stack, req, &trace).ok());
      }
      running.fetch_sub(1);
    };
    std::thread a(reader, 0);
    std::thread b(reader, disjoint ? kPages : 0);
    uint64_t sampled = 0;
    while (running.load() > 0) sampled = std::max(sampled, cache.hits());
    a.join();
    b.join();
    EXPECT_LE(sampled, 2 * kReadsPerThread);
  }
};

TEST_F(CacheCounterTest, LruCountsEveryConcurrentHit) {
  core::Stack* stack = MountCache("lru_cache", "lru_cc");
  auto mod = registry_.Find("cache_lru_cc");
  ASSERT_TRUE(mod.ok());
  auto* lru = dynamic_cast<LruCacheMod*>(*mod);
  ASSERT_NE(lru, nullptr);
  ReadConcurrently(stack, *lru);
  EXPECT_EQ(lru->hits(), 2 * kReadsPerThread);
  EXPECT_EQ(lru->misses(), 0u);
}

// Disjoint pages mostly fall in different shards of the LRU, so the
// two readers count their hits under different shard locks.
TEST_F(CacheCounterTest, LruCountsEveryHitOnDisjointPages) {
  core::Stack* stack = MountCache("lru_cache", "lru_dj");
  auto mod = registry_.Find("cache_lru_dj");
  ASSERT_TRUE(mod.ok());
  auto* lru = dynamic_cast<LruCacheMod*>(*mod);
  ASSERT_NE(lru, nullptr);
  ReadConcurrently(stack, *lru, /*disjoint=*/true);
  EXPECT_EQ(lru->hits(), 2 * kReadsPerThread);
  EXPECT_EQ(lru->misses(), 0u);
  EXPECT_EQ(lru->resident_pages(), 2 * kPages);
}

// Two threads on one LRU over overlapping pages: writes and reads of
// one to three pages in a cache of two pages per shard, so requests hit,
// miss, evict and lock several shards at once while the other thread
// does the same (the ThreadSanitizer job runs this). Every page is only
// ever written with one byte pattern, so whatever the interleaving, a
// read must return that pattern, and every read counts once.
TEST_F(CacheCounterTest, LruTwoThreadsHitEvictAndSpanShards) {
  constexpr uint64_t kPage = 4096;
  constexpr uint64_t kUniverse = 48;
  constexpr int kOpsPerThread = 3000;
  core::Stack* stack = MountYaml(
      "mount: blk::/lru_2t\n"
      "dag:\n"
      "  - mod: lru_cache\n"
      "    uuid: cache_lru_2t\n"
      "    params:\n"
      "      capacity_pages: 32\n"
      "    outputs: [drv_lru_2t]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_lru_2t\n");
  auto mod = registry_.Find("cache_lru_2t");
  ASSERT_TRUE(mod.ok());
  auto* lru = dynamic_cast<LruCacheMod*>(*mod);
  ASSERT_NE(lru, nullptr);
  const auto fill = [](uint64_t page) {
    return static_cast<uint8_t>(page * 37 + 1);
  };
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> wrong{0};
  const auto worker = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<uint8_t> buf(3 * kPage);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const uint64_t span = rng.Range(1, 3);
      const uint64_t first = rng.Uniform(kUniverse - span + 1);
      ipc::Request req;
      req.offset = first * kPage;
      req.length = span * kPage;
      req.data = buf.data();
      core::ExecTrace trace;
      if (rng.Bernoulli(0.4)) {
        for (uint64_t p = 0; p < span; ++p) {
          std::memset(buf.data() + p * kPage, fill(first + p), kPage);
        }
        req.op = ipc::OpCode::kBlkWrite;
        EXPECT_TRUE(Run(stack, req, &trace).ok());
        continue;
      }
      std::fill(buf.begin(), buf.end(), 0);
      req.op = ipc::OpCode::kBlkRead;
      EXPECT_TRUE(Run(stack, req, &trace).ok());
      reads.fetch_add(1);
      for (uint64_t p = 0; p < span; ++p) {
        const uint8_t* page = buf.data() + p * kPage;
        // Zeros: the page has not been written yet.
        if (page[0] != 0 && page[0] != fill(first + p)) wrong.fetch_add(1);
        if (std::memcmp(page, page + 1, kPage - 1) != 0) wrong.fetch_add(1);
      }
    }
  };
  std::thread a(worker, 1);
  std::thread b(worker, 2);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(lru->hits() + lru->misses(), reads.load());
  EXPECT_GT(lru->hits(), 0u);
  EXPECT_GT(lru->misses(), 0u);
  EXPECT_EQ(lru->resident_pages(), 32u);
}

TEST_F(CacheCounterTest, AdaptiveCountsEveryConcurrentHit) {
  core::Stack* stack = MountCache("adaptive_cache", "adaptive_cc");
  auto mod = registry_.Find("cache_adaptive_cc");
  ASSERT_TRUE(mod.ok());
  auto* cache = dynamic_cast<AdaptiveCacheMod*>(*mod);
  ASSERT_NE(cache, nullptr);
  ReadConcurrently(stack, *cache);
  EXPECT_EQ(cache->hits(), 2 * kReadsPerThread);
  EXPECT_EQ(cache->misses(), 0u);
}

TEST_F(ModStackTest, PermissionsGateDeniesAndCounts) {
  core::Stack* stack = MountYaml(
      "mount: blk::/gated\n"
      "dag:\n"
      "  - mod: permissions\n"
      "    uuid: perm_t1\n"
      "    params:\n"
      "      default: deny\n"
      "      allow:\n"
      "        - prefix: blk::/gated/public\n"
      "          uids: [1000]\n"
      "    outputs: [drv_t4]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t4\n");
  std::vector<uint8_t> data(512, 9);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.length = data.size();
  req.data = data.data();
  req.client_uid = 1000;
  req.SetPath("blk::/gated/public/x");
  core::ExecTrace trace;
  EXPECT_TRUE(Run(stack, req, &trace).ok());
  req.SetPath("blk::/gated/secret/x");
  core::ExecTrace trace2;
  EXPECT_EQ(Run(stack, req, &trace2).code(), StatusCode::kPermissionDenied);
  // Root bypasses.
  req.client_uid = 0;
  core::ExecTrace trace3;
  EXPECT_TRUE(Run(stack, req, &trace3).ok());

  auto mod = registry_.Find("perm_t1");
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ(dynamic_cast<PermissionsMod*>(*mod)->checks_performed(), 3u);
}

TEST_F(ModStackTest, CompressRoundTripsThroughDevice) {
  core::Stack* stack = MountYaml(
      "mount: blk::/zip\n"
      "dag:\n"
      "  - mod: compress\n"
      "    uuid: zip_t1\n"
      "    outputs: [drv_t5]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t5\n");
  // Compressible payload.
  std::vector<uint8_t> data(16384);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i % 11);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.offset = 0;
  req.length = data.size();
  req.data = data.data();
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());

  auto mod = registry_.Find("zip_t1");
  ASSERT_TRUE(mod.ok());
  auto* zip = dynamic_cast<CompressMod*>(*mod);
  EXPECT_LT(zip->ratio(), 0.5);  // actually compressed
  EXPECT_EQ(device_->stats().bytes_written.load(), zip->bytes_out());

  std::vector<uint8_t> out(16384, 0);
  req.op = ipc::OpCode::kBlkRead;
  req.data = out.data();
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_EQ(out, data);
}

TEST_F(ModStackTest, ConsistencyWriteBackAbsorbsUntilFsync) {
  core::Stack* stack = MountYaml(
      "mount: blk::/wb\n"
      "dag:\n"
      "  - mod: consistency\n"
      "    uuid: wb_t1\n"
      "    params:\n"
      "      policy: write_back\n"
      "      watermark_extents: 100\n"
      "    outputs: [drv_t6]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t6\n");
  std::vector<uint8_t> data(4096, 0xBE);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.offset = 0;
  req.length = 4096;
  req.data = data.data();
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  EXPECT_EQ(device_->stats().writes.load(), 0u);  // absorbed

  auto mod = registry_.Find("wb_t1");
  ASSERT_TRUE(mod.ok());
  auto* wb = dynamic_cast<ConsistencyMod*>(*mod);
  EXPECT_EQ(wb->dirty_extents(), 1u);

  // Read-your-writes from the dirty buffer.
  std::vector<uint8_t> out(4096, 0);
  req.op = ipc::OpCode::kBlkRead;
  req.data = out.data();
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(device_->stats().reads.load(), 0u);

  // Fsync flushes to the device.
  req.op = ipc::OpCode::kBlkFlush;
  req.data = nullptr;
  core::ExecTrace trace3;
  ASSERT_TRUE(Run(stack, req, &trace3).ok());
  EXPECT_EQ(device_->stats().writes.load(), 1u);
  EXPECT_EQ(wb->dirty_extents(), 0u);
}

TEST_F(ModStackTest, ConsistencyRelaxedSkipsFsync) {
  core::Stack* stack = MountYaml(
      "mount: blk::/relaxed\n"
      "dag:\n"
      "  - mod: consistency\n"
      "    uuid: rel_t1\n"
      "    params:\n"
      "      policy: relaxed\n"
      "    outputs: [drv_t7]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t7\n");
  std::vector<uint8_t> data(4096, 1);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.length = 4096;
  req.data = data.data();
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  req.op = ipc::OpCode::kBlkFlush;
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_EQ(device_->stats().writes.load(), 0u);  // fsync was a no-op
}

TEST_F(ModStackTest, NoOpSchedMapsByOriginCore) {
  core::Stack* stack = MountYaml(
      "mount: blk::/noop\n"
      "dag:\n"
      "  - mod: noop_sched\n"
      "    uuid: noop_t1\n"
      "    params:\n"
      "      num_queues: 8\n"
      "    outputs: [drv_t8]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t8\n");
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.length = 0;
  req.client_pid = 13;
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  EXPECT_EQ(req.channel, 13u % 8u);
  // Deterministic per pid.
  req.client_pid = 21;
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_EQ(req.channel, 21u % 8u);
}

TEST_F(ModStackTest, BlkSwitchSeparatesSizeClasses) {
  core::Stack* stack = MountYaml(
      "mount: blk::/blksw\n"
      "dag:\n"
      "  - mod: blk_switch_sched\n"
      "    uuid: blksw_t1\n"
      "    params:\n"
      "      num_queues: 8\n"
      "      device: nvme0\n"
      "    outputs: [drv_t9]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_t9\n");
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.length = 4096;  // latency class
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  EXPECT_LT(req.channel, 4u);
  req.length = 64 * 1024;  // throughput class
  core::ExecTrace trace2;
  ASSERT_TRUE(Run(stack, req, &trace2).ok());
  EXPECT_GE(req.channel, 4u);
}

TEST_F(ModStackTest, TraceRecordsComponentCosts) {
  core::Stack* stack = MountYaml(
      "mount: blk::/traced\n"
      "dag:\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_tr\n"
      "    outputs: [sched_tr]\n"
      "  - mod: noop_sched\n"
      "    uuid: sched_tr\n"
      "    outputs: [drv_tr]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_tr\n");
  std::vector<uint8_t> data(4096, 5);
  ipc::Request req;
  req.op = ipc::OpCode::kBlkWrite;
  req.length = 4096;
  req.data = data.data();
  core::ExecTrace trace;
  ASSERT_TRUE(Run(stack, req, &trace).ok());
  EXPECT_GT(trace.SoftwareFor("cache"), 0u);
  EXPECT_GT(trace.SoftwareFor("sched"), 0u);
  EXPECT_GT(trace.SoftwareFor("kernel_driver"), 0u);
  EXPECT_EQ(trace.SoftwareFor("cache") + trace.SoftwareFor("sched") +
                trace.SoftwareFor("kernel_driver"),
            trace.TotalSoftware());
  ASSERT_EQ(trace.device_ops().size(), 1u);
  EXPECT_EQ(trace.device_ops()[0].length, 4096u);
}

}  // namespace
}  // namespace labstor::labmods
