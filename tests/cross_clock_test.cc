// Two clocks, one behaviour (DESIGN.md §4 decision 2): the DES replaces
// *when* things happen, not *what* happens.
//
// One seeded LabFS op stream and one LabKVS op stream run through the
// inline sync path of a never-Started Runtime (a connected Client) and
// through SimRuntime, on sync and async stacks mounted from the same
// YAML. Both sides must answer every op alike (status, result word,
// bytes read) and hold the same logical state — names, sizes and
// contents — before and after StateRepair.
//
// Log-slot layout is deliberately not compared: the DES stamps
// req.worker from its queue assignment, while the inline path stamps
// the client's slot, so the two sides append to different log slots
// and allocate from different block pools.
//
// The LabFS stream also runs inline with and without an LRU cache under
// LabFS: a cache, like a clock, must change no answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "core/runtime.h"
#include "core/sim_runtime.h"
#include "labmods/labfs.h"
#include "labmods/labkvs.h"
#include "simdev/registry.h"

namespace labstor::core {
namespace {

constexpr size_t kWorkers = 2;
constexpr uint32_t kQid = 1;
constexpr uint64_t kDeviceBytes = 64 << 20;
constexpr size_t kOps = 150;
constexpr uint64_t kSeeds[] = {1, 2, 3};
constexpr const char* kModes[] = {"sync", "async"};

// LabFS over the kernel driver, through an lru_cache of `cache_pages`
// pages, or straight when it is 0.
std::string FsYaml(const std::string& mode, uint64_t cache_pages = 4096) {
  std::string yaml = "mount: fs::/cc\n"
                     "rules:\n"
                     "  exec_mode: " + mode +
                     "\n"
                     "dag:\n"
                     "  - mod: labfs\n"
                     "    uuid: labfs_cc\n"
                     "    params:\n"
                     "      log_records_per_worker: 1024\n";
  if (cache_pages != 0) {
    yaml += "    outputs: [lru_cc]\n"
            "  - mod: lru_cache\n"
            "    uuid: lru_cc\n"
            "    params:\n"
            "      capacity_pages: " + std::to_string(cache_pages) +
            "\n";
  }
  return yaml +
         "    outputs: [drv_cc]\n"
         "  - mod: kernel_driver\n"
         "    uuid: drv_cc\n";
}

std::string KvsYaml(const std::string& mode) {
  return "mount: kvs::/cc\n"
         "rules:\n"
         "  exec_mode: " + mode +
         "\n"
         "dag:\n"
         "  - mod: labkvs\n"
         "    uuid: labkvs_cc\n"
         "    params:\n"
         "      log_records_per_worker: 1024\n"
         "    outputs: [drv_cc]\n"
         "  - mod: kernel_driver\n"
         "    uuid: drv_cc\n";
}

struct Op {
  ipc::OpCode code = ipc::OpCode::kNop;
  std::string path;
  uint64_t offset = 0;  // also the truncate size
  uint64_t length = 0;  // payload or read-buffer bytes
  uint8_t fill = 0;
  std::string to;  // rename target
};

// What one op answered.
struct Answer {
  StatusCode code = StatusCode::kOk;
  uint64_t result = 0;
  std::vector<uint8_t> bytes;  // read or get data
  bool operator==(const Answer&) const = default;
};

std::vector<Op> FsStream(uint64_t seed) {
  Rng rng(seed);
  const auto name = [&rng] {
    return "fs::/cc/f" + std::to_string(rng.Range(0, 5));
  };
  std::vector<Op> ops;
  for (size_t i = 0; i < kOps; ++i) {
    Op op;
    op.path = name();
    const uint64_t roll = rng.Range(0, 99);
    if (roll < 15) {
      op.code = ipc::OpCode::kCreate;
    } else if (roll < 45) {
      op.code = ipc::OpCode::kWrite;
      op.offset = rng.Range(0, 3) * 4096 + rng.Range(0, 1) * rng.Range(1, 4000);
      op.length = rng.Range(1, 9000);
      op.fill = static_cast<uint8_t>(rng.Range(1, 255));
    } else if (roll < 70) {
      op.code = ipc::OpCode::kRead;
      op.offset = rng.Range(0, 20000);
      op.length = rng.Range(1, 12000);
    } else if (roll < 78) {
      op.code = ipc::OpCode::kTruncate;
      op.offset = rng.Range(0, 16384);
    } else if (roll < 85) {
      op.code = ipc::OpCode::kUnlink;
    } else if (roll < 90) {
      op.code = ipc::OpCode::kRename;
      op.to = name();
    } else {
      op.code = ipc::OpCode::kStat;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<Op> KvsStream(uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  for (size_t i = 0; i < kOps; ++i) {
    Op op;
    op.path = "kvs::/cc/k" + std::to_string(rng.Range(0, 7));
    const uint64_t roll = rng.Range(0, 99);
    if (roll < 40) {
      op.code = ipc::OpCode::kPut;
      op.length = rng.Range(1, 12000);
      op.fill = static_cast<uint8_t>(rng.Range(1, 255));
    } else if (roll < 70) {
      op.code = ipc::OpCode::kGet;
      op.length = 16384;
    } else if (roll < 85) {
      op.code = ipc::OpCode::kDelete;
    } else {
      op.code = ipc::OpCode::kExists;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// The inline sync path: a Client on a Runtime that is never Started.
class InlineSide {
 public:
  explicit InlineSide(const std::string& yaml)
      : devices_(nullptr),
        runtime_(Options(), devices_),
        client_(runtime_, ipc::Credentials{100, 1000, 1000}) {
    EXPECT_TRUE(
        devices_.Create(simdev::DeviceParams::NvmeP3700(kDeviceBytes)).ok());
    auto spec = StackSpec::Parse(yaml);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    stack_ = *stack;
    EXPECT_TRUE(client_.Connect().ok());
  }

  Status Run(ipc::Request& req) { return client_.Execute(req, *stack_); }
  ModuleRegistry& registry() { return runtime_.registry(); }

 private:
  static Runtime::Options Options() {
    Runtime::Options options;
    options.max_workers = kWorkers;
    return options;
  }

  simdev::DeviceRegistry devices_;
  Runtime runtime_;
  Client client_;
  Stack* stack_ = nullptr;
};

sim::Task<void> RunOne(SimRuntime& rt, Stack& stack, ipc::Request& req,
                       Status* out) {
  *out = co_await rt.Execute(kQid, stack, req);
}

// The DES: SimRuntime, one request at a time to completion.
class DesSide {
 public:
  explicit DesSide(const std::string& yaml)
      : devices_(&env_), rt_(env_, devices_, kWorkers) {
    EXPECT_TRUE(
        devices_.Create(simdev::DeviceParams::NvmeP3700(kDeviceBytes)).ok());
    auto stack = rt_.MountYaml(yaml);
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    stack_ = *stack;
    rt_.RegisterQueue(kQid, 3 * sim::kUs);
  }

  Status Run(ipc::Request& req) {
    Status st = Status::Internal("request never completed");
    env_.Spawn(RunOne(rt_, *stack_, req, &st));
    env_.Run();
    return st;
  }
  ModuleRegistry& registry() { return rt_.registry(); }

 private:
  sim::Environment env_;
  simdev::DeviceRegistry devices_;
  SimRuntime rt_;
  Stack* stack_ = nullptr;
};

template <typename Side>
Answer Apply(Side& side, const Op& op) {
  ipc::Request req;
  req.op = op.code;
  req.SetPath(op.path);
  req.offset = op.offset;
  req.length = op.length;
  std::vector<uint8_t> buf;
  if (op.code == ipc::OpCode::kWrite || op.code == ipc::OpCode::kPut) {
    buf.assign(op.length, op.fill);
  } else if (op.code == ipc::OpCode::kRead || op.code == ipc::OpCode::kGet) {
    buf.assign(op.length, 0);
  } else if (op.code == ipc::OpCode::kRename) {
    buf.assign(op.to.begin(), op.to.end());
    req.length = buf.size();
  }
  req.data = buf.empty() ? nullptr : buf.data();
  const Status st = side.Run(req);
  Answer answer{st.code(), req.result_u64, {}};
  if (st.ok() &&
      (op.code == ipc::OpCode::kRead || op.code == ipc::OpCode::kGet)) {
    const uint64_t n = std::min<uint64_t>(req.result_u64, buf.size());
    answer.bytes.assign(buf.begin(), buf.begin() + static_cast<long>(n));
  }
  return answer;
}

// Logical state: every name with its size and contents, read back
// through the side's own stack.
struct State {
  std::vector<std::string> names;
  std::vector<uint64_t> sizes;
  std::vector<Answer> contents;
  bool operator==(const State&) const = default;
};

template <typename Side>
State FsState(Side& side) {
  State state;
  auto mod = side.registry().Find("labfs_cc");
  EXPECT_TRUE(mod.ok());
  const auto* fs = dynamic_cast<const labmods::LabFsMod*>(*mod);
  state.names = fs->ListPaths();
  for (const std::string& path : state.names) {
    const uint64_t size = fs->FileSize(path).value_or(~uint64_t{0});
    state.sizes.push_back(size);
    Op read;
    read.code = ipc::OpCode::kRead;
    read.path = path;
    read.length = size + 1;
    state.contents.push_back(Apply(side, read));
  }
  return state;
}

template <typename Side>
State KvsState(Side& side) {
  State state;
  auto mod = side.registry().Find("labkvs_cc");
  EXPECT_TRUE(mod.ok());
  const auto* kvs = dynamic_cast<const labmods::LabKvsMod*>(*mod);
  state.names = kvs->ListKeys();
  for (const std::string& key : state.names) {
    const uint64_t size = kvs->ValueSize(key).value_or(~uint64_t{0});
    state.sizes.push_back(size);
    Op get;
    get.code = ipc::OpCode::kGet;
    get.path = key;
    get.length = size;
    state.contents.push_back(Apply(side, get));
  }
  return state;
}

// Runs `ops` through both sides and compares every answer, then the
// logical state before and after StateRepair.
template <typename SideA, typename SideB, typename StateFn>
void ExpectSameBehaviour(SideA& a_side, SideB& b_side,
                         const std::vector<Op>& ops, StateFn state_of) {
  size_t ok_ops = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Answer a = Apply(a_side, ops[i]);
    const Answer b = Apply(b_side, ops[i]);
    ASSERT_EQ(a, b) << "op " << i << " (" << ipc::OpCodeName(ops[i].code)
                    << " " << ops[i].path << "): "
                    << StatusCodeName(a.code) << " " << a.result << " against "
                    << StatusCodeName(b.code) << " " << b.result;
    if (a.code == StatusCode::kOk) ++ok_ops;
  }
  // A stream that fails everywhere would agree trivially.
  EXPECT_GT(ok_ops, ops.size() / 2);

  const State before = state_of(a_side);
  EXPECT_FALSE(before.names.empty());
  EXPECT_EQ(before, state_of(b_side));

  ASSERT_TRUE(a_side.registry().RepairAll().ok());
  ASSERT_TRUE(b_side.registry().RepairAll().ok());
  const State after = state_of(a_side);
  EXPECT_EQ(after, state_of(b_side));
  EXPECT_EQ(after, before) << "replay changed the logical state";
}

TEST(CrossClockTest, LabFsStreamAgreesAcrossClocks) {
  for (const char* mode : kModes) {
    for (const uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string("DES ") + mode + " stack, seed " +
                   std::to_string(seed));
      InlineSide inline_side(FsYaml("sync"));
      DesSide des_side(FsYaml(mode));
      ExpectSameBehaviour(inline_side, des_side, FsStream(seed),
                          [](auto& side) { return FsState(side); });
    }
  }
}

TEST(CrossClockTest, LabKvsStreamAgreesAcrossClocks) {
  for (const char* mode : kModes) {
    for (const uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string("DES ") + mode + " stack, seed " +
                   std::to_string(seed));
      InlineSide inline_side(KvsYaml("sync"));
      DesSide des_side(KvsYaml(mode));
      ExpectSameBehaviour(inline_side, des_side, KvsStream(seed),
                          [](auto& side) { return KvsState(side); });
    }
  }
}

// A cache changes no answer: the same stream, with its sub-page reads
// and writes, truncates and unlinks, through labfs -> kernel_driver and
// through labfs -> lru_cache -> kernel_driver, with a cache of 4 pages
// so that pages are evicted and refilled all the time.
TEST(CacheDifferentialTest, LabFsStreamAgreesWithAndWithoutCache) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    InlineSide bare(FsYaml("sync", /*cache_pages=*/0));
    InlineSide cached(FsYaml("sync", /*cache_pages=*/4));
    ExpectSameBehaviour(bare, cached, FsStream(seed),
                        [](auto& side) { return FsState(side); });
  }
}

}  // namespace
}  // namespace labstor::core
