// Parameterized property tests: invariants swept across API kinds,
// device presets, corpora, orchestrator policies, stack compositions,
// and value distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <tuple>

#include "bench/common.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/orchestrator.h"
#include "core/runtime.h"
#include "kernelsim/access_api.h"
#include "labmods/genericfs.h"
#include "labmods/lz77.h"
#include "simdev/registry.h"

namespace labstor {
namespace {

// ---------------------------------------------------------------
// 1. Every access route: overhead positive, end-to-end = overhead +
//    device service, kernel routes never beat the LabStor bypass.
// ---------------------------------------------------------------

class ApiRouteTest : public ::testing::TestWithParam<kernelsim::ApiKind> {};

sim::Task<void> DoOneIo(kernelsim::AccessApi& api) {
  co_await api.DoIo(simdev::IoOp::kWrite, 3, 1 << 20, 4096);
}

TEST_P(ApiRouteTest, OverheadPositiveAndComposes) {
  const kernelsim::ApiKind kind = GetParam();
  const sim::SoftwareCosts& c = sim::DefaultCosts();
  const sim::Time overhead = kernelsim::ApiOverhead(kind, c);
  EXPECT_GT(overhead, 0u);

  sim::Environment env;
  simdev::SimDevice device(&env, simdev::DeviceParams::NvmeP3700());
  kernelsim::AccessApi api(env, device, kind);
  env.Spawn(DoOneIo(api));
  const sim::Time end = env.Run();
  const auto p = simdev::DeviceParams::NvmeP3700();
  EXPECT_EQ(end, overhead + p.write_latency +
                     static_cast<sim::Time>(p.write_ns_per_byte * 4096));
}

TEST_P(ApiRouteTest, KernelRoutesPayAtLeastTheBlockSpine) {
  const kernelsim::ApiKind kind = GetParam();
  const sim::SoftwareCosts& c = sim::DefaultCosts();
  const bool is_kernel_route = kind == kernelsim::ApiKind::kPosix ||
                               kind == kernelsim::ApiKind::kPosixAio ||
                               kind == kernelsim::ApiKind::kLibAio ||
                               kind == kernelsim::ApiKind::kIoUring;
  if (is_kernel_route) {
    EXPECT_GE(kernelsim::ApiOverhead(kind, c), kernelsim::KernelBlockSpine(c));
  } else {
    EXPECT_LT(kernelsim::ApiOverhead(kind, c), kernelsim::KernelBlockSpine(c));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRoutes, ApiRouteTest,
    ::testing::Values(kernelsim::ApiKind::kPosix,
                      kernelsim::ApiKind::kPosixAio,
                      kernelsim::ApiKind::kLibAio,
                      kernelsim::ApiKind::kIoUring,
                      kernelsim::ApiKind::kLabKernelDriver,
                      kernelsim::ApiKind::kLabSpdk,
                      kernelsim::ApiKind::kLabDax),
    [](const auto& route) {
      return std::string(kernelsim::ApiKindName(route.param));
    });

// ---------------------------------------------------------------
// 2. Every device preset: service times scale with size, the
//    functional store round-trips, capacity is enforced.
// ---------------------------------------------------------------

struct DeviceCase {
  const char* name;
  simdev::DeviceParams (*make)(uint64_t);
};

// Without a printer gtest lists the raw struct bytes, pointers
// included, so the discovered ctest names would change with every
// address-space layout.
void PrintTo(const DeviceCase& c, std::ostream* os) { *os << c.name; }

class DevicePresetTest : public ::testing::TestWithParam<DeviceCase> {};

TEST_P(DevicePresetTest, ServiceTimeMonotonicInSize) {
  simdev::TimingModel model(GetParam().make(1 << 30));
  sim::Time prev = 0;
  for (const uint64_t size : {512ull, 4096ull, 65536ull, 1048576ull}) {
    // Same offset stream (sequential) so HDD seeks don't perturb.
    const sim::Time t =
        model.ServiceTime(simdev::IoOp::kWrite, 0, size, 0);
    EXPECT_GE(t, prev) << "size " << size;
    prev = t;
  }
}

TEST_P(DevicePresetTest, FunctionalRoundTrip) {
  simdev::SimDevice device(nullptr, GetParam().make(16 << 20));
  std::vector<uint8_t> data(9000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7);
  ASSERT_TRUE(device.WriteNow(4096, data).ok());
  std::vector<uint8_t> out(9000);
  ASSERT_TRUE(device.ReadNow(4096, out).ok());
  EXPECT_EQ(out, data);
}

TEST_P(DevicePresetTest, CapacityEnforced) {
  simdev::SimDevice device(nullptr, GetParam().make(1 << 20));
  std::vector<uint8_t> data(4096);
  EXPECT_TRUE(device.WriteNow((1 << 20) - 4096, data).ok());
  EXPECT_FALSE(device.WriteNow((1 << 20) - 4095, data).ok());
}

TEST_P(DevicePresetTest, ParallelismParametersSane) {
  const simdev::DeviceParams p = GetParam().make(1 << 20);
  EXPECT_GE(p.num_hw_queues, 1u);
  EXPECT_GE(p.per_queue_parallelism, 1u);
  EXPECT_GE(p.device_parallelism, 1u);
  EXPECT_GT(p.write_ns_per_byte, 0.0);
  EXPECT_GT(p.read_ns_per_byte, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, DevicePresetTest,
    ::testing::Values(DeviceCase{"nvme", &simdev::DeviceParams::NvmeP3700},
                      DeviceCase{"sata_ssd", &simdev::DeviceParams::SataSsd},
                      DeviceCase{"hdd", &simdev::DeviceParams::SasHdd},
                      DeviceCase{"pmem", &simdev::DeviceParams::PmemEmulated}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// ---------------------------------------------------------------
// 3. LZ77 round-trips across corpus kind x size.
// ---------------------------------------------------------------

class Lz77SweepTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(Lz77SweepTest, RoundTrips) {
  const auto [kind, size] = GetParam();
  Rng rng(static_cast<uint64_t>(kind) * 1000 + size);
  std::vector<uint8_t> input(size);
  switch (kind) {
    case 0:  // zeros
      break;
    case 1:  // periodic
      for (size_t i = 0; i < size; ++i) input[i] = static_cast<uint8_t>(i % 13);
      break;
    case 2:  // text-like
      for (size_t i = 0; i < size; ++i) {
        input[i] = static_cast<uint8_t>('a' + rng.Zipf(26, 0.9));
      }
      break;
    case 3:  // random
      for (auto& b : input) b = static_cast<uint8_t>(rng.Next());
      break;
    default:
      break;
  }
  const std::vector<uint8_t> compressed = labmods::Lz77Compress(input);
  auto restored = labmods::Lz77Decompress(compressed, input.size());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, input);
  // Even random data must not blow up beyond the format's 9/8 + slack.
  EXPECT_LE(compressed.size(), input.size() + input.size() / 8 + 16);
}

std::string Lz77CaseName(
    const ::testing::TestParamInfo<std::tuple<int, size_t>>& info) {
  static const char* kKinds[] = {"zeros", "periodic", "text", "random"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    CorpusSweep, Lz77SweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{100},
                                         size_t{4096}, size_t{100000})),
    Lz77CaseName);

// ---------------------------------------------------------------
// 4. Every orchestrator policy: complete, duplicate-free assignments
//    within the worker budget, across queue/worker scales.
// ---------------------------------------------------------------

struct PolicyCase {
  const char* name;
  std::unique_ptr<core::WorkOrchestrator> (*make)();
};

// Same reason as DeviceCase's printer: keep pointer bytes out of the
// test names.
void PrintTo(const PolicyCase& c, std::ostream* os) { *os << c.name; }

class PolicySweepTest
    : public ::testing::TestWithParam<std::tuple<PolicyCase, size_t, size_t>> {
};

TEST_P(PolicySweepTest, AssignmentIsCompleteAndDuplicateFree) {
  const auto& [policy_case, num_queues, max_workers] = GetParam();
  auto policy = policy_case.make();
  Rng rng(num_queues * 31 + max_workers);
  std::vector<core::QueueLoad> queues;
  for (size_t i = 0; i < num_queues; ++i) {
    queues.push_back(core::QueueLoad{
        static_cast<uint32_t>(i + 1),
        rng.Bernoulli(0.3) ? 20 * sim::kMs : 3 * sim::kUs,
        rng.Uniform(100)});
  }
  const core::Assignment a = policy->Rebalance(queues, max_workers);
  EXPECT_LE(a.num_workers(), max_workers);
  EXPECT_EQ(a.latency_dedicated.size(), a.worker_queues.size());
  std::set<uint32_t> seen;
  for (const auto& worker : a.worker_queues) {
    for (const uint32_t qid : worker) {
      EXPECT_TRUE(seen.insert(qid).second) << "queue " << qid << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), num_queues);  // every queue drained by someone
}

INSTANTIATE_TEST_SUITE_P(
    PolicyScales, PolicySweepTest,
    ::testing::Combine(
        ::testing::Values(
            PolicyCase{"rr",
                       [] {
                         return std::unique_ptr<core::WorkOrchestrator>(
                             new core::RoundRobinOrchestrator());
                       }},
            PolicyCase{"fixed2",
                       [] {
                         return std::unique_ptr<core::WorkOrchestrator>(
                             new core::FixedOrchestrator(2));
                       }},
            PolicyCase{"dynamic",
                       [] {
                         return std::unique_ptr<core::WorkOrchestrator>(
                             new core::DynamicOrchestrator());
                       }}),
        ::testing::Values(size_t{1}, size_t{7}, size_t{32}),
        ::testing::Values(size_t{1}, size_t{4}, size_t{16})),
    [](const auto& sweep) {
      return std::string(std::get<0>(sweep.param).name) + "_q" +
             std::to_string(std::get<1>(sweep.param)) + "_w" +
             std::to_string(std::get<2>(sweep.param));
    });

// ---------------------------------------------------------------
// 5. Stack compositions: whatever mods sit between GenericFS and the
//    driver, a write/read round trip preserves every byte.
// ---------------------------------------------------------------

struct StackCase {
  const char* name;
  const char* middle;  // DAG fragment between labfs and the driver
  const char* exec_mode;
  const char* driver;
};

void PrintTo(const StackCase& c, std::ostream* os) { *os << c.name; }

class StackCompositionTest : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackCompositionTest, WriteReadFidelity) {
  const StackCase& sc = GetParam();
  simdev::DeviceRegistry devices(nullptr);
  ASSERT_TRUE(devices.Create(simdev::DeviceParams::NvmeP3700(128 << 20)).ok());
  core::Runtime::Options options;
  options.max_workers = 2;
  core::Runtime runtime(std::move(options), devices);

  std::string yaml = std::string("mount: fs::/p\n") +
                     "rules:\n  exec_mode: " + sc.exec_mode + "\n" +
                     "dag:\n"
                     "  - mod: labfs\n"
                     "    uuid: fs_param\n"
                     "    params:\n"
                     "      log_records_per_worker: 2048\n"
                     "    outputs: [" +
                     (*sc.middle ? "mid_param" : "drv_param") + "]\n";
  if (*sc.middle) {
    yaml += std::string("  - mod: ") + sc.middle +
            "\n"
            "    uuid: mid_param\n"
            "    outputs: [drv_param]\n";
  }
  yaml += std::string("  - mod: ") + sc.driver +
          "\n"
          "    uuid: drv_param\n";
  auto spec = core::StackSpec::Parse(yaml);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  const bool needs_workers = (*stack)->exec_mode() == core::ExecMode::kAsync;
  if (needs_workers) {
    ASSERT_TRUE(runtime.Start().ok());
  }

  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  auto fd = fs.Create("fs::/p/file");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // Compressible + unaligned payload, two writes, one overlapping.
  Rng rng(99);
  std::vector<uint8_t> data(20000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(rng.Zipf(50, 0.8));
  }
  ASSERT_TRUE(fs.Write(*fd, data, 123).ok());
  std::vector<uint8_t> out(20000);
  auto read = fs.Read(*fd, out, 123);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(fs.Fsync(*fd).ok());
  if (needs_workers) {
    ASSERT_TRUE(runtime.Stop().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Compositions, StackCompositionTest,
    ::testing::Values(
        StackCase{"bare_sync", "", "sync", "kernel_driver"},
        StackCase{"bare_async", "", "async", "kernel_driver"},
        StackCase{"lru_sync", "lru_cache", "sync", "kernel_driver"},
        StackCase{"adaptive_sync", "adaptive_cache", "sync", "kernel_driver"},
        StackCase{"compress_sync", "compress", "sync", "kernel_driver"},
        StackCase{"consistency_sync", "consistency", "sync", "kernel_driver"},
        StackCase{"lru_async", "lru_cache", "async", "kernel_driver"},
        StackCase{"spdk_sync", "", "sync", "spdk"},
        StackCase{"uring_sync", "", "sync", "uring_driver"},
        StackCase{"dax_sync", "", "sync", "dax"}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// ---------------------------------------------------------------
// 6. Histogram percentiles stay within bucket error across
//    distributions.
// ---------------------------------------------------------------

class HistogramSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramSweepTest, PercentilesWithinFivePercent) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 5);
  Histogram h;
  std::vector<uint64_t> values;
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = 0;
    switch (GetParam()) {
      case 0: v = 1000 + rng.Uniform(1'000'000); break;              // uniform
      case 1: v = static_cast<uint64_t>(rng.Exponential(50'000)) + 1; break;
      case 2: v = 100 * (1 + rng.Zipf(10'000, 0.9)); break;          // heavy tail
      default: break;
    }
    h.Record(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 90.0, 99.0}) {
    const uint64_t exact =
        values[static_cast<size_t>(p / 100.0 * values.size()) - 1];
    const uint64_t approx = h.Percentile(p);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.05 * static_cast<double>(exact) + 2.0)
        << "p" << p;
  }
}

std::string HistogramCaseName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"uniform", "expo", "zipf"};
  return std::string(kNames[info.param]);
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramSweepTest,
                         ::testing::Values(0, 1, 2), HistogramCaseName);

}  // namespace
}  // namespace labstor
