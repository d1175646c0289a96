// Hot-path regression suite (DESIGN.md §7): the lock-free assignment
// table, batch draining, the zero-allocation steady state, and
// rebalance-vs-drain races.
//
// This binary installs a counting global allocator so the
// steady-state test can assert that the worker datapath, and the 4 KiB
// file data path of the Lab-All stack, perform zero heap allocations
// per request once warm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "core/runtime.h"
#include "faultinject/faultinject.h"
#include "ipc/queue_pair.h"
#include "labmods/dummy.h"
#include "labmods/genericfs.h"
#include "simdev/registry.h"

// ---------------------------------------------------------------
// Counting allocator: every C++ heap allocation in the process bumps
// one relaxed atomic, including allocations made by runtime worker
// threads inside a measured window.
// ---------------------------------------------------------------

// Sanitizers interpose their own allocator and track alloc/dealloc
// pairing across shared-library boundaries (libgtest); overriding
// operator new/delete underneath them produces false
// alloc-dealloc-mismatch reports. Counting is disabled there — the
// sanitize CI job still runs every behavioral assertion, and the plain
// tier-1 job checks the zero-allocation invariant.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LABSTOR_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LABSTOR_COUNT_ALLOCS 0
#else
#define LABSTOR_COUNT_ALLOCS 1
#endif
#else
#define LABSTOR_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
}  // namespace

#if LABSTOR_COUNT_ALLOCS
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC pairs the inlined malloc-backed operator new with these frees
// and reports a mismatch that isn't one.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
#endif  // LABSTOR_COUNT_ALLOCS

namespace labstor::core {
namespace {

using namespace std::chrono_literals;

StackSpec DummyStack(const std::string& mount, const std::string& uuid) {
  auto spec = StackSpec::Parse("mount: " + mount +
                               "\n"
                               "dag:\n"
                               "  - mod: dummy\n"
                               "    uuid: " +
                               uuid + "\n");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *spec;
}

constexpr uint64_t kCachePages = 64;

// The Lab-All stack (paper Fig. 6) with a small cache.
StackSpec LabAllStack() {
  auto spec = StackSpec::Parse(
      "mount: fs::/za\n"
      "rules:\n"
      "  exec_mode: async\n"
      "dag:\n"
      "  - mod: permissions\n"
      "    uuid: perm_za\n"
      "    outputs: [fs_za]\n"
      "  - mod: labfs\n"
      "    uuid: fs_za\n"
      "    params:\n"
      "      log_records_per_worker: 1024\n"
      "    outputs: [lru_za]\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_za\n"
      "    params:\n"
      "      capacity_pages: " + std::to_string(kCachePages) +
      "\n"
      "    outputs: [sched_za]\n"
      "  - mod: noop_sched\n"
      "    uuid: sched_za\n"
      "    outputs: [drv_za]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_za\n");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *spec;
}

class HotpathTest : public ::testing::Test {
 protected:
  HotpathTest() : devices_(nullptr) {
    auto dev = devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20));
    EXPECT_TRUE(dev.ok());
  }

  void TearDown() override { injector_.Uninstall(); }

  static faultinject::FaultPolicy Once(StatusCode code) {
    faultinject::FaultPolicy policy;
    policy.trigger = faultinject::FaultPolicy::Trigger::kOnce;
    policy.code = code;
    return policy;
  }

  simdev::DeviceRegistry devices_;
  faultinject::FaultInjector injector_{42};
};

// Pump one request ping-pong through a raw channel: Reuse + submit,
// then poll IsDone. Allocation-free by construction so it can run
// inside a counted window.
void PumpOne(ipc::ClientChannel& channel, ipc::Request* req,
             uint32_t stack_id) {
  req->Reuse();
  req->op = ipc::OpCode::kDummy;
  req->stack_id = stack_id;
  while (!channel.qp->Submit(req)) std::this_thread::yield();
  while (!req->IsDone()) std::this_thread::yield();
}

TEST_F(HotpathTest, SteadyStateExecutionAllocatesNothing) {
#if !LABSTOR_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  Runtime::Options options;
  options.max_workers = 2;
  // Keep the admin thread out of the measured window (first periodic
  // rebalance would land at 10 * admin_poll).
  options.admin_poll = 500ms;
  Runtime runtime(std::move(options), devices_);
  auto stack = runtime.MountStack(DummyStack("ctl::/zalloc", "dummy_za"),
                                  ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok());
  ASSERT_TRUE(runtime.Start().ok());
  auto channel = runtime.ipc().Connect(ipc::Credentials{77, 1000, 1000});
  ASSERT_TRUE(channel.ok());
  ipc::Request* req = channel->NewRequest();
  ASSERT_NE(req, nullptr);

  // Warm-up: thread-local scratch construction, stack-cache fill, ring
  // wrap, lazy libc state.
  for (int i = 0; i < 512; ++i) PumpOne(*channel, req, (*stack)->id);

  const uint64_t allocs_before = HeapAllocs();
  constexpr int kSteadyRequests = 2000;
  for (int i = 0; i < kSteadyRequests; ++i) {
    PumpOne(*channel, req, (*stack)->id);
  }
  const uint64_t allocs = HeapAllocs() - allocs_before;

  EXPECT_EQ(allocs, 0u) << "steady-state datapath allocated " << allocs
                        << " times over " << kSteadyRequests << " requests";
  ASSERT_TRUE(runtime.Stop().ok());

  // The Lab-All file data path: 4 KiB pread/pwrite through GenericFs,
  // the Client, a worker, permissions, labfs, lru_cache, noop_sched and
  // kernel_driver. The file is four times the cache, so reads miss and
  // every insert evicts; its device pages are all written before the
  // count starts.
  Runtime::Options fs_options;
  fs_options.max_workers = 2;
  fs_options.admin_poll = 500ms;
  Runtime fs_runtime(std::move(fs_options), devices_);
  auto fs_stack = fs_runtime.MountStack(LabAllStack(), ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(fs_stack.ok()) << fs_stack.status().ToString();
  // Connected before Start, so Start's rebalance assigns the client's
  // queue and the admin's first periodic one comes after the count.
  Client client(fs_runtime, ipc::Credentials{78, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(fs_runtime.Start().ok());
  labmods::GenericFs fs(client);
  auto fd = fs.Create("fs::/za/f");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  constexpr uint64_t kPage = 4096;
  constexpr uint64_t kFilePages = 4 * kCachePages;
  std::vector<uint8_t> page(kPage, 0x5A);
  for (uint64_t p = 0; p < kFilePages; ++p) {
    ASSERT_TRUE(fs.Write(*fd, page, p * kPage).ok());
  }
  // 70% reads at uniformly drawn pages, drawn before the count.
  constexpr int kFsOps = 4000;
  std::vector<uint64_t> pages(2 * kFsOps);
  std::vector<bool> reads(2 * kFsOps);
  Rng rng(7);
  for (size_t i = 0; i < pages.size(); ++i) {
    pages[i] = rng.Uniform(kFilePages);
    reads[i] = rng.Bernoulli(0.7);
  }
  bool ok = true;
  const auto run_ops = [&](size_t first, size_t count) {
    for (size_t i = first; i < first + count; ++i) {
      const auto done = reads[i] ? fs.Read(*fd, page, pages[i] * kPage)
                                 : fs.Write(*fd, page, pages[i] * kPage);
      ok = ok && done.ok() && *done == kPage;
    }
  };
  run_ops(0, kFsOps);  // warm-up
  const uint64_t fs_allocs_before = HeapAllocs();
  run_ops(kFsOps, kFsOps);
  const uint64_t fs_allocs = HeapAllocs() - fs_allocs_before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(fs_allocs, 0u) << "the Lab-All data path allocated " << fs_allocs
                           << " times over " << kFsOps << " ops";
  ASSERT_TRUE(fs_runtime.Stop().ok());
}

TEST_F(HotpathTest, QueuePairBatchDrainPreservesFifo) {
  ipc::QueuePair qp(/*id=*/9, /*depth_pow2=*/16, ipc::Credentials{1, 0, 0});
  std::vector<ipc::Request> backing(10);
  for (size_t i = 0; i < backing.size(); ++i) {
    backing[i].id = i;
    ASSERT_TRUE(qp.Submit(&backing[i]));
  }
  ipc::Request* out[16] = {};
  // Partial batch: only as many as requested.
  ASSERT_EQ(qp.PollSubmissionBatch(out, 4), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i]->id, i);
  // Remainder in one oversized ask.
  ASSERT_EQ(qp.PollSubmissionBatch(out, 16), 6u);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(out[i]->id, i + 4);
  EXPECT_EQ(qp.PollSubmissionBatch(out, 16), 0u);
}

TEST_F(HotpathTest, EstProcessingEwmaFoldsSamples) {
  ipc::QueuePair qp(/*id=*/3, /*depth_pow2=*/8, ipc::Credentials{1, 0, 0});
  qp.UpdateEstProcessing(8000);
  EXPECT_EQ(qp.est_processing_ns.load(), 8000u);  // first sample seeds
  qp.UpdateEstProcessing(16000);
  EXPECT_EQ(qp.est_processing_ns.load(), 9000u);  // (8000*7 + 16000)/8
  // Concurrent folding loses no update (CAS loop): hammer from two
  // threads and require the estimate lands inside the sample range.
  std::thread a([&] {
    for (int i = 0; i < 20000; ++i) qp.UpdateEstProcessing(1000);
  });
  std::thread b([&] {
    for (int i = 0; i < 20000; ++i) qp.UpdateEstProcessing(2000);
  });
  a.join();
  b.join();
  const uint64_t est = qp.est_processing_ns.load();
  EXPECT_GE(est, 1000u);
  EXPECT_LE(est, 2000u);
}

// Regression for the live-worker bin mapping in Rebalance: after a
// worker dies, no queue may stay assigned to it (it would never drain
// again) and every primary queue must land on some live worker.
TEST_F(HotpathTest, RebalanceAfterWorkerDeathStrandsNoQueue) {
  Runtime::Options options;
  options.max_workers = 3;
  options.admin_poll = 2ms;
  options.ipc.request_timeout = 100ms;  // fast wait-timeout → fast retry
  Runtime runtime(std::move(options), devices_);
  auto stack = runtime.MountStack(DummyStack("ctl::/death", "dummy_dw"),
                                  ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok());
  ASSERT_TRUE(runtime.Start().ok());

  // Several clients → several primary queues to redistribute.
  RetryPolicy retry;
  retry.max_attempts = 6;
  Client client(runtime, ipc::Credentials{90, 1000, 1000}, retry);
  ASSERT_TRUE(client.Connect().ok());
  auto extra1 = runtime.ipc().Connect(ipc::Credentials{91, 1000, 1000});
  auto extra2 = runtime.ipc().Connect(ipc::Credentials{92, 1000, 1000});
  ASSERT_TRUE(extra1.ok());
  ASSERT_TRUE(extra2.ok());

  injector_.Arm("core.worker.death", Once(StatusCode::kInternal));
  injector_.Install();
  // The worker that dequeues this dies with it; the client's retry
  // path recovers through a surviving worker.
  auto req = client.NewRequest();
  ASSERT_TRUE(req.ok());
  (*req)->op = ipc::OpCode::kDummy;
  EXPECT_TRUE(client.Execute(**req, **stack).ok());
  ASSERT_EQ(runtime.dead_workers(), 1u);

  // Let the admin's periodic rebalance incorporate the late-connected
  // queues as well, then audit the published table.
  std::this_thread::sleep_for(100ms);
  size_t dead_id = 3;
  for (size_t w = 0; w < 3; ++w) {
    if (runtime.worker_dead(w)) dead_id = w;
  }
  ASSERT_LT(dead_id, 3u);
  EXPECT_TRUE(runtime.AssignedQueues(dead_id).empty())
      << "queue assigned to dead worker " << dead_id;
  std::unordered_set<ipc::QueuePair*> assigned;
  for (size_t w = 0; w < 3; ++w) {
    if (w == dead_id) continue;
    for (ipc::QueuePair* qp : runtime.AssignedQueues(w)) assigned.insert(qp);
  }
  for (ipc::QueuePair* qp : runtime.ipc().PrimaryQueues()) {
    EXPECT_TRUE(assigned.contains(qp))
        << "primary queue " << qp->id() << " stranded on no live worker";
  }
  ASSERT_TRUE(runtime.Stop().ok());
}

// Stress the lock-free snapshot: one thread hammers pipelined requests
// while the main thread forces continuous republishes (every mount
// triggers a Rebalance) and lock-free readers run concurrently. Run
// under TSan/ASan this is the data-race regression for the
// publish/reload protocol.
TEST_F(HotpathTest, RebalanceDuringDrainStress) {
  Runtime::Options options;
  options.max_workers = 3;
  options.admin_poll = 1ms;  // aggressive periodic rebalances too
  Runtime runtime(std::move(options), devices_);
  auto stack = runtime.MountStack(DummyStack("ctl::/stress", "dummy_st"),
                                  ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok());
  ASSERT_TRUE(runtime.Start().ok());
  auto channel = runtime.ipc().Connect(ipc::Credentials{95, 1000, 1000});
  ASSERT_TRUE(channel.ok());

  constexpr size_t kInFlight = 8;
  std::vector<ipc::Request*> requests;
  for (size_t i = 0; i < kInFlight; ++i) {
    ipc::Request* r = channel->NewRequest();
    ASSERT_NE(r, nullptr);
    requests.push_back(r);
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::thread pump([&] {
    const auto submit = [&](ipc::Request* r) {
      r->Reuse();
      r->op = ipc::OpCode::kDummy;
      r->stack_id = (*stack)->id;
      while (!channel->qp->Submit(r)) {
        if (stop.load(std::memory_order_relaxed)) return false;
        std::this_thread::yield();
      }
      return true;
    };
    for (ipc::Request* r : requests) {
      if (!submit(r)) return;
    }
    while (!stop.load(std::memory_order_relaxed)) {
      for (ipc::Request* r : requests) {
        if (!r->IsDone()) continue;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!submit(r)) return;
      }
    }
  });

  const uint64_t gen_before = runtime.assignment_generation();
  for (int i = 0; i < 40; ++i) {
    const std::string mount = "ctl::/churn" + std::to_string(i);
    const std::string uuid = "dummy_ch" + std::to_string(i);
    auto churn =
        runtime.MountStack(DummyStack(mount, uuid), ipc::Credentials{1, 0, 0});
    ASSERT_TRUE(churn.ok());
    // Concurrent lock-free reads of the table under publish churn.
    for (size_t w = 0; w < 3; ++w) (void)runtime.AssignedQueues(w);
    ASSERT_TRUE(
        runtime.UnmountStack(mount, ipc::Credentials{1, 0, 0}).ok());
    std::this_thread::sleep_for(1ms);
  }
  // Let the pump make progress through the churned tables.
  const uint64_t done_floor = completed.load() + 50;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (completed.load() < done_floor &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  pump.join();
  // Tail: every request still in flight must complete before teardown.
  for (ipc::Request* r : requests) {
    const auto tail_deadline = std::chrono::steady_clock::now() + 30s;
    while (!r->IsDone() &&
           std::chrono::steady_clock::now() < tail_deadline) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(r->IsDone());
  }
  EXPECT_GE(runtime.assignment_generation(), gen_before + 40);
  EXPECT_GE(completed.load(), done_floor);
  EXPECT_EQ(runtime.dead_workers(), 0u);
  ASSERT_TRUE(runtime.Stop().ok());
}

// Completion travels in the request slot, so a round trip must leave
// nothing behind in the client's queue. A tiny depth makes any
// per-round-trip residue bite fast: 200 round trips over a depth-8
// ring would wedge the client if each one left a slot occupied.
TEST_F(HotpathTest, ClientRoundTripsOutlastTinyQueueDepth) {
  Runtime::Options options;
  options.max_workers = 1;
  options.admin_poll = 500ms;  // keep the admin quiet during the loop
  options.ipc.queue_depth = 8;
  Runtime runtime(std::move(options), devices_);
  auto stack = runtime.MountStack(DummyStack("ctl::/reap", "dummy_rc"),
                                  ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok());
  ASSERT_TRUE(runtime.Start().ok());
  Client client(runtime, ipc::Credentials{88, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  auto req = client.NewRequest();
  ASSERT_TRUE(req.ok());
  for (int i = 0; i < 200; ++i) {
    (*req)->Reuse();
    (*req)->op = ipc::OpCode::kDummy;
    ASSERT_TRUE(client.Execute(**req, **stack).ok()) << "round trip " << i;
  }
  for (ipc::QueuePair* qp : runtime.ipc().PrimaryQueues()) {
    EXPECT_EQ(qp->PendingSubmissions(), 0u) << "queue " << qp->id();
  }
  ASSERT_TRUE(runtime.Stop().ok());
}

// Request::Reuse must clear the submit stamp: a recycled slot whose
// next submission is unstamped (telemetry off / sync path) must not
// report the previous occupant's queue wait.
TEST_F(HotpathTest, RequestReuseClearsSubmitStamp) {
  ipc::Request req;
  req.submit_ns = 123456789;
  req.worker = 7;
  req.result = StatusCode::kInternal;
  req.result_u64 = 42;
  req.Reuse();
  EXPECT_EQ(req.submit_ns, 0u);
  EXPECT_EQ(req.worker, 0u);
  EXPECT_EQ(req.result, StatusCode::kOk);
  EXPECT_EQ(req.result_u64, 0u);
  EXPECT_FALSE(req.IsDone());
}

}  // namespace
}  // namespace labstor::core
