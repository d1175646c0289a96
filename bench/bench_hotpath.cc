// Hot-path benchmark (real wall-clock): the end-to-end cost of one
// request through the Runtime's async datapath — the software path
// the paper's §V anatomy measurement says is the whole game on fast
// devices. Three phases:
//
//   * latency_async_labfs_4k_write — single client, single in-flight
//     4KB write through the full LabFS async stack (submit → worker
//     dequeue → DAG execution → completion poll);
//   * throughput_async_dummy — 64 pipelined in-flight requests against
//     a dummy stack, isolating queue-drain throughput from mod work;
//   * inline_sync_labfs_4k_write — the decentralized (sync) path,
//     isolating per-request execution cost from IPC and worker wakeup.
//
// The binary installs a counting global allocator and reports heap
// allocations per request for each phase — the "zero-allocation
// steady state" acceptance number. Results are appended as one JSON
// object per phase to BENCH_hotpath.json (or argv[1]).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/logging.h"
#include "core/client.h"
#include "core/runtime.h"
#include "simdev/registry.h"

// ---------------------------------------------------------------
// Counting allocator hook: every C++ heap allocation in the process
// bumps one relaxed atomic. Phases snapshot the counter around their
// measured window, so allocations from runtime worker threads inside
// the window are charged to the phase — exactly what we want.
// ---------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace

// Sanitizer builds (LABSTOR_SANITIZE) interpose their own allocator
// and track alloc/dealloc pairing; overriding operator new/delete
// underneath them produces false alloc-dealloc-mismatch reports, so
// counting is compiled out there (allocs_per_request reports 0).
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
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size ? size : 1) != 0) {
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

namespace labstor::bench {
namespace {

struct PhaseResult {
  std::string name;
  uint64_t requests = 0;
  double ns_per_request = 0;
  double requests_per_sec = 0;
  double allocs_per_request = 0;
  // Per-op tail distribution (count == 0 for the pipelined throughput
  // phase, where a single request has no isolated latency).
  TailStats tail;
  // Doorbell rings and idle sleeps (the async latency phase).
  uint64_t doorbell_rings = 0;
  uint64_t idle_sleeps = 0;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Quick() { return std::getenv("BENCH_HOTPATH_QUICK") != nullptr; }

constexpr char kFsStackYaml[] =
    "mount: fs::/h\n"
    "rules:\n"
    "  exec_mode: %s\n"
    "dag:\n"
    "  - mod: labfs\n"
    "    uuid: labfs_hot_%s\n"
    "    params:\n"
    "      log_records_per_worker: 65536\n"
    "    outputs: [drv_hot_%s]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv_hot_%s\n";

core::StackSpec FsStack(const char* mode) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), kFsStackYaml, mode, mode, mode, mode);
  auto spec = core::StackSpec::Parse(buf);
  if (!spec.ok()) {
    std::fprintf(stderr, "stack parse failed: %s\n",
                 spec.status().ToString().c_str());
    std::abort();
  }
  return *spec;
}

// Single in-flight 4KB writes through the async worker path.
PhaseResult LatencyPhase() {
  simdev::DeviceRegistry devices(nullptr);
  if (!devices.Create(simdev::DeviceParams::NvmeP3700(256 << 20)).ok()) {
    std::abort();
  }
  core::Runtime::Options options;
  options.max_workers = 1;
  core::Runtime runtime(std::move(options), devices);
  auto stack = runtime.MountStack(FsStack("async"), ipc::Credentials{1, 0, 0});
  if (!stack.ok()) std::abort();
  if (!runtime.Start().ok()) std::abort();
  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  if (!client.Connect().ok()) std::abort();

  auto req = client.NewRequest(4096);
  if (!req.ok()) std::abort();
  ipc::Request* r = *req;
  std::memset(r->data, 0x5A, 4096);
  r->op = ipc::OpCode::kCreate;
  r->SetPath("fs::/h/x");
  if (!client.Execute(*r, **stack).ok()) std::abort();

  const auto one_write = [&] {
    r->Reuse();
    r->op = ipc::OpCode::kWrite;
    r->SetPath("fs::/h/x");
    r->offset = 0;
    r->length = 4096;
    if (!client.Execute(*r, **stack).ok()) std::abort();
  };

  const uint64_t warmup = Quick() ? 200 : 2000;
  const uint64_t iters = Quick() ? 2000 : 20000;
  for (uint64_t i = 0; i < warmup; ++i) one_write();

  std::vector<double> samples;
  samples.reserve(iters);
  const uint64_t allocs0 = HeapAllocs();
  const uint64_t t0 = NowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t op0 = NowNs();
    one_write();
    samples.push_back(static_cast<double>(NowNs() - op0));
  }
  const uint64_t elapsed = NowNs() - t0;
  const uint64_t allocs = HeapAllocs() - allocs0;
  const uint64_t rings = runtime.doorbell_rings();
  const uint64_t sleeps = runtime.idle_sleeps();
  (void)runtime.Stop();

  PhaseResult result;
  result.name = "latency_async_labfs_4k_write";
  result.doorbell_rings = rings;
  result.idle_sleeps = sleeps;
  result.requests = iters;
  result.ns_per_request = static_cast<double>(elapsed) / iters;
  result.requests_per_sec = 1e9 * iters / static_cast<double>(elapsed);
  result.allocs_per_request = static_cast<double>(allocs) / iters;
  result.tail = Summarize(std::move(samples));
  return result;
}

// Pipelined dummy requests: queue-drain throughput with 64 in flight.
PhaseResult ThroughputPhase() {
  simdev::DeviceRegistry devices(nullptr);
  if (!devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok()) {
    std::abort();
  }
  core::Runtime::Options options;
  options.max_workers = 2;
  core::Runtime runtime(std::move(options), devices);
  auto spec = core::StackSpec::Parse(
      "mount: ctl::/hot\n"
      "dag:\n"
      "  - mod: dummy\n"
      "    uuid: dummy_hot\n");
  if (!spec.ok()) std::abort();
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  if (!stack.ok()) std::abort();
  if (!runtime.Start().ok()) std::abort();

  auto channel = runtime.ipc().Connect(ipc::Credentials{101, 1000, 1000});
  if (!channel.ok()) std::abort();
  ipc::QueuePair* qp = channel->qp;

  constexpr size_t kInFlight = 64;
  std::vector<ipc::Request*> requests;
  for (size_t i = 0; i < kInFlight; ++i) {
    ipc::Request* r = channel->NewRequest();
    if (r == nullptr) std::abort();
    requests.push_back(r);
  }
  const auto submit = [&](ipc::Request* r) {
    r->Reuse();
    r->op = ipc::OpCode::kDummy;
    r->stack_id = (*stack)->id;
    while (!qp->Submit(r)) std::this_thread::yield();
  };

  const uint64_t warmup = Quick() ? 5000 : 20000;
  const uint64_t target = Quick() ? 20000 : 200000;
  uint64_t completed = 0;
  for (ipc::Request* r : requests) submit(r);
  // One pipelined pump loop serves warmup and the measured window.
  uint64_t allocs0 = 0;
  uint64_t t0 = 0;
  bool measuring = false;
  uint64_t measured_done = 0;
  while (measured_done < target) {
    if (!measuring && completed >= warmup) {
      measuring = true;
      allocs0 = HeapAllocs();
      t0 = NowNs();
    }
    for (ipc::Request* r : requests) {
      if (!r->IsDone()) continue;
      ++completed;
      if (measuring) ++measured_done;
      submit(r);
    }
  }
  const uint64_t elapsed = NowNs() - t0;
  const uint64_t allocs = HeapAllocs() - allocs0;
  // Drain the tail so teardown never races in-flight requests.
  for (ipc::Request* r : requests) {
    while (!r->IsDone()) std::this_thread::yield();
  }
  (void)runtime.Stop();

  PhaseResult result;
  result.name = "throughput_async_dummy";
  result.requests = measured_done;
  result.ns_per_request = static_cast<double>(elapsed) / measured_done;
  result.requests_per_sec = 1e9 * measured_done / static_cast<double>(elapsed);
  result.allocs_per_request = static_cast<double>(allocs) / measured_done;
  return result;
}

// Decentralized (sync) execution: the DAG runs inline in the client
// thread — per-request software cost with no IPC hop or worker wakeup.
PhaseResult InlineSyncPhase() {
  simdev::DeviceRegistry devices(nullptr);
  if (!devices.Create(simdev::DeviceParams::NvmeP3700(256 << 20)).ok()) {
    std::abort();
  }
  core::Runtime::Options options;
  options.max_workers = 1;
  core::Runtime runtime(std::move(options), devices);
  auto stack = runtime.MountStack(FsStack("sync"), ipc::Credentials{1, 0, 0});
  if (!stack.ok()) std::abort();
  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  if (!client.Connect().ok()) std::abort();

  auto req = client.NewRequest(4096);
  if (!req.ok()) std::abort();
  ipc::Request* r = *req;
  std::memset(r->data, 0xA5, 4096);
  r->op = ipc::OpCode::kCreate;
  r->SetPath("fs::/h/y");
  if (!client.Execute(*r, **stack).ok()) std::abort();

  const auto one_write = [&] {
    r->Reuse();
    r->op = ipc::OpCode::kWrite;
    r->SetPath("fs::/h/y");
    r->offset = 0;
    r->length = 4096;
    if (!client.Execute(*r, **stack).ok()) std::abort();
  };

  const uint64_t warmup = Quick() ? 500 : 5000;
  const uint64_t iters = Quick() ? 5000 : 50000;
  for (uint64_t i = 0; i < warmup; ++i) one_write();

  std::vector<double> samples;
  samples.reserve(iters);
  const uint64_t allocs0 = HeapAllocs();
  const uint64_t t0 = NowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t op0 = NowNs();
    one_write();
    samples.push_back(static_cast<double>(NowNs() - op0));
  }
  const uint64_t elapsed = NowNs() - t0;
  const uint64_t allocs = HeapAllocs() - allocs0;

  PhaseResult result;
  result.name = "inline_sync_labfs_4k_write";
  result.requests = iters;
  result.ns_per_request = static_cast<double>(elapsed) / iters;
  result.requests_per_sec = 1e9 * iters / static_cast<double>(elapsed);
  result.allocs_per_request = static_cast<double>(allocs) / iters;
  result.tail = Summarize(std::move(samples));
  return result;
}

void WriteJson(const std::vector<PhaseResult>& phases, const char* path) {
  BenchJson json("hotpath");
  json.Meta("quick", Quick() ? "true" : "false");
  for (const PhaseResult& p : phases) {
    json.Add(p.name, "requests", p.requests);
    json.Add(p.name, "ns_per_request", p.ns_per_request);
    json.Add(p.name, "requests_per_sec", p.requests_per_sec, "%.0f");
    json.Add(p.name, "allocs_per_request", p.allocs_per_request, "%.4f");
    if (p.tail.count > 0) {
      json.Add(p.name, "p50_ns", p.tail.p50);
      json.Add(p.name, "p99_ns", p.tail.p99);
      json.Add(p.name, "p999_ns", p.tail.p999);
    }
    if (p.doorbell_rings > 0) {
      json.Add(p.name, "doorbell_rings", p.doorbell_rings);
      json.Add(p.name, "idle_sleeps", p.idle_sleeps);
    }
  }
  (void)json.Write(path);
}

}  // namespace
}  // namespace labstor::bench

int main(int argc, char** argv) {
  labstor::Logger::Get().set_level(labstor::LogLevel::kWarn);
  using namespace labstor::bench;
  std::vector<PhaseResult> phases;
  phases.push_back(LatencyPhase());
  phases.push_back(ThroughputPhase());
  phases.push_back(InlineSyncPhase());

  PrintHeader("Hot path — real-mode async/sync datapath");
  Table table({"phase", "ns/request", "p99_ns", "requests/sec",
               "allocs/request"});
  for (const PhaseResult& p : phases) {
    table.AddRow({p.name, Fmt("%.0f", p.ns_per_request),
                  p.tail.count > 0 ? Fmt("%.0f", p.tail.p99) : "-",
                  Fmt("%.0f", p.requests_per_sec),
                  Fmt("%.4f", p.allocs_per_request)});
  }
  table.Print();
  WriteJson(phases, argc > 1 ? argv[1] : "BENCH_hotpath.json");
  return 0;
}
