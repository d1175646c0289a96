// Virtual-core scaling benchmark (DESIGN.md §11): how the runtime's
// software path behaves as the simulated worker pool grows past the
// physical core count of any host we have. Two parts:
//
//   * sweep — the DES drives W ∈ {4, 16, 64, 128, 256} simulated
//     workers, each owning one client queue issuing 4KB creates
//     through the async 4-layer FS stack. Per-core hardware queues
//     (num_hw_queues = max(31, W)) keep the device out of the way, so
//     mean and p99 virtual ns/request measure the runtime: flat means
//     no contention cliff, a super-linear climb reproduces the
//     per-hw-queue serialization this PR fixed. Each point also times
//     a real (wall-clock) orchestrator Rebalance pass at that scale —
//     the epoch cost the galloping-search rewrite bounds.
//   * device — the same low-load seeded DES workload under polled vs
//     interrupt completion delivery (DESIGN.md §13): interrupt mode
//     must cut the idle-poll spin (AvgBusyCores) without changing a
//     single device byte. Seeded via --dst_seed for replay; the gate
//     exits nonzero on a busy-cores regression or a digest mismatch.
//
// Results go to BENCH_scaling.json (or argv[1]); the device phase goes
// to BENCH_device.json (or argv[2]).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/logging.h"
#include "core/orchestrator.h"
#include "core/sim_runtime.h"
#include "dst/schedule.h"
#include "simdev/registry.h"

namespace labstor::bench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Quick() { return std::getenv("BENCH_SCALING_QUICK") != nullptr; }

std::string FsStackYaml(const char* tag) {
  std::string yaml = "mount: fs::/sw";
  yaml += tag;
  yaml +=
      "\nrules:\n  exec_mode: async\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_sw";
  yaml += tag;
  yaml +=
      "\n    params:\n"
      "      log_records_per_worker: 8192\n"
      "    outputs: [lru_sw";
  yaml += tag;
  yaml += "]\n  - mod: lru_cache\n    uuid: lru_sw";
  yaml += tag;
  yaml += "\n    outputs: [sched_sw";
  yaml += tag;
  yaml += "]\n  - mod: noop_sched\n    uuid: sched_sw";
  yaml += tag;
  yaml += "\n    outputs: [drv_sw";
  yaml += tag;
  yaml += "]\n  - mod: kernel_driver\n    uuid: drv_sw";
  yaml += tag;
  yaml += "\n";
  return yaml;
}

// ---------------------------------------------------------------
// Part 1: the DES worker-count sweep.
// ---------------------------------------------------------------

struct SweepPoint {
  size_t workers = 0;
  uint64_t requests = 0;
  double mean_ns = 0;       // virtual time
  double p99_ns = 0;        // virtual time
  double rebalance_us = 0;  // wall time, one dynamic epoch pass
};

struct Recorder {
  std::vector<sim::Time> latencies;
};

sim::Task<void> TimedRequest(sim::Environment& env, core::SimRuntime& rt,
                             uint32_t qid, core::Stack& stack,
                             ipc::Request& req, Recorder* rec) {
  const sim::Time t0 = env.now();
  const Status st = co_await rt.Execute(qid, stack, req);
  if (!st.ok()) {
    std::fprintf(stderr, "request failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  rec->latencies.push_back(env.now() - t0);
}

SweepPoint RunSweepPoint(size_t workers, size_t per_queue) {
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  simdev::DeviceParams params = simdev::DeviceParams::NvmeP3700(1u << 30);
  params.num_hw_queues =
      static_cast<uint32_t>(std::max<size_t>(workers, 31));
  params.device_parallelism = params.num_hw_queues;
  if (!devices.Create(params).ok()) std::abort();
  core::SimRuntime rt(env, devices, workers);
  const std::string tag = std::to_string(workers);
  auto stack = rt.MountYaml(FsStackYaml(tag.c_str()));
  if (!stack.ok()) {
    std::fprintf(stderr, "mount failed: %s\n",
                 stack.status().ToString().c_str());
    std::abort();
  }
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
  auto rec = std::make_unique<Recorder>();
  rec->latencies.reserve(total);
  std::vector<std::unique_ptr<ipc::Request>> reqs;
  reqs.reserve(total);
  for (size_t q = 0; q < workers; ++q) {
    for (size_t i = 0; i < per_queue; ++i) {
      auto req = std::make_unique<ipc::Request>();
      req->op = ipc::OpCode::kCreate;
      req->SetPath("fs::/sw" + tag + "/q" + std::to_string(q) + "_" +
                   std::to_string(i));
      env.Spawn(TimedRequest(env, rt, static_cast<uint32_t>(q + 1), **stack,
                             *req, rec.get()));
      reqs.push_back(std::move(req));
    }
  }
  env.Run();
  if (rec->latencies.size() != total) std::abort();

  SweepPoint point;
  point.workers = workers;
  point.requests = total;
  const TailStats tail = Summarize(
      std::vector<double>(rec->latencies.begin(), rec->latencies.end()));
  point.mean_ns = tail.mean;
  point.p99_ns = tail.p99;

  // Wall cost of one dynamic epoch pass at this queue/worker scale.
  core::DynamicOrchestrator dynamic;
  std::vector<core::QueueLoad> epoch_loads;
  for (uint32_t i = 1; i <= static_cast<uint32_t>(workers) * 4; ++i) {
    const bool heavy = (i % 8) == 0;
    epoch_loads.push_back(core::QueueLoad{
        i, heavy ? 20 * sim::kMs : 3 * sim::kUs, heavy ? 50u : 1u});
  }
  const uint64_t t0 = NowNs();
  constexpr int kPasses = 10;
  for (int p = 0; p < kPasses; ++p) {
    const core::Assignment a = dynamic.Rebalance(epoch_loads, workers);
    if (a.num_workers() > workers) std::abort();
  }
  point.rebalance_us =
      static_cast<double>(NowNs() - t0) / (1000.0 * kPasses);
  return point;
}

// ---------------------------------------------------------------
// Part 2: polled vs interrupt completion delivery under low load.
// ---------------------------------------------------------------

struct DeviceModeResult {
  std::string mode;
  uint64_t requests = 0;
  double avg_busy_cores = 0;  // includes modeled idle-poll spin
  uint64_t polled = 0;
  uint64_t interrupts = 0;
  uint64_t digest = 0;  // FNV-1a over the full device contents
  double virtual_ms = 0;
};

// One paced client op: create the file, then write one 4KB block so
// the stack issues a real device op the worker must wait on (polled
// CQE spin vs parked-until-IRQ — the thing this phase measures).
sim::Task<void> PacedRequest(sim::Environment& env, core::SimRuntime& rt,
                             uint32_t qid, core::Stack& stack,
                             ipc::Request& req, const std::string& path,
                             sim::Time arrival) {
  co_await env.Delay(arrival);
  req.op = ipc::OpCode::kCreate;
  req.SetPath(path);
  Status st = co_await rt.Execute(qid, stack, req);
  if (st.ok()) {
    std::vector<uint8_t> payload(4096, 0x7D);
    req.Reuse();
    req.op = ipc::OpCode::kWrite;
    req.SetPath(path);
    req.offset = 0;
    req.length = payload.size();
    req.data = payload.data();
    st = co_await rt.Execute(qid, stack, req);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "device-phase request failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
}

uint64_t DeviceDigest(simdev::SimDevice& dev) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  std::vector<uint8_t> block(4096);
  for (uint64_t off = 0; off < dev.params().capacity_bytes;
       off += block.size()) {
    if (!dev.ReadNow(off, block).ok()) std::abort();
    for (const uint8_t byte : block) {
      hash = (hash ^ byte) * 1099511628211ULL;
    }
  }
  return hash;
}

// Low load: requests arrive spaced hundreds of microseconds apart, so
// between arrivals every worker is idle. Polling burns the idle gap
// spinning on device queues; interrupt delivery parks the waiter until
// the (priced) IRQ fires. Same seed, same arrivals in both modes.
DeviceModeResult RunDeviceMode(const char* completion, uint64_t seed) {
  dst::Schedule sched(seed);
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  auto dev = devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20));
  if (!dev.ok()) std::abort();
  constexpr size_t kWorkers = 4;
  core::SimRuntime rt(env, devices, kWorkers);
  rt.SetScheduleHook(sched.MakeSimHook(20 * sim::kUs));
  std::string yaml =
      "mount: fs::/dv\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_dv\n"
      "    params:\n"
      "      log_records_per_worker: 8192\n"
      "    outputs: [drv_dv]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_dv\n"
      "    params:\n"
      "      completion: ";
  yaml += completion;
  yaml += "\n";
  auto stack = rt.MountYaml(yaml);
  if (!stack.ok()) {
    std::fprintf(stderr, "device-phase mount failed: %s\n",
                 stack.status().ToString().c_str());
    std::abort();
  }
  std::vector<core::QueueLoad> loads;
  for (size_t q = 0; q < kWorkers; ++q) {
    rt.RegisterQueue(static_cast<uint32_t>(q + 1), 3 * sim::kUs);
    loads.push_back(core::QueueLoad{static_cast<uint32_t>(q + 1), 0, 0});
  }
  core::RoundRobinOrchestrator rr;
  rt.ApplyAssignment(rr.Rebalance(loads, kWorkers));

  const size_t total = Quick() ? 32 : 128;
  std::vector<std::unique_ptr<ipc::Request>> reqs;
  reqs.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    auto req = std::make_unique<ipc::Request>();
    // ~300us mean inter-arrival, jittered from the seeded stream so
    // --dst_seed replays the exact arrival pattern.
    const sim::Time arrival =
        static_cast<sim::Time>(i) * 300 * sim::kUs +
        sched.Range("bench.device.arrival", 0, 100) * sim::kUs;
    env.Spawn(PacedRequest(env, rt, static_cast<uint32_t>(1 + i % kWorkers),
                           **stack, *req, "fs::/dv/f" + std::to_string(i),
                           arrival));
    reqs.push_back(std::move(req));
  }
  const sim::Time end = env.Run();

  DeviceModeResult result;
  result.mode = completion;
  result.requests = total;
  result.avg_busy_cores = rt.AvgBusyCores(end);
  result.polled = rt.polled_completions();
  result.interrupts = rt.interrupt_completions();
  result.digest = DeviceDigest(**dev);
  result.virtual_ms = static_cast<double>(end) / 1e6;
  return result;
}

void WriteDeviceJson(const DeviceModeResult& polled,
                     const DeviceModeResult& irq, uint64_t seed,
                     const char* path) {
  char seed_hex[32];
  std::snprintf(seed_hex, sizeof(seed_hex), "0x%llx",
                static_cast<unsigned long long>(seed));
  BenchJson json("device");
  json.Meta("seed", seed_hex);
  json.Meta("byte_identical", polled.digest == irq.digest ? "true" : "false");
  json.Meta("busy_reduction_pct",
            100.0 * (polled.avg_busy_cores - irq.avg_busy_cores) /
                polled.avg_busy_cores,
            "%.2f");
  for (const DeviceModeResult* r : {&polled, &irq}) {
    json.Add(r->mode, "requests", r->requests);
    json.Add(r->mode, "avg_busy_cores", r->avg_busy_cores, "%.4f");
    json.Add(r->mode, "polled_completions", r->polled);
    json.Add(r->mode, "interrupt_completions", r->interrupts);
    json.Add(r->mode, "virtual_ms", r->virtual_ms, "%.2f");
  }
  (void)json.Write(path);  // BenchJson reports the path itself
}

void WriteJson(const std::vector<SweepPoint>& sweep, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scaling\",\n  \"sweep\": {\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f,
                 "    \"%zu\": {\"requests\": %llu, \"mean_ns\": %.1f, "
                 "\"p99_ns\": %.1f, \"rebalance_us\": %.1f}%s\n",
                 p.workers, static_cast<unsigned long long>(p.requests),
                 p.mean_ns, p.p99_ns, p.rebalance_us,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace labstor::bench

int main(int argc, char** argv) {
  labstor::Logger::Get().set_level(labstor::LogLevel::kWarn);
  labstor::dst::InitSeeds(&argc, argv);  // --dst_seed replays the device phase
  using namespace labstor::bench;

  const size_t per_queue = Quick() ? 8 : 32;
  std::vector<SweepPoint> sweep;
  for (const size_t workers : {4u, 16u, 64u, 128u, 256u}) {
    sweep.push_back(RunSweepPoint(workers, per_queue));
  }

  const uint64_t device_seed = labstor::dst::SeedList().front();
  const DeviceModeResult dev_polled = RunDeviceMode("polling", device_seed);
  const DeviceModeResult dev_irq = RunDeviceMode("interrupt", device_seed);

  PrintHeader("Virtual-core scaling — DES sweep");
  Table table({"workers", "requests", "mean ns/req", "p99 ns/req",
               "rebalance us"});
  for (const SweepPoint& p : sweep) {
    table.AddRow({std::to_string(p.workers), std::to_string(p.requests),
                  Fmt("%.0f", p.mean_ns), Fmt("%.0f", p.p99_ns),
                  Fmt("%.1f", p.rebalance_us)});
  }
  table.Print();

  PrintHeader("Completion delivery — low-load polled vs interrupt");
  Table dev({"mode", "requests", "avg busy cores", "polled", "interrupts"});
  for (const DeviceModeResult* r : {&dev_polled, &dev_irq}) {
    dev.AddRow({r->mode, std::to_string(r->requests),
                Fmt("%.4f", r->avg_busy_cores), std::to_string(r->polled),
                std::to_string(r->interrupts)});
  }
  dev.Print();

  WriteJson(sweep, argc > 1 ? argv[1] : "BENCH_scaling.json");
  WriteDeviceJson(dev_polled, dev_irq, device_seed,
                  argc > 2 ? argv[2] : "BENCH_device.json");

  // Acceptance gates: interrupt delivery must actually cut idle-poll
  // work at low load, and must never change durable device state.
  if (dev_polled.digest != dev_irq.digest) {
    std::fprintf(stderr,
                 "FAIL: polled and interrupt runs diverged in device bytes\n");
    return 1;
  }
  if (dev_irq.avg_busy_cores >= dev_polled.avg_busy_cores) {
    std::fprintf(stderr,
                 "FAIL: interrupt mode did not reduce idle-poll work "
                 "(polling %.4f busy cores, interrupt %.4f)\n",
                 dev_polled.avg_busy_cores, dev_irq.avg_busy_cores);
    return 1;
  }
  return 0;
}
