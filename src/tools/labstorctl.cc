// labstorctl — the administration utility bundled with the platform
// (the paper's mount.stack / modify.stack / mount.repo command family,
// folded into one binary for this in-process build).
//
//   labstorctl mods
//       List every LabMod installed in the factory registry, with
//       available versions.
//   labstorctl validate-stack <stack.yaml>
//       Parse and validate a LabStack specification (DAG rules, type
//       compatibility is checked at mount).
//   labstorctl validate-config <runtime.yaml>
//       Parse a Runtime configuration and print the resolved settings.
//   labstorctl demo <runtime.yaml> <stack.yaml>
//       Boot a Runtime from the config, mount the stack, run a
//       write/read smoke test through GenericFS, report stats.
//   labstorctl stats <runtime.yaml> <stack.yaml>
//       Run the smoke workload with telemetry attached and print the
//       merged metrics registry as JSON.
//   labstorctl trace <runtime.yaml> <stack.yaml> [out.json]
//       Same workload; write a Chrome trace-event file (open it in
//       https://ui.perfetto.dev or chrome://tracing).
//   labstorctl faults <runtime.yaml> <stack.yaml> <faults.yaml>
//       Arm the fault-injection plan, run the smoke workload under it
//       (tolerating injected failures), and report per-site fire
//       counts, client retries, and ops that ended in kTimeout (the
//       unhandled-fault audit: non-zero exits 1).
//   labstorctl cluster [nodes] [ops]
//       Boot a simulated sharded cluster (default 4 nodes), run a
//       deterministic workload with one node join mid-stream, and
//       print the topology: shard-map generation, per-node state and
//       net queue depths, and routing/migration counters.
//   labstorctl pushdown [depth] [execs]
//       Boot a pushdown stack, register the canonical pointer-chase
//       (given depth) and read-modify-write chains, execute them, and
//       list each registered chain with its execution count plus the
//       cumulative crossings-saved counters from telemetry.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "cluster/cluster.h"
#include "core/client.h"
#include "core/sim_runtime.h"
#include "faultinject/faultinject.h"
#include "core/module_registry.h"
#include "core/runtime.h"
#include "core/runtime_config.h"
#include "core/stack.h"
#include "ipc/chain.h"
#include "labmods/genericfs.h"
#include "labmods/pushdown.h"
#include "simdev/registry.h"
#include "telemetry/telemetry.h"

namespace {

using namespace labstor;

int Usage() {
  std::fprintf(stderr,
               "usage: labstorctl <command> [args]\n"
               "  mods\n"
               "  validate-stack <stack.yaml>\n"
               "  validate-config <runtime.yaml>\n"
               "  demo <runtime.yaml> <stack.yaml>\n"
               "  stats <runtime.yaml> <stack.yaml>\n"
               "  trace <runtime.yaml> <stack.yaml> [out.json]\n"
               "  faults <runtime.yaml> <stack.yaml> <faults.yaml>\n"
               "  cluster [nodes] [ops]\n"
               "  pushdown [depth] [execs]\n");
  return 2;
}

int ListMods() {
  core::ModFactory& factory = core::ModFactory::Global();
  std::printf("installed LabMods:\n");
  for (const std::string& name : factory.Names()) {
    auto latest = factory.LatestVersion(name);
    std::printf("  %-18s latest v%u\n", name.c_str(),
                latest.ok() ? *latest : 0);
  }
  return 0;
}

int ValidateStack(const char* path) {
  auto spec = core::StackSpec::ParseFile(path);
  if (!spec.ok()) {
    std::fprintf(stderr, "parse error: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  core::StackNamespace ns;
  const Status st = ns.Validate(*spec);
  if (!st.ok()) {
    std::fprintf(stderr, "invalid stack: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("OK: mount '%s', %zu vertices, exec_mode %s\n",
              spec->mount.c_str(), spec->dag.size(),
              spec->rules.exec_mode == core::ExecMode::kSync ? "sync" : "async");
  for (const core::StackVertexSpec& vs : spec->dag) {
    std::printf("  %-14s uuid=%s outputs=%zu%s\n", vs.mod_name.c_str(),
                vs.uuid.c_str(), vs.outputs.size(),
                core::ModFactory::Global().Has(vs.mod_name)
                    ? ""
                    : "  [WARNING: mod not installed]");
  }
  return 0;
}

int ValidateConfig(const char* path) {
  auto config = core::RuntimeConfig::ParseFile(path);
  if (!config.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  std::printf("OK: workers=%zu orchestrator=%s queue_depth=%zu segment=%zuMB\n",
              config->options.max_workers,
              std::string(config->options.orchestrator->name()).c_str(),
              config->options.ipc.queue_depth,
              config->options.ipc.segment_bytes >> 20);
  for (const auto& device : config->devices) {
    std::printf("  device %-8s %-9s %llu MB\n", device.name.c_str(),
                std::string(simdev::DeviceKindName(device.kind)).c_str(),
                static_cast<unsigned long long>(device.capacity_bytes >> 20));
  }
  for (const auto& repo : config->repos) {
    std::printf("  repo %s\n", repo.c_str());
  }
  return 0;
}

int Demo(const char* config_path, const char* stack_path) {
  auto config = core::RuntimeConfig::ParseFile(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  simdev::DeviceRegistry devices(nullptr);
  if (const Status st = config->ApplyDevices(devices); !st.ok()) {
    std::fprintf(stderr, "devices: %s\n", st.ToString().c_str());
    return 1;
  }
  core::Runtime runtime(std::move(config->options), devices);
  if (!runtime.Start().ok()) return 1;

  auto spec = core::StackSpec::ParseFile(stack_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "stack: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  if (!stack.ok()) {
    std::fprintf(stderr, "mount: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  std::printf("mounted '%s' (id %u)\n", spec->mount.c_str(), (*stack)->id);

  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  if (!client.Connect().ok()) return 1;
  labmods::GenericFs fs(client);
  const std::string path = spec->mount + "/labstorctl_smoke";
  auto fd = fs.Create(path);
  if (!fd.ok()) {
    std::fprintf(stderr, "create: %s\n", fd.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  auto wrote = fs.Write(*fd, data, 0);
  std::vector<uint8_t> back(4096);
  auto read = fs.Read(*fd, back, 0);
  std::printf("smoke test: wrote %llu, read %llu, %s\n",
              static_cast<unsigned long long>(wrote.value_or(0)),
              static_cast<unsigned long long>(read.value_or(0)),
              back == data ? "content OK" : "CONTENT MISMATCH");
  (void)fs.Unlink(path);
  (void)runtime.Stop();
  return back == data ? 0 : 1;
}

// Boot a runtime with telemetry attached, run a small write/read
// workload, and either print the metrics JSON (stats) or write the
// Perfetto-loadable trace (trace).
int Telemetrize(const char* config_path, const char* stack_path,
                const char* trace_out) {
  auto config = core::RuntimeConfig::ParseFile(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  simdev::DeviceRegistry devices(nullptr);
  if (const Status st = config->ApplyDevices(devices); !st.ok()) {
    std::fprintf(stderr, "devices: %s\n", st.ToString().c_str());
    return 1;
  }
  telemetry::Telemetry::Options topts;
  topts.shards = config->options.max_workers;
  telemetry::Telemetry tel(topts);
  config->options.telemetry = &tel;
  core::Runtime runtime(std::move(config->options), devices);
  if (!runtime.Start().ok()) return 1;

  auto spec = core::StackSpec::ParseFile(stack_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "stack: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  if (!stack.ok()) {
    std::fprintf(stderr, "mount: %s\n", stack.status().ToString().c_str());
    return 1;
  }

  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  if (!client.Connect().ok()) return 1;
  labmods::GenericFs fs(client);
  const std::string path = spec->mount + "/labstorctl_telemetry";
  auto fd = fs.Create(path);
  if (!fd.ok()) {
    std::fprintf(stderr, "create: %s\n", fd.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  constexpr int kOps = 64;
  for (int i = 0; i < kOps; ++i) {
    if (!fs.Write(*fd, data, static_cast<uint64_t>(i) * data.size()).ok()) {
      std::fprintf(stderr, "write %d failed\n", i);
      return 1;
    }
  }
  for (int i = 0; i < kOps; ++i) {
    if (!fs.Read(*fd, data, static_cast<uint64_t>(i) * data.size()).ok()) {
      std::fprintf(stderr, "read %d failed\n", i);
      return 1;
    }
  }
  (void)fs.Unlink(path);
  (void)runtime.Stop();

  if (trace_out == nullptr) {
    std::printf("%s\n", tel.MetricsJson().c_str());
    return 0;
  }
  if (const Status st = tel.trace().WriteFile(trace_out); !st.ok()) {
    std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %zu trace events to %s (open in https://ui.perfetto.dev "
      "or chrome://tracing)\n",
      tel.trace().recorded(), trace_out);
  return 0;
}

// Arm a fault plan, run the smoke workload under it, and report what
// fired. Injected failures are expected — the interesting outputs are
// the per-site fire counts, the client's transport retries, and the
// unhandled-fault audit: ops that ended in kTimeout, which must stay
// zero. Every injected fault surfaces as the op's own error code; a
// drained request that never completes (lost by the runtime) is what
// ends in kTimeout once the client's retries run out.
int RunWithFaults(const char* config_path, const char* stack_path,
                  const char* faults_path) {
  auto config = core::RuntimeConfig::ParseFile(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  simdev::DeviceRegistry devices(nullptr);
  if (const Status st = config->ApplyDevices(devices); !st.ok()) {
    std::fprintf(stderr, "devices: %s\n", st.ToString().c_str());
    return 1;
  }
  telemetry::Telemetry::Options topts;
  topts.shards = config->options.max_workers;
  telemetry::Telemetry tel(topts);
  config->options.telemetry = &tel;

  faultinject::FaultInjector injector;
  if (const Status st = injector.LoadYamlFile(faults_path); !st.ok()) {
    std::fprintf(stderr, "faults: %s\n", st.ToString().c_str());
    return 1;
  }
  injector.AttachTelemetry(&tel);
  faultinject::ScopedInstall armed(injector);
  std::printf("armed %s (seed %llu)\n", faults_path,
              static_cast<unsigned long long>(injector.seed()));

  core::Runtime runtime(std::move(config->options), devices);
  if (!runtime.Start().ok()) return 1;
  auto spec = core::StackSpec::ParseFile(stack_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "stack: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  if (!stack.ok()) {
    std::fprintf(stderr, "mount: %s\n", stack.status().ToString().c_str());
    return 1;
  }

  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  if (!client.Connect().ok()) return 1;
  labmods::GenericFs fs(client);
  const std::string path = spec->mount + "/labstorctl_faults";
  int ok_ops = 0;
  int failed_ops = 0;
  int timed_out_ops = 0;
  const auto tally = [&](const Status& st) {
    if (st.ok()) {
      ++ok_ops;
      return;
    }
    ++failed_ops;
    if (st.code() == StatusCode::kTimeout) ++timed_out_ops;
  };
  auto fd = fs.Create(path);
  if (fd.ok()) {
    std::vector<uint8_t> data(4096);
    std::iota(data.begin(), data.end(), 0);
    constexpr int kOps = 128;
    for (int i = 0; i < kOps; ++i) {
      const uint64_t off = static_cast<uint64_t>(i % 32) * data.size();
      tally(fs.Write(*fd, data, off).status());
      tally(fs.Read(*fd, data, off).status());
    }
    (void)fs.Unlink(path);
  } else {
    tally(fd.status());
    std::fprintf(stderr, "create: %s\n", fd.status().ToString().c_str());
  }
  (void)runtime.Stop();

  std::printf("workload: %d ops ok, %d ops failed (injected)\n", ok_ops,
              failed_ops);
  std::printf("failpoint fires (%llu total):\n",
              static_cast<unsigned long long>(injector.total_fires()));
  for (const auto& [site, fires] : injector.FireCounts()) {
    std::printf("  %-28s %llu\n", site.c_str(),
                static_cast<unsigned long long>(fires));
  }
  std::printf("client retries: %llu\n",
              static_cast<unsigned long long>(client.retries()));
  std::printf("unhandled-fault audit (ops ended in kTimeout): %d\n",
              timed_out_ops);
  return timed_out_ops == 0 ? 0 : 1;
}

// ---------------------------------------------------------------
// cluster: boot N nodes, drive a deterministic workload with a join
// mid-stream, dump the topology.
// ---------------------------------------------------------------

sim::Task<void> ClusterWorkload(sim::Environment* env,
                                cluster::Cluster* cluster, uint32_t nodes,
                                uint64_t ops, Status* out) {
  for (uint64_t i = 0; i < ops; ++i) {
    const uint32_t tenant = static_cast<uint32_t>(i % 4);
    const uint32_t gateway = static_cast<uint32_t>(i % nodes);
    const std::string label =
        "t" + std::to_string(tenant) + "/obj" + std::to_string(i % 32);
    Status st = co_await cluster->Put(gateway, tenant, label,
                                      4096 + (i % 8) * 1024);
    if (!st.ok()) {
      *out = st;
      co_return;
    }
    if (i == ops / 2) {
      // Mid-stream join: the map widens and ~1/N of the shards
      // migrate onto the new node while traffic continues.
      st = co_await cluster->AddNode(nullptr);
      if (!st.ok()) {
        *out = st;
        co_return;
      }
    }
  }
  for (uint64_t i = 0; i < ops; ++i) {
    const uint32_t tenant = static_cast<uint32_t>(i % 4);
    const std::string label =
        "t" + std::to_string(tenant) + "/obj" + std::to_string(i % 32);
    const Status st = co_await cluster->Get(
        static_cast<uint32_t>((i + 1) % nodes), tenant, label);
    if (!st.ok()) {
      *out = st;
      co_return;
    }
  }
  Status st = co_await cluster->Rebalance();
  if (!st.ok()) {
    *out = st;
    co_return;
  }
  *out = cluster->CheckInvariants(/*strict=*/true);
  (void)env;
}

// ---------------------------------------------------------------
// pushdown: boot a pushdown stack, register the canonical chains,
// run them, and dump per-chain execution counts plus the cumulative
// crossings-saved counters from telemetry.
// ---------------------------------------------------------------

sim::Task<void> PushdownWorkload(sim::Environment* env, core::SimRuntime* rt,
                                 core::Stack* stack, uint32_t depth,
                                 uint64_t execs, Status* out) {
  const auto key = [](uint32_t i) {
    return "kvs::/ctl/k" + std::to_string(i);
  };
  // Register the canonical chains over the wire (kChainRegister), the
  // same framing a remote client uses — so the registration counter in
  // telemetry ticks too.
  for (const ipc::ChainProgram& program :
       {ipc::BuildPointerChaseChain(1, depth, 32), ipc::BuildRmwChain(2, 0, 7)}) {
    std::vector<uint8_t> encoded(sizeof(ipc::ChainProgram));
    ipc::EncodeChainProgram(program, encoded.data());
    ipc::Request req;
    req.op = ipc::OpCode::kChainRegister;
    req.client_pid = 1;
    req.length = encoded.size();
    req.data = encoded.data();
    req.SetPath("kvs::/ctl/");
    const Status st = co_await rt->Execute(1, *stack, req);
    if (!st.ok()) {
      *out = st;
      co_return;
    }
  }
  // Seed the pointer chase k0 -> ... -> k(depth-1); the RMW chain
  // shares k(depth-1) as its counter (first 8 value bytes).
  for (uint32_t i = 0; i < depth; ++i) {
    std::vector<uint8_t> value(64, static_cast<uint8_t>(0xC0 + i));
    if (i + 1 < depth) {
      std::fill(value.begin(), value.begin() + 32, uint8_t{0});
      const std::string next = key(i + 1);
      std::memcpy(value.data(), next.data(), next.size());
    } else {
      const uint64_t counter = 1000;
      std::memcpy(value.data(), &counter, sizeof(counter));
    }
    ipc::Request req;
    req.op = ipc::OpCode::kPut;
    req.client_pid = 1;
    req.length = value.size();
    req.data = value.data();
    req.SetPath(key(i));
    const Status st = co_await rt->Execute(1, *stack, req);
    if (!st.ok()) {
      *out = st;
      co_return;
    }
  }
  std::vector<uint8_t> buf(4096);
  for (uint64_t i = 0; i < execs; ++i) {
    // Alternate chase (chain 1, starts at k0) and RMW (chain 2,
    // increments the counter stored at the chase's tail key).
    ipc::Request req;
    req.op = ipc::OpCode::kChainExec;
    req.client_pid = 1;
    req.chain_id = i % 2 == 0 ? 1 : 2;
    req.length = buf.size();
    req.data = buf.data();
    req.SetPath(req.chain_id == 1 ? key(0) : key(depth - 1));
    const Status st = co_await rt->Execute(1, *stack, req);
    if (!st.ok()) {
      *out = st;
      co_return;
    }
  }
  (void)env;
}

int PushdownStatus(uint32_t depth, uint64_t execs) {
  sim::Environment env;
  telemetry::Telemetry::Options topts;
  topts.virtual_time = true;
  telemetry::Telemetry tel(topts);
  simdev::DeviceRegistry devices(&env);
  if (!devices.Create(simdev::DeviceParams::NvmeP3700()).ok()) {
    std::fprintf(stderr, "device create failed\n");
    return 1;
  }
  core::SimRuntime rt(env, devices, /*workers=*/2);
  rt.AttachTelemetry(&tel);
  auto stack = rt.MountYaml(
      "mount: kvs::/ctl\n"
      "rules:\n"
      "  exec_mode: async\n"
      "dag:\n"
      "  - mod: pushdown\n"
      "    uuid: pd_ctl\n"
      "    outputs: [kvs_ctl]\n"
      "  - mod: labkvs\n"
      "    uuid: kvs_ctl\n"
      "    params:\n"
      "      device: nvme0\n"
      "      log_records_per_worker: 8192\n"
      "    outputs: [sched_ctl]\n"
      "  - mod: noop_sched\n"
      "    uuid: sched_ctl\n"
      "    outputs: [drv_ctl]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_ctl\n"
      "    params:\n"
      "      device: nvme0\n");
  if (!stack.ok()) {
    std::fprintf(stderr, "mount: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  rt.RegisterQueue(1, 3 * sim::kUs);
  auto mod = rt.registry().Find("pd_ctl");
  auto* pd = mod.ok() ? dynamic_cast<labmods::PushdownMod*>(*mod) : nullptr;
  if (pd == nullptr) {
    std::fprintf(stderr, "pushdown mod not found\n");
    return 1;
  }
  Status workload_status;
  env.Spawn(
      PushdownWorkload(&env, &rt, *stack, depth, execs, &workload_status));
  env.Run();
  if (!workload_status.ok()) {
    std::fprintf(stderr, "pushdown workload: %s\n",
                 workload_status.ToString().c_str());
    return 1;
  }

  std::printf("registered chains:\n");
  std::printf("%-6s %-6s %-8s %-6s %-11s %-6s %-16s %s\n", "chain", "steps",
              "mutates", "epoch", "executions", "steps", "crossings_saved",
              "saved_ns");
  for (const labmods::PushdownMod::ChainInfo& c : pd->ListChains()) {
    std::printf("%-6u %-6u %-8s %-6llu %-11llu %-6llu %-16llu %llu\n", c.id,
                c.num_steps, c.mutates ? "yes" : "no",
                static_cast<unsigned long long>(c.registered_epoch),
                static_cast<unsigned long long>(c.executions),
                static_cast<unsigned long long>(c.steps_executed),
                static_cast<unsigned long long>(c.crossings_saved),
                static_cast<unsigned long long>(c.saved_ns));
  }
  const auto counter = [&](const char* name) {
    return static_cast<unsigned long long>(
        tel.metrics().GetCounter(name)->Value());
  };
  std::printf("telemetry (cumulative):\n");
  std::printf("  pushdown.chains.registered  %llu\n",
              counter("pushdown.chains.registered"));
  std::printf("  pushdown.chains.executed    %llu\n",
              counter("pushdown.chains.executed"));
  std::printf("  pushdown.steps.executed     %llu\n",
              counter("pushdown.steps.executed"));
  std::printf("  pushdown.hops.collapsed     %llu\n",
              counter("pushdown.hops.collapsed"));
  std::printf("  pushdown.crossings.saved    %llu\n",
              counter("pushdown.crossings.saved"));
  std::printf("  pushdown.crossings.saved_ns %llu\n",
              counter("pushdown.crossings.saved_ns"));
  return 0;
}

int ClusterStatus(uint32_t nodes, uint64_t ops) {
  sim::Environment env;
  cluster::ClusterConfig config;
  config.initial_nodes = nodes;
  cluster::Cluster cluster(env, config);
  if (!cluster.init_status().ok()) {
    std::fprintf(stderr, "cluster init: %s\n",
                 cluster.init_status().ToString().c_str());
    return 1;
  }
  Status workload_status;
  env.Spawn(ClusterWorkload(&env, &cluster, nodes, ops, &workload_status));
  env.Run();
  if (!workload_status.ok()) {
    std::fprintf(stderr, "cluster workload: %s\n",
                 workload_status.ToString().c_str());
    return 1;
  }

  const cluster::Topology topo = cluster.GetTopology();
  std::printf("shard map: generation %llu, %u virtual nodes per node\n",
              static_cast<unsigned long long>(topo.map_generation),
              topo.virtual_nodes);
  std::printf("%-5s %-5s %-9s %-8s %-8s %-7s %-9s %s\n", "node", "up",
              "draining", "version", "map_gen", "labels", "executed",
              "net_queue");
  for (const cluster::NodeInfo& n : topo.nodes) {
    std::printf("%-5u %-5s %-9s %-8u %-8llu %-7llu %-9llu %zu\n", n.id,
                n.up ? "yes" : "no", n.draining ? "yes" : "no", n.version,
                static_cast<unsigned long long>(n.map_generation),
                static_cast<unsigned long long>(n.labels),
                static_cast<unsigned long long>(n.executed),
                n.net_queue_depth);
  }
  std::printf("acked labels:    %llu\n",
              static_cast<unsigned long long>(topo.acked_labels));
  std::printf("forwarded hops:  %llu\n",
              static_cast<unsigned long long>(topo.forwarded));
  std::printf("fallback reads:  %llu\n",
              static_cast<unsigned long long>(topo.fallback_reads));
  std::printf("forward loops:   %llu\n",
              static_cast<unsigned long long>(topo.forward_loops));
  std::printf("migrated labels: %llu (%llu bytes)\n",
              static_cast<unsigned long long>(topo.migrated),
              static_cast<unsigned long long>(topo.migration_bytes));
  std::printf("net messages:    %llu (%llu bytes)\n",
              static_cast<unsigned long long>(topo.net_messages),
              static_cast<unsigned long long>(topo.net_bytes));
  std::printf("invariants:      ok (single_owner, no_lost_acked_writes, "
              "loop_free, monotone_generations)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "mods") == 0) return ListMods();
  if (std::strcmp(argv[1], "validate-stack") == 0 && argc == 3) {
    return ValidateStack(argv[2]);
  }
  if (std::strcmp(argv[1], "validate-config") == 0 && argc == 3) {
    return ValidateConfig(argv[2]);
  }
  if (std::strcmp(argv[1], "demo") == 0 && argc == 4) {
    return Demo(argv[2], argv[3]);
  }
  if (std::strcmp(argv[1], "stats") == 0 && argc == 4) {
    return Telemetrize(argv[2], argv[3], nullptr);
  }
  if (std::strcmp(argv[1], "trace") == 0 && (argc == 4 || argc == 5)) {
    return Telemetrize(argv[2], argv[3],
                       argc == 5 ? argv[4] : "labstor_trace.json");
  }
  if (std::strcmp(argv[1], "faults") == 0 && argc == 5) {
    return RunWithFaults(argv[2], argv[3], argv[4]);
  }
  if (std::strcmp(argv[1], "cluster") == 0 && argc <= 4) {
    const uint32_t nodes =
        argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10))
                 : 4;
    const uint64_t ops = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 64;
    if (nodes == 0 || ops == 0) return Usage();
    return ClusterStatus(nodes, ops);
  }
  if (std::strcmp(argv[1], "pushdown") == 0 && argc <= 4) {
    const uint32_t depth =
        argc >= 3 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10))
                  : 8;
    const uint64_t execs =
        argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 16;
    if (depth < 2 || depth > 8 || execs == 0) return Usage();
    return PushdownStatus(depth, execs);
  }
  return Usage();
}
