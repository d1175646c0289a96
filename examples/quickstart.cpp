// Quickstart: assemble a LabStack from a YAML spec, start the Runtime,
// and do POSIX-style file I/O through GenericFS.
//
//   devices  -> a simulated NVMe
//   LabStack -> permissions -> LabFS -> LRU cache -> NoOp -> KernelDriver
//   client   -> open/write/read/stat via the GenericFS connector
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "labmods/genericfs.h"
#include "simdev/registry.h"

using namespace labstor;

int main() {
  // 1. Storage: register a simulated NVMe device (in a deployment this
  //    is the hardware the Kernel Ops Manager exposes).
  simdev::DeviceRegistry devices(nullptr);
  auto nvme = devices.Create(simdev::DeviceParams::NvmeP3700(256 << 20));
  if (!nvme.ok()) {
    std::fprintf(stderr, "device: %s\n", nvme.status().ToString().c_str());
    return 1;
  }

  // 2. Runtime: workers + admin, as `labstor_runtime` would launch.
  core::Runtime::Options options;
  options.max_workers = 2;
  core::Runtime runtime(std::move(options), devices);
  if (!runtime.Start().ok()) return 1;

  // 3. mount.stack: a full-featured FS stack from its YAML spec.
  const char* stack_yaml = R"(
mount: fs::/demo
rules:
  exec_mode: async
dag:
  - mod: permissions
    uuid: demo_perm
    outputs: [demo_fs]
  - mod: labfs
    uuid: demo_fs
    params:
      log_records_per_worker: 4096
    outputs: [demo_lru]
  - mod: lru_cache
    uuid: demo_lru
    outputs: [demo_sched]
  - mod: noop_sched
    uuid: demo_sched
    outputs: [demo_drv]
  - mod: kernel_driver
    uuid: demo_drv
)";
  auto spec = core::StackSpec::Parse(stack_yaml);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  if (!stack.ok()) {
    std::fprintf(stderr, "mount: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  std::printf("mounted '%s' (stack id %u, %zu mods)\n",
              (*stack)->spec.mount.c_str(), (*stack)->id,
              (*stack)->vertices.size());

  // 4. Application side: connect a client and use POSIX-ish calls.
  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  if (!client.Connect().ok()) return 1;
  labmods::GenericFs fs(client);

  auto fd = fs.Create("fs::/demo/hello.txt");
  if (!fd.ok()) {
    std::fprintf(stderr, "create: %s\n", fd.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> payload(8192);
  std::iota(payload.begin(), payload.end(), 0);
  auto written = fs.Write(*fd, payload, 0);
  std::printf("wrote %llu bytes\n",
              static_cast<unsigned long long>(written.value_or(0)));

  std::vector<uint8_t> back(8192);
  auto read = fs.Read(*fd, back, 0);
  std::printf("read %llu bytes back: %s\n",
              static_cast<unsigned long long>(read.value_or(0)),
              back == payload ? "content matches" : "MISMATCH");

  auto size = fs.StatSize("fs::/demo/hello.txt");
  std::printf("stat size: %llu\n",
              static_cast<unsigned long long>(size.value_or(0)));
  (void)fs.Close(*fd);

  std::printf("clients rang the runtime doorbell %llu times; device wrote "
              "%llu bytes\n",
              static_cast<unsigned long long>(runtime.doorbell_rings()),
              static_cast<unsigned long long>(
                  (*nvme)->stats().bytes_written.load()));
  (void)runtime.Stop();
  std::printf("quickstart OK\n");
  return 0;
}
