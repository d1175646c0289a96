#include "dst/rigs.h"

namespace labstor::dst {
namespace {

// Small device + small log keep per-crash-point rebuild cheap while
// leaving thousands of data blocks for the workloads.
constexpr uint64_t kDeviceBytes = 16 << 20;

constexpr const char* kFsStackYaml =
    "mount: fs::/dst\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: labfs\n"
    "    uuid: labfs_dst\n"
    "    params:\n"
    "      log_records_per_worker: 512\n"
    "    outputs: [drv_labfs_dst]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv_labfs_dst\n";

constexpr const char* kKvsStackYaml =
    "mount: kvs::/dst\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: labkvs\n"
    "    uuid: labkvs_dst\n"
    "    params:\n"
    "      log_records_per_worker: 512\n"
    "    outputs: [drv_labkvs_dst]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv_labkvs_dst\n";

constexpr const char* kPushdownKvsStackYaml =
    "mount: kvs::/dst\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: pushdown\n"
    "    uuid: pd_dst\n"
    "    outputs: [labkvs_dst]\n"
    "  - mod: labkvs\n"
    "    uuid: labkvs_dst\n"
    "    params:\n"
    "      log_records_per_worker: 512\n"
    "    outputs: [drv_labkvs_dst]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv_labkvs_dst\n";

core::Runtime::Options RigOptions() {
  core::Runtime::Options options;
  // One worker: every fslog append goes to region 0 in seq order, so a
  // journal prefix is exactly a log prefix (see file comment).
  options.max_workers = 1;
  return options;
}

template <typename Mod>
Result<Mod*> FindMod(core::Runtime& runtime, const std::string& uuid) {
  LABSTOR_ASSIGN_OR_RETURN(mod, runtime.registry().Find(uuid));
  auto* typed = dynamic_cast<Mod*>(mod);
  if (typed == nullptr) {
    return Status::Internal("mod '" + uuid + "' has unexpected type");
  }
  return typed;
}

}  // namespace

CrashRig::CrashRig()
    : devices_(nullptr),
      runtime_(RigOptions(), devices_),
      client_(runtime_, ipc::Credentials{100, 1000, 1000}),
      fs_(client_),
      kvs_(client_) {}

Status CrashRig::Init(StackKind kind) {
  LABSTOR_ASSIGN_OR_RETURN(
      device, devices_.Create(simdev::DeviceParams::NvmeP3700(kDeviceBytes)));
  device_ = device;
  const char* yaml = kind == StackKind::kLabFs    ? kFsStackYaml
                     : kind == StackKind::kLabKvs ? kKvsStackYaml
                                                  : kPushdownKvsStackYaml;
  LABSTOR_ASSIGN_OR_RETURN(spec, core::StackSpec::Parse(yaml));
  LABSTOR_ASSIGN_OR_RETURN(
      stack, runtime_.MountStack(spec, ipc::Credentials{1, 0, 0}));
  stack_ = stack;
  LABSTOR_RETURN_IF_ERROR(client_.Connect());
  if (kind == StackKind::kLabFs) {
    LABSTOR_ASSIGN_OR_RETURN(labfs,
                             FindMod<labmods::LabFsMod>(runtime_, "labfs_dst"));
    labfs_ = labfs;
    return Status::Ok();
  }
  LABSTOR_ASSIGN_OR_RETURN(labkvs,
                           FindMod<labmods::LabKvsMod>(runtime_, "labkvs_dst"));
  labkvs_ = labkvs;
  if (kind == StackKind::kPushdownKvs) {
    LABSTOR_ASSIGN_OR_RETURN(pd,
                             FindMod<labmods::PushdownMod>(runtime_, "pd_dst"));
    pushdown_ = pd;
  }
  return Status::Ok();
}

Result<std::unique_ptr<CrashRig>> CrashRig::Create(StackKind kind) {
  std::unique_ptr<CrashRig> rig(new CrashRig());
  LABSTOR_RETURN_IF_ERROR(rig->Init(kind));
  return rig;
}

ClusterRig::ClusterRig(const cluster::ClusterConfig& config)
    : tel_([] {
        telemetry::Telemetry::Options opts;
        opts.virtual_time = true;
        return opts;
      }()) {
  cluster_ = std::make_unique<cluster::Cluster>(env_, config, &tel_);
  init_status_ = cluster_->init_status();
}

Result<std::unique_ptr<ClusterRig>> ClusterRig::Create(
    const cluster::ClusterConfig& config) {
  std::unique_ptr<ClusterRig> rig(new ClusterRig(config));
  LABSTOR_RETURN_IF_ERROR(rig->init_status_);
  return rig;
}

}  // namespace labstor::dst
