// StackExec's DAG walk: fan-out runs every output in declaration
// order, the first failing output stops the rest, Forward at a sink is
// a no-op and Forward outside a dispatch is an error. Then live-upgrade
// safety on the inline path: after an upgrade every vertex runs its new
// instance, and an inline execution that arrives mid-upgrade is held at
// the quiesce gate.
//
// The upgrade suite is named StackUpgrade* so the TSan CI job's name
// filter picks up the gate interleaving test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/module_registry.h"
#include "core/runtime.h"
#include "core/stack.h"
#include "core/stack_exec.h"
#include "simdev/registry.h"

namespace labstor::core {
namespace {

using namespace std::chrono_literals;

// The instance UUID of every Process call the probe mods make.
std::vector<std::string>& Visits() {
  static std::vector<std::string> visits;
  return visits;
}

// Records its visit, fails if its vertex says `fail: true`, and
// otherwise always calls Forward (so a sink exercises Forward too).
// Version 2 exists so an upgrade has somewhere to go.
class ExecProbeMod : public LabMod {
 public:
  explicit ExecProbeMod(uint32_t version = 1)
      : LabMod("exec_probe", ModType::kDummy, version) {}
  Status Init(const yaml::NodePtr& params, ModContext& ctx) override {
    (void)ctx;
    fail_ = params != nullptr && params->GetBool("fail", false);
    return Status::Ok();
  }
  Status Process(ipc::Request& req, StackExec& exec) override {
    Visits().push_back(instance_uuid());
    ++visits_;
    if (fail_) return Status::Unavailable("probe " + instance_uuid());
    return exec.Forward(req);
  }

  uint64_t visits() const { return visits_; }

 private:
  bool fail_ = false;
  uint64_t visits_ = 0;
};

class ExecProbeModV2 final : public ExecProbeMod {
 public:
  ExecProbeModV2() : ExecProbeMod(2) {}
};

LABSTOR_REGISTER_LABMOD("exec_probe", 1, ExecProbeMod);
LABSTOR_REGISTER_LABMOD("exec_probe", 2, ExecProbeModV2);

class StackExecTest : public ::testing::Test {
 protected:
  StackExecTest() { Visits().clear(); }

  Stack* MountYaml(const std::string& yaml) {
    auto spec = StackSpec::Parse(yaml);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto stack = ns_.Mount(*spec, registry_, ctx_, alice_);
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    return *stack;
  }

  Status Dispatch(Stack& stack) {
    ipc::Request req;
    req.op = ipc::OpCode::kDummy;
    ExecTrace trace;
    StackExec exec(stack, ctx_, trace);
    return exec.Dispatch(req);
  }

  ModuleRegistry registry_;
  ModContext ctx_;
  StackNamespace ns_;
  ipc::Credentials alice_{100, 1000, 1000};
};

TEST_F(StackExecTest, FanOutRunsEveryOutputInDeclarationOrder) {
  // The root lists its outputs in the reverse of vertex order, so the
  // visit order tells declaration order from index order.
  Stack* stack = MountYaml(
      "mount: ctl::/fan\n"
      "dag:\n"
      "  - mod: exec_probe\n"
      "    uuid: fan_root\n"
      "    outputs: [fan_b, fan_a]\n"
      "  - mod: exec_probe\n"
      "    uuid: fan_a\n"
      "  - mod: exec_probe\n"
      "    uuid: fan_b\n");
  ASSERT_TRUE(Dispatch(*stack).ok());
  EXPECT_EQ(Visits(),
            (std::vector<std::string>{"fan_root", "fan_b", "fan_a"}));
}

TEST_F(StackExecTest, FailingOutputStopsTheNextAndReturnsItsError) {
  Stack* stack = MountYaml(
      "mount: ctl::/fanfail\n"
      "dag:\n"
      "  - mod: exec_probe\n"
      "    uuid: ff_root\n"
      "    outputs: [ff_bad, ff_good]\n"
      "  - mod: exec_probe\n"
      "    uuid: ff_bad\n"
      "    params:\n"
      "      fail: true\n"
      "  - mod: exec_probe\n"
      "    uuid: ff_good\n");
  const Status st = Dispatch(*stack);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(st.message(), "probe ff_bad");
  EXPECT_EQ(Visits(), (std::vector<std::string>{"ff_root", "ff_bad"}));
}

TEST_F(StackExecTest, ForwardAtASinkReturnsOk) {
  Stack* stack = MountYaml(
      "mount: ctl::/sink\n"
      "dag:\n"
      "  - mod: exec_probe\n"
      "    uuid: sink_only\n");
  EXPECT_TRUE(Dispatch(*stack).ok());
  EXPECT_EQ(Visits(), std::vector<std::string>{"sink_only"});
}

TEST_F(StackExecTest, ForwardOutsideDispatchIsInternal) {
  Stack* stack = MountYaml(
      "mount: ctl::/outside\n"
      "dag:\n"
      "  - mod: exec_probe\n"
      "    uuid: out_a\n"
      "    outputs: [out_b]\n"
      "  - mod: exec_probe\n"
      "    uuid: out_b\n");
  ipc::Request req;
  req.op = ipc::OpCode::kDummy;
  ExecTrace trace;
  StackExec exec(*stack, ctx_, trace);
  EXPECT_FALSE(exec.HasDownstream());
  EXPECT_EQ(exec.Forward(req).code(), StatusCode::kInternal);
  EXPECT_TRUE(Visits().empty());
}

// ---------------------------------------------------------------------------
// Live upgrade on the inline path: rebinding under quiesce + the gate.
// ---------------------------------------------------------------------------

class StackUpgradeTest : public ::testing::Test {
 protected:
  StackUpgradeTest() : devices_(nullptr), runtime_(MakeOptions(), devices_) {
    auto dev = devices_.Create(simdev::DeviceParams::NvmeP3700(64 << 20));
    EXPECT_TRUE(dev.ok());
    Visits().clear();
  }

  static Runtime::Options MakeOptions() {
    Runtime::Options options;
    options.max_workers = 1;
    return options;
  }

  Stack* MountSyncChain(const char* mod) {
    const std::string m(mod);
    auto spec = StackSpec::Parse(
        "mount: ctl::/fup\n"
        "rules:\n"
        "  exec_mode: sync\n"
        "dag:\n"
        "  - mod: " + m + "\n"
        "    uuid: fup_a\n"
        "    version: 1\n"
        "    outputs: [fup_b]\n"
        "  - mod: " + m + "\n"
        "    uuid: fup_b\n"
        "    version: 1\n");
    EXPECT_TRUE(spec.ok());
    auto stack = runtime_.MountStack(*spec, ipc::Credentials{1, 0, 0});
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    return *stack;
  }

  void UpgradeTo2(const char* mod) {
    UpgradeRequest upgrade;
    upgrade.mod_name = mod;
    upgrade.new_version = 2;
    runtime_.SubmitUpgrade(upgrade);
    ASSERT_TRUE(runtime_.StepAdmin().ok());
  }

  simdev::DeviceRegistry devices_;
  Runtime runtime_;
};

TEST_F(StackUpgradeTest, UpgradeRebindsEveryVertexAndExecutionReachesIt) {
  Stack* stack = MountSyncChain("exec_probe");
  ipc::Request req;
  req.op = ipc::OpCode::kDummy;
  req.stack_id = stack->id;
  ASSERT_TRUE(runtime_.Execute(req).ok());
  EXPECT_EQ(Visits(), (std::vector<std::string>{"fup_a", "fup_b"}));

  UpgradeTo2("exec_probe");

  // Every vertex points at the v2 instance the swap installed, never
  // at the retired v1 object.
  for (const Stack::Vertex& vertex : stack->vertices) {
    auto live = runtime_.registry().Find(vertex.uuid);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(vertex.mod, *live);
    EXPECT_EQ(vertex.mod->version(), 2u);
  }
  // And the walk runs each of them, root to sink.
  Visits().clear();
  req.Reuse();
  req.op = ipc::OpCode::kDummy;
  req.stack_id = stack->id;
  ASSERT_TRUE(runtime_.Execute(req).ok());
  EXPECT_EQ(Visits(), (std::vector<std::string>{"fup_a", "fup_b"}));
  for (const Stack::Vertex& vertex : stack->vertices) {
    EXPECT_EQ(static_cast<const ExecProbeMod*>(vertex.mod)->visits(), 1u)
        << vertex.uuid;
  }
}

TEST_F(StackUpgradeTest, InlineExecIsHeldAtTheQuiesceGate) {
  // Regression for the validation-to-execution window: a sync client
  // thread that enters Execute *while* the centralized upgrade has
  // quiesced the runtime must be held at the gate until the swap and
  // rebinding complete — not run a stale binding mid-replacement.
  Stack* stack = MountSyncChain("dummy");

  std::atomic<bool> quiesced{false};
  std::atomic<bool> gate_seen{false};
  std::atomic<bool> exec_done{false};
  const uint64_t paused0 = runtime_.inline_execs_paused();

  runtime_.module_manager().SetPhaseHook([&](std::string_view phase) {
    if (phase != "centralized.quiesced") return;
    // Release the client thread, then require it to hit the gate
    // (inline_execs_paused increments) before the swap proceeds. If
    // the gate were missing, the client would execute to completion
    // here instead — the pre-fix interleaving.
    quiesced.store(true, std::memory_order_release);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (runtime_.inline_execs_paused() == paused0) {
      if (exec_done.load(std::memory_order_acquire)) {
        ADD_FAILURE() << "inline Execute completed during quiesce";
        return;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "client never reached the quiesce gate";
        return;
      }
      std::this_thread::yield();
    }
    gate_seen.store(true, std::memory_order_release);
  });

  std::thread client([&] {
    while (!quiesced.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ipc::Request req;
    req.op = ipc::OpCode::kDummy;
    req.stack_id = stack->id;
    const Status st = runtime_.Execute(req);
    EXPECT_TRUE(st.ok()) << st.ToString();
    exec_done.store(true, std::memory_order_release);
  });

  UpgradeTo2("dummy");
  client.join();
  runtime_.module_manager().SetPhaseHook(nullptr);

  EXPECT_TRUE(gate_seen.load());
  EXPECT_TRUE(exec_done.load());
  EXPECT_GT(runtime_.inline_execs_paused(), paused0);
  // The held request ran against the post-upgrade bindings.
  for (const Stack::Vertex& vertex : stack->vertices) {
    EXPECT_EQ(vertex.mod->version(), 2u);
  }
}

}  // namespace
}  // namespace labstor::core
