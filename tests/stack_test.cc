#include "core/stack.h"

#include <gtest/gtest.h>

#include "core/module_registry.h"
#include "simdev/registry.h"

namespace labstor::core {
namespace {

constexpr const char* kFullStackYaml =
    "mount: fs::/a\n"
    "rules:\n"
    "  exec_mode: sync\n"
    "dag:\n"
    "  - mod: permissions\n"
    "    uuid: perm1\n"
    "    outputs: [fs1]\n"
    "  - mod: labfs\n"
    "    uuid: fs1\n"
    "    outputs: [lru1]\n"
    "  - mod: lru_cache\n"
    "    uuid: lru1\n"
    "    outputs: [sched1]\n"
    "  - mod: noop_sched\n"
    "    uuid: sched1\n"
    "    outputs: [drv1]\n"
    "  - mod: kernel_driver\n"
    "    uuid: drv1\n";

class StackTest : public ::testing::Test {
 protected:
  StackTest() {
    auto dev = devices_.Create(simdev::DeviceParams::NvmeP3700(256 << 20));
    EXPECT_TRUE(dev.ok());
    ctx_.devices = &devices_;
    ctx_.num_workers = 2;
  }

  simdev::DeviceRegistry devices_;
  ModuleRegistry registry_;
  ModContext ctx_;
  StackNamespace ns_;
  ipc::Credentials alice_{100, 1000, 1000};
};

TEST_F(StackTest, ParseFullSpec) {
  auto spec = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->mount, "fs::/a");
  EXPECT_EQ(spec->rules.exec_mode, ExecMode::kSync);
  ASSERT_EQ(spec->dag.size(), 5u);
  EXPECT_EQ(spec->dag[0].mod_name, "permissions");
  EXPECT_EQ(spec->dag[0].outputs, std::vector<std::string>{"fs1"});
}

TEST_F(StackTest, ParseRejectsMissingPieces) {
  EXPECT_FALSE(StackSpec::Parse("dag:\n  - mod: labfs\n").ok());  // no mount
  EXPECT_FALSE(StackSpec::Parse("mount: fs::/a\n").ok());         // no dag
  EXPECT_FALSE(
      StackSpec::Parse("mount: a\nrules:\n  exec_mode: warp\ndag:\n  - mod: m\n")
          .ok());  // bad exec mode
}

TEST_F(StackTest, ValidateCatchesUnknownOutput) {
  auto spec = StackSpec::Parse(
      "mount: fs::/a\n"
      "dag:\n"
      "  - mod: noop_sched\n"
      "    uuid: s\n"
      "    outputs: [ghost]\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(ns_.Validate(*spec).code(), StatusCode::kInvalidArgument);
}

TEST_F(StackTest, ValidateCatchesDuplicateUuid) {
  auto spec = StackSpec::Parse(
      "mount: fs::/a\n"
      "dag:\n"
      "  - mod: noop_sched\n"
      "    uuid: x\n"
      "  - mod: kernel_driver\n"
      "    uuid: x\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(ns_.Validate(*spec).ok());
}

TEST_F(StackTest, ValidateCatchesCycle) {
  auto spec = StackSpec::Parse(
      "mount: fs::/a\n"
      "dag:\n"
      "  - mod: noop_sched\n"
      "    uuid: a\n"
      "    outputs: [b]\n"
      "  - mod: noop_sched\n"
      "    uuid: b\n"
      "    outputs: [a]\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(ns_.Validate(*spec).ok());
}

TEST_F(StackTest, ValidateRejectsVertexUnreachableFromRoot) {
  // a -> c is a chain; b has no inputs, so it would be instantiated and
  // never run.
  auto spec = StackSpec::Parse(
      "mount: fs::/a\n"
      "dag:\n"
      "  - mod: noop_sched\n"
      "    uuid: a\n"
      "    outputs: [c]\n"
      "  - mod: kernel_driver\n"
      "    uuid: b\n"
      "  - mod: kernel_driver\n"
      "    uuid: c\n");
  ASSERT_TRUE(spec.ok());
  const Status st = ns_.Validate(*spec);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("'b'"), std::string::npos) << st.ToString();
}

TEST_F(StackTest, ValidateEnforcesMaxLength) {
  StackNamespace tiny(StackNamespace::Options{.max_stack_length = 2});
  auto spec = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(tiny.Validate(*spec).ok());
}

TEST_F(StackTest, MountBuildsAndWiresDag) {
  auto spec = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec.ok());
  auto stack = ns_.Mount(*spec, registry_, ctx_, alice_);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_GT((*stack)->id, 0u);
  ASSERT_EQ((*stack)->vertices.size(), 5u);
  EXPECT_EQ((*stack)->vertices[0].mod->mod_name(), "permissions");
  EXPECT_EQ((*stack)->vertices[0].outputs, std::vector<size_t>{1});
  EXPECT_EQ((*stack)->vertices[4].mod->mod_name(), "kernel_driver");
  EXPECT_TRUE((*stack)->vertices[4].outputs.empty());
  // Mods landed in the registry under their UUIDs.
  EXPECT_TRUE(registry_.Has("fs1"));
  EXPECT_TRUE(registry_.Has("drv1"));
}

TEST_F(StackTest, IsFusedMeansOneSyncChain) {
  const auto mount = [&](const std::string& yaml) -> Stack* {
    auto spec = StackSpec::Parse(yaml);
    EXPECT_TRUE(spec.ok());
    auto stack = ns_.Mount(*spec, registry_, ctx_, alice_);
    EXPECT_TRUE(stack.ok()) << stack.status().ToString();
    return *stack;
  };
  EXPECT_TRUE(mount(kFullStackYaml)->is_fused());
  EXPECT_FALSE(mount("mount: ctl::/async\n"
                     "dag:\n"
                     "  - mod: dummy\n"
                     "    uuid: as_a\n"
                     "    outputs: [as_b]\n"
                     "  - mod: dummy\n"
                     "    uuid: as_b\n")
                   ->is_fused());
  EXPECT_FALSE(mount("mount: ctl::/fan\n"
                     "rules:\n"
                     "  exec_mode: sync\n"
                     "dag:\n"
                     "  - mod: dummy\n"
                     "    uuid: fan_root\n"
                     "    outputs: [fan_l, fan_r]\n"
                     "  - mod: dummy\n"
                     "    uuid: fan_l\n"
                     "  - mod: dummy\n"
                     "    uuid: fan_r\n")
                   ->is_fused());
}

TEST_F(StackTest, MountRejectsIncompatibleEdge) {
  auto spec = StackSpec::Parse(
      "mount: fs::/bad\n"
      "dag:\n"
      "  - mod: kernel_driver\n"
      "    uuid: d\n"
      "    outputs: [s]\n"
      "  - mod: noop_sched\n"
      "    uuid: s\n"
      "    outputs: [d2]\n"
      "  - mod: kernel_driver\n"
      "    uuid: d2\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(ns_.Mount(*spec, registry_, ctx_, alice_).ok());
}

TEST_F(StackTest, MountRejectsNonTerminalSink) {
  auto spec = StackSpec::Parse(
      "mount: fs::/bad\n"
      "dag:\n"
      "  - mod: noop_sched\n"
      "    uuid: s\n");
  ASSERT_TRUE(spec.ok());
  auto mounted = ns_.Mount(*spec, registry_, ctx_, alice_);
  EXPECT_FALSE(mounted.ok());
}

TEST_F(StackTest, MountPointConflictRejected) {
  auto spec = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ns_.Mount(*spec, registry_, ctx_, alice_).ok());
  EXPECT_EQ(ns_.Mount(*spec, registry_, ctx_, alice_).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StackTest, SharedInstanceAcrossStacks) {
  // Two stacks referencing the same driver UUID share the instance —
  // the paper's "multiple views over the same device".
  auto spec1 = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec1.ok());
  ASSERT_TRUE(ns_.Mount(*spec1, registry_, ctx_, alice_).ok());
  auto spec2 = StackSpec::Parse(
      "mount: fs::/b\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: fs1\n"
      "    outputs: [drv1]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv1\n");
  ASSERT_TRUE(spec2.ok());
  auto stack2 = ns_.Mount(*spec2, registry_, ctx_, alice_);
  ASSERT_TRUE(stack2.ok()) << stack2.status().ToString();
  auto fs = registry_.Find("fs1");
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ((*stack2)->vertices[0].mod, *fs);
  EXPECT_EQ(registry_.InstancesOf("labfs").size(), 1u);
}

TEST_F(StackTest, ResolveLongestPrefix) {
  auto spec1 = StackSpec::Parse(kFullStackYaml);  // fs::/a
  ASSERT_TRUE(spec1.ok());
  ASSERT_TRUE(ns_.Mount(*spec1, registry_, ctx_, alice_).ok());
  auto spec2 = StackSpec::Parse(
      "mount: fs::/a/deep\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: fs2\n"
      "    outputs: [drv2]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv2\n");
  ASSERT_TRUE(spec2.ok());
  ASSERT_TRUE(ns_.Mount(*spec2, registry_, ctx_, alice_).ok());

  auto shallow = ns_.Resolve("fs::/a/file.txt");
  ASSERT_TRUE(shallow.ok());
  EXPECT_EQ((*shallow)->spec.mount, "fs::/a");
  auto deep = ns_.Resolve("fs::/a/deep/file.txt");
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ((*deep)->spec.mount, "fs::/a/deep");
  auto exact = ns_.Resolve("fs::/a/deep");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ((*exact)->spec.mount, "fs::/a/deep");
  EXPECT_FALSE(ns_.Resolve("fs::/ax").ok());  // not a path-boundary match
  EXPECT_FALSE(ns_.Resolve("other::/x").ok());
}

TEST_F(StackTest, UnmountRequiresAdmin) {
  auto spec = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ns_.Mount(*spec, registry_, ctx_, alice_).ok());
  const ipc::Credentials mallory{666, 2000, 2000};
  EXPECT_EQ(ns_.Unmount("fs::/a", mallory).code(),
            StatusCode::kPermissionDenied);
  // The mounting user is an implicit admin; root always may.
  EXPECT_TRUE(ns_.Unmount("fs::/a", alice_).ok());
  EXPECT_EQ(ns_.size(), 0u);
}

TEST_F(StackTest, ModifyReplacesDag) {
  auto spec = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ns_.Mount(*spec, registry_, ctx_, alice_).ok());
  // Remove the permissions vertex (Lab-All -> Lab-Min, live).
  auto updated = StackSpec::Parse(
      "mount: fs::/a\n"
      "rules:\n"
      "  exec_mode: sync\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: fs1\n"
      "    outputs: [lru1]\n"
      "  - mod: lru_cache\n"
      "    uuid: lru1\n"
      "    outputs: [sched1]\n"
      "  - mod: noop_sched\n"
      "    uuid: sched1\n"
      "    outputs: [drv1]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv1\n");
  ASSERT_TRUE(updated.ok());
  ASSERT_TRUE(ns_.Modify(*updated, registry_, ctx_, alice_).ok());
  auto stack = ns_.FindByMount("fs::/a");
  ASSERT_TRUE(stack.ok());
  EXPECT_EQ((*stack)->vertices.size(), 4u);
  EXPECT_EQ((*stack)->vertices[0].mod->mod_name(), "labfs");
  // Identity preserved.
  EXPECT_EQ((*stack)->id, 1u);
  // Non-admin cannot modify.
  const ipc::Credentials mallory{666, 2000, 2000};
  EXPECT_EQ(ns_.Modify(*updated, registry_, ctx_, mallory).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(StackTest, FindByIdAndMounts) {
  auto spec = StackSpec::Parse(kFullStackYaml);
  ASSERT_TRUE(spec.ok());
  auto stack = ns_.Mount(*spec, registry_, ctx_, alice_);
  ASSERT_TRUE(stack.ok());
  auto by_id = ns_.FindById((*stack)->id);
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(*by_id, *stack);
  EXPECT_FALSE(ns_.FindById(999).ok());
  EXPECT_EQ(ns_.Mounts().size(), 1u);
}

TEST(CanForwardTest, Matrix) {
  using core::CanForward;
  using core::ModType;
  EXPECT_TRUE(CanForward(ModType::kPermissions, ModType::kFilesystem));
  EXPECT_TRUE(CanForward(ModType::kFilesystem, ModType::kCache));
  EXPECT_TRUE(CanForward(ModType::kFilesystem, ModType::kDriver));
  EXPECT_TRUE(CanForward(ModType::kCache, ModType::kScheduler));
  EXPECT_TRUE(CanForward(ModType::kScheduler, ModType::kDriver));
  EXPECT_TRUE(CanForward(ModType::kTransform, ModType::kTransform));
  EXPECT_FALSE(CanForward(ModType::kDriver, ModType::kScheduler));
  EXPECT_FALSE(CanForward(ModType::kScheduler, ModType::kCache));
  EXPECT_FALSE(CanForward(ModType::kFilesystem, ModType::kFilesystem));
  EXPECT_FALSE(CanForward(ModType::kGeneric, ModType::kFilesystem));
  EXPECT_FALSE(CanForward(ModType::kPermissions, ModType::kGeneric));
}

}  // namespace
}  // namespace labstor::core
