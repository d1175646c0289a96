#include "core/module_registry.h"

#include <gtest/gtest.h>

#include "common/yaml.h"
#include "core/stack_exec.h"
#include "faultinject/faultinject.h"
#include "labmods/dummy.h"
#include "labmods/lru_cache.h"

namespace labstor::core {
namespace {

// A private factory so tests don't disturb the global registry.
// (ModFactory owns a mutex, so it is populated in place.)
void PopulateFactory(ModFactory& factory) {
  EXPECT_TRUE(factory
                  .Register("dummy", 1,
                            [] { return std::make_unique<labmods::DummyMod>(); })
                  .ok());
  EXPECT_TRUE(factory
                  .Register("dummy", 2,
                            [] { return std::make_unique<labmods::DummyModV2>(); })
                  .ok());
}

TEST(ModFactoryTest, RegisterAndCreateLatest) {
  ModFactory factory;
  PopulateFactory(factory);
  EXPECT_TRUE(factory.Has("dummy"));
  EXPECT_FALSE(factory.Has("nope"));
  auto latest = factory.LatestVersion("dummy");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 2u);
  auto mod = factory.Create("dummy");
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ((*mod)->version(), 2u);
}

TEST(ModFactoryTest, CreateSpecificVersion) {
  ModFactory factory;
  PopulateFactory(factory);
  auto v1 = factory.Create("dummy", 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->version(), 1u);
  EXPECT_FALSE(factory.Create("dummy", 9).ok());
  EXPECT_FALSE(factory.Create("ghost").ok());
}

TEST(ModFactoryTest, DuplicateVersionRejected) {
  ModFactory factory;
  PopulateFactory(factory);
  EXPECT_EQ(factory
                .Register("dummy", 1,
                          [] { return std::make_unique<labmods::DummyMod>(); })
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(factory.Register("x", 0, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(ModFactoryTest, GlobalFactoryHasBuiltins) {
  // Registered by the labmods object library's static initializers.
  ModFactory& global = ModFactory::Global();
  for (const char* name : {"labfs", "labkvs", "lru_cache", "permissions",
                           "compress", "consistency", "noop_sched",
                           "blk_switch_sched", "kernel_driver", "spdk", "dax",
                           "dummy"}) {
    EXPECT_TRUE(global.Has(name)) << name;
  }
}

TEST(ModuleRegistryTest, InstantiateOnceAndReuse) {
  ModFactory factory;
  PopulateFactory(factory);
  ModuleRegistry registry(&factory);
  ModContext ctx;
  auto first = registry.Instantiate("dummy", "d1", nullptr, ctx);
  ASSERT_TRUE(first.ok());
  auto second = registry.Instantiate("dummy", "d1", nullptr, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // same instance (paper: only if absent)
  EXPECT_TRUE(registry.Has("d1"));
  EXPECT_EQ(registry.AllInstances().size(), 1u);
}

TEST(ModuleRegistryTest, UuidBoundToModName) {
  ModFactory factory;
  PopulateFactory(factory);
  ASSERT_TRUE(
      factory.Register("other", 1, [] { return std::make_unique<labmods::DummyMod>(); })
          .ok());
  ModuleRegistry registry(&factory);
  ModContext ctx;
  ASSERT_TRUE(registry.Instantiate("dummy", "d1", nullptr, ctx).ok());
  EXPECT_EQ(registry.Instantiate("other", "d1", nullptr, ctx).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(ModuleRegistryTest, FindMissing) {
  ModuleRegistry registry;
  EXPECT_EQ(registry.Find("ghost").status().code(), StatusCode::kNotFound);
}

TEST(ModuleRegistryTest, UpgradeMigratesState) {
  ModFactory factory;
  PopulateFactory(factory);
  ModuleRegistry registry(&factory);
  ModContext ctx;
  auto mod = registry.Instantiate("dummy", "d1", nullptr, ctx, /*version=*/1);
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ((*mod)->version(), 1u);
  // Pump some state into v1.
  auto* dummy = dynamic_cast<labmods::DummyMod*>(*mod);
  ASSERT_NE(dummy, nullptr);
  ipc::Request req;
  Stack stack;  // Process ignores exec for dummy
  ModContext ctx2;
  ExecTrace trace;
  StackExec exec(stack, ctx2, trace);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(dummy->Process(req, exec).ok());
  EXPECT_EQ(dummy->messages(), 5u);

  auto result = registry.UpgradeAll("dummy", 2, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->swapped, 1u);
  auto upgraded = registry.Find("d1");
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ((*upgraded)->version(), 2u);
  auto* v2 = dynamic_cast<labmods::DummyMod*>(*upgraded);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->messages(), 5u);  // state carried by StateUpdate
}

TEST(ModuleRegistryTest, DowngradeRejected) {
  ModFactory factory;
  PopulateFactory(factory);
  ModuleRegistry registry(&factory);
  ModContext ctx;
  ASSERT_TRUE(registry.Instantiate("dummy", "d1", nullptr, ctx, 1).ok());
  ASSERT_TRUE(registry.UpgradeAll("dummy", 2, ctx).ok());
  // Re-loading the same version is a legal code reload (Table I
  // upgrades the same dummy module hundreds of times).
  EXPECT_TRUE(registry.UpgradeAll("dummy", 2, ctx).ok());
  // Strict downgrades are refused, and the running version survives.
  EXPECT_EQ(registry.UpgradeAll("dummy", 1, ctx).status().code(),
            StatusCode::kFailedPrecondition);
  auto still = registry.Find("d1");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ((*still)->version(), 2u);
  EXPECT_EQ(registry.UpgradeAll("ghost", 2, ctx).status().code(),
            StatusCode::kNotFound);
}

TEST(ModuleRegistryTest, UpgradePreservesCreationParams) {
  // Regression: upgrades used to Init the fresh instance with nullptr,
  // silently resetting every operator-configured param to its default.
  // A param-sensitive mod (lru_cache, whose StateUpdate deliberately
  // migrates only mutable state) catches it: post-upgrade capacity
  // must still be the mounted 8 pages, not the 4096 default.
  ModFactory factory;
  ASSERT_TRUE(factory
                  .Register("lru_cache", 1,
                            [] { return std::make_unique<labmods::LruCacheMod>(1); })
                  .ok());
  ASSERT_TRUE(factory
                  .Register("lru_cache", 2,
                            [] { return std::make_unique<labmods::LruCacheMod>(2); })
                  .ok());
  ModuleRegistry registry(&factory);
  ModContext ctx;
  auto params = yaml::Parse("capacity_pages: 8");
  ASSERT_TRUE(params.ok());
  auto mod = registry.Instantiate("lru_cache", "c1", *params, ctx, 1);
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ(dynamic_cast<labmods::LruCacheMod*>(*mod)->capacity_pages(), 8u);

  ASSERT_TRUE(registry.UpgradeAll("lru_cache", 2, ctx).ok());
  auto upgraded = registry.Find("c1");
  ASSERT_TRUE(upgraded.ok());
  auto* cache = dynamic_cast<labmods::LruCacheMod*>(*upgraded);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->version(), 2u);
  EXPECT_EQ(cache->capacity_pages(), 8u)
      << "upgrade dropped the creation params";

  // The registry keeps the params for the upgrade after this one.
  auto stored = registry.ParamsOf("c1");
  ASSERT_TRUE(stored.ok());
  ASSERT_NE(*stored, nullptr);
  EXPECT_EQ((*stored)->GetUint("capacity_pages", 0), 8u);
  EXPECT_EQ(registry.ParamsOf("ghost").status().code(), StatusCode::kNotFound);
}

TEST(ModuleRegistryTest, UpgradeAllIsAllOrNothing) {
  ModFactory factory;
  PopulateFactory(factory);
  ModuleRegistry registry(&factory);
  ModContext ctx;
  for (const char* uuid : {"f1", "f2", "f3"}) {
    ASSERT_TRUE(registry.Instantiate("dummy", uuid, nullptr, ctx, 1).ok());
  }
  // Pump distinguishable state into each v1 instance.
  ipc::Request req;
  Stack stack;
  ModContext exec_ctx;
  ExecTrace trace;
  StackExec exec(stack, exec_ctx, trace);
  int pumps = 1;
  for (const char* uuid : {"f1", "f2", "f3"}) {
    auto mod = registry.Find(uuid);
    ASSERT_TRUE(mod.ok());
    for (int i = 0; i < pumps; ++i) {
      ASSERT_TRUE((*mod)->Process(req, exec).ok());
    }
    ++pumps;
  }

  // Fail staging of the SECOND of three instances (staged in sorted
  // uuid order). Regression: the old per-instance loop had already
  // swapped f1 to v2 when f2 failed — a mixed-version registry.
  faultinject::FaultInjector fi;
  faultinject::FaultPolicy policy;
  policy.trigger = faultinject::FaultPolicy::Trigger::kEveryN;
  policy.every_n = 2;
  policy.max_fires = 1;
  policy.message = "injected staging failure";
  fi.Arm("core.upgrade.stage", policy);
  {
    faultinject::ScopedInstall install(fi);
    auto result = registry.UpgradeAll("dummy", 2, ctx);
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(fi.fires("core.upgrade.stage"), 1u);
  pumps = 1;
  for (const char* uuid : {"f1", "f2", "f3"}) {
    auto mod = registry.Find(uuid);
    ASSERT_TRUE(mod.ok());
    EXPECT_EQ((*mod)->version(), 1u) << uuid << " swapped despite the failure";
    EXPECT_EQ(dynamic_cast<labmods::DummyMod*>(*mod)->messages(),
              static_cast<uint64_t>(pumps))
        << uuid << " lost state in the failed upgrade";
    ++pumps;
  }

  // Clean retry swaps all three atomically, state intact.
  auto result = registry.UpgradeAll("dummy", 2, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->swapped, 3u);
  EXPECT_EQ(result->noops, 0u);
  pumps = 1;
  for (const char* uuid : {"f1", "f2", "f3"}) {
    auto mod = registry.Find(uuid);
    ASSERT_TRUE(mod.ok());
    EXPECT_EQ((*mod)->version(), 2u);
    EXPECT_EQ(dynamic_cast<labmods::DummyMod*>(*mod)->messages(),
              static_cast<uint64_t>(pumps));
    ++pumps;
  }
  EXPECT_EQ(registry.UpgradeAll("ghost", 2, ctx).status().code(),
            StatusCode::kNotFound);
}

TEST(ModuleRegistryTest, SameVersionUpgradeIsNoop) {
  ModFactory factory;
  PopulateFactory(factory);
  ModuleRegistry registry(&factory);
  ModContext ctx;
  auto mod = registry.Instantiate("dummy", "d1", nullptr, ctx, 2);
  ASSERT_TRUE(mod.ok());

  auto all = registry.UpgradeAll("dummy", 2, ctx);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->swapped, 0u);
  EXPECT_EQ(all->noops, 1u);
  // No Create/Init/StateUpdate churn: the very same instance survives.
  auto after = registry.Find("d1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *mod);
}

TEST(ModuleRegistryTest, InstancesOfFiltersByName) {
  ModFactory factory;
  PopulateFactory(factory);
  ModuleRegistry registry(&factory);
  ModContext ctx;
  ASSERT_TRUE(registry.Instantiate("dummy", "b", nullptr, ctx).ok());
  ASSERT_TRUE(registry.Instantiate("dummy", "a", nullptr, ctx).ok());
  // Listings come back in sorted UUID order, whatever the insert order.
  EXPECT_EQ(registry.InstancesOf("dummy"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(registry.InstancesOf("ghost").empty());
}

}  // namespace
}  // namespace labstor::core
