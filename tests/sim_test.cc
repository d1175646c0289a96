#include "sim/environment.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/cost_model.h"
#include "sim/task.h"

namespace labstor::sim {
namespace {

TEST(SimTest, TimeStartsAtZero) {
  Environment env;
  EXPECT_EQ(env.now(), 0u);
  EXPECT_EQ(env.Run(), 0u);
}

Task<void> DelayProcess(Environment& env, Time d, std::vector<Time>* log) {
  co_await env.Delay(d);
  log->push_back(env.now());
}

TEST(SimTest, DelayAdvancesVirtualTime) {
  Environment env;
  std::vector<Time> log;
  env.Spawn(DelayProcess(env, 100, &log));
  env.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 100u);
  EXPECT_EQ(env.now(), 100u);
}

TEST(SimTest, ProcessesInterleaveByTime) {
  Environment env;
  std::vector<Time> log;
  env.Spawn(DelayProcess(env, 300, &log));
  env.Spawn(DelayProcess(env, 100, &log));
  env.Spawn(DelayProcess(env, 200, &log));
  env.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 100u);
  EXPECT_EQ(log[1], 200u);
  EXPECT_EQ(log[2], 300u);
}

Task<void> TickProcess(Environment& env, int id, std::vector<int>* order) {
  co_await env.Delay(10);
  order->push_back(id);
}

TEST(SimTest, EqualTimesRunFifo) {
  Environment env;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) env.Spawn(TickProcess(env, i, &order));
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

Task<int> Compute(Environment& env, int x) {
  co_await env.Delay(50);
  co_return x * 2;
}

Task<void> AwaitChild(Environment& env, int* out) {
  *out = co_await Compute(env, 21);
}

TEST(SimTest, AwaitingSubtaskPropagatesValueAndTime) {
  Environment env;
  int out = 0;
  env.Spawn(AwaitChild(env, &out));
  env.Run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(env.now(), 50u);
}

Task<void> Thrower(Environment& env) {
  co_await env.Delay(1);
  throw std::runtime_error("sim process failed");
}

TEST(SimTest, RootExceptionPropagatesToRun) {
  Environment env;
  env.Spawn(Thrower(env));
  EXPECT_THROW(env.Run(), std::runtime_error);
}

Task<int> ChildThrower(Environment& env) {
  co_await env.Delay(1);
  throw std::runtime_error("child failed");
}

Task<void> CatchingParent(Environment& env, bool* caught) {
  try {
    (void)co_await ChildThrower(env);
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(SimTest, ChildExceptionCatchableInParent) {
  Environment env;
  bool caught = false;
  env.Spawn(CatchingParent(env, &caught));
  env.Run();
  EXPECT_TRUE(caught);
}

TEST(SimTest, RunUntilStopsAtDeadline) {
  Environment env;
  std::vector<Time> log;
  env.Spawn(DelayProcess(env, 100, &log));
  env.Spawn(DelayProcess(env, 5000, &log));
  env.RunUntil(1000);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(env.now(), 100u);
  // Remaining process still runs if we continue.
  env.Run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(env.now(), 5000u);
}

Task<void> EventWaiter(Environment& env, Event& ev, std::vector<Time>* log) {
  co_await ev.Wait();
  log->push_back(env.now());
}

Task<void> EventTriggerer(Environment& env, Event& ev) {
  co_await env.Delay(500);
  ev.Trigger();
}

TEST(SimTest, EventWakesAllWaitersAtTriggerTime) {
  Environment env;
  Event ev(env);
  std::vector<Time> log;
  env.Spawn(EventWaiter(env, ev, &log));
  env.Spawn(EventWaiter(env, ev, &log));
  env.Spawn(EventTriggerer(env, ev));
  env.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 500u);
  EXPECT_EQ(log[1], 500u);
}

Task<void> ResourceUser(Environment& env, Resource& res, Time hold,
                        std::vector<std::pair<Time, Time>>* spans) {
  co_await res.Acquire();
  const Time start = env.now();
  co_await env.Delay(hold);
  res.Release();
  spans->emplace_back(start, env.now());
}

TEST(SimTest, UnitResourceSerializesFifo) {
  Environment env;
  Resource res(env, 1);
  std::vector<std::pair<Time, Time>> spans;
  for (int i = 0; i < 3; ++i) env.Spawn(ResourceUser(env, res, 100, &spans));
  env.Run();
  ASSERT_EQ(spans.size(), 3u);
  // Strictly serialized: [0,100], [100,200], [200,300].
  EXPECT_EQ(spans[0], (std::pair<Time, Time>{0, 100}));
  EXPECT_EQ(spans[1], (std::pair<Time, Time>{100, 200}));
  EXPECT_EQ(spans[2], (std::pair<Time, Time>{200, 300}));
  EXPECT_EQ(res.free(), 1u);
}

TEST(SimTest, MultiTokenResourceAllowsParallelism) {
  Environment env;
  Resource res(env, 2);
  std::vector<std::pair<Time, Time>> spans;
  for (int i = 0; i < 4; ++i) env.Spawn(ResourceUser(env, res, 100, &spans));
  env.Run();
  ASSERT_EQ(spans.size(), 4u);
  // Two run [0,100], two run [100,200]: makespan 200, not 400.
  EXPECT_EQ(env.now(), 200u);
  EXPECT_EQ(res.free(), 2u);
}

Task<void> GuardUser(Environment& env, Resource& res, std::vector<Time>* log) {
  co_await res.Acquire();
  {
    ResourceGuard guard(res);
    co_await env.Delay(10);
    log->push_back(env.now());
  }  // release here
  co_await env.Delay(1000);
}

TEST(SimTest, ResourceGuardReleasesAtScopeExit) {
  Environment env;
  Resource res(env, 1);
  std::vector<Time> log;
  env.Spawn(GuardUser(env, res, &log));
  env.Spawn(GuardUser(env, res, &log));
  env.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 10u);
  EXPECT_EQ(log[1], 20u);  // second acquires as soon as guard released
}

Task<void> BarrierWorker(Environment& env, Barrier& barrier, Time work) {
  co_await env.Delay(work);
  barrier.Arrive();
}

Task<void> BarrierJoiner(Environment& env, Barrier& barrier, Time* joined_at) {
  co_await barrier.Join();
  *joined_at = env.now();
}

TEST(SimTest, BarrierJoinWaitsForAllArrivals) {
  Environment env;
  Barrier barrier(env, 3);
  Time joined_at = 0;
  env.Spawn(BarrierJoiner(env, barrier, &joined_at));
  env.Spawn(BarrierWorker(env, barrier, 10));
  env.Spawn(BarrierWorker(env, barrier, 500));
  env.Spawn(BarrierWorker(env, barrier, 200));
  env.Run();
  EXPECT_EQ(joined_at, 500u);
  EXPECT_EQ(barrier.arrived(), 3u);
}

TEST(SimTest, BarrierJoinAfterAllArrivedReturnsImmediately) {
  Environment env;
  Barrier barrier(env, 1);
  barrier.Arrive();
  Time joined_at = 1234;
  env.Spawn(BarrierJoiner(env, barrier, &joined_at));
  env.Run();
  EXPECT_EQ(joined_at, 0u);
}

Task<void> YieldingProcess(Environment& env, int id, std::vector<int>* order) {
  order->push_back(id);
  co_await env.Yield();
  order->push_back(id + 100);
}

TEST(SimTest, YieldRunsBehindAlreadyQueuedEvents) {
  Environment env;
  std::vector<int> order;
  env.Spawn(YieldingProcess(env, 1, &order));
  env.Spawn(YieldingProcess(env, 2, &order));
  env.Run();
  // Both first halves run before either second half.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 101, 102}));
}

TEST(SimTest, UnfinishedRootsDestroyedSafely) {
  std::vector<Time> log;
  {
    Environment env;
    env.Spawn(DelayProcess(env, 1000000, &log));
    env.RunUntil(10);
    // env destructor must clean up the suspended coroutine.
  }
  EXPECT_TRUE(log.empty());
}

Task<int> Echo(Environment& env, int v) {
  co_await env.Delay(1);
  co_return v;
}

Task<void> SumEchoes(Environment& env, int n, int* sum) {
  for (int i = 0; i < n; ++i) *sum += co_await Echo(env, i);
}

// Frames are cached per thread, by whichever thread frees them. Two
// threads each run an Environment at once, and the second destroys a
// Task the first created, caches its frame and reuses it.
TEST(FramePoolTest, EnvironmentsOnTwoThreadsAndACrossThreadDestroy) {
  std::mutex mu;
  std::condition_variable cv;
  Task<int> handoff;  // guarded by mu until `ready`
  bool ready = false;
  int sums[3] = {0, 0, 0};
  std::thread first([&] {
    Environment env;
    Task<int> unstarted = Echo(env, 1);
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff = std::move(unstarted);
      ready = true;
    }
    cv.notify_one();
    env.Spawn(SumEchoes(env, 1000, &sums[0]));
    env.Run();
  });
  std::thread second([&] {
    Environment env;
    env.Spawn(SumEchoes(env, 1000, &sums[1]));
    env.Run();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return ready; });
      Task<int> taken = std::move(handoff);
    }
    env.Spawn(SumEchoes(env, 1000, &sums[2]));
    env.Run();
  });
  first.join();
  second.join();
  EXPECT_EQ(sums[0], 499500);
  EXPECT_EQ(sums[1], 499500);
  EXPECT_EQ(sums[2], 499500);
  EXPECT_FALSE(handoff.valid());
}

TEST(CostModelTest, CopyCostScalesLinearly) {
  const SoftwareCosts& costs = DefaultCosts();
  EXPECT_EQ(costs.CopyCost(0), 0u);
  EXPECT_EQ(costs.CopyCost(4096), static_cast<Time>(4096 * 0.15));
  EXPECT_GT(costs.CopyCost(1 << 20), costs.CopyCost(1 << 10));
}

TEST(CostModelTest, CompressSlowerThanCopy) {
  const SoftwareCosts& costs = DefaultCosts();
  EXPECT_GT(costs.CompressCost(1 << 20), costs.CopyCost(1 << 20));
}

TEST(CostModelTest, LabStorPathCheaperThanKernelPath) {
  // The structural claim behind Fig. 6: one shared-memory round trip
  // costs less than syscall + block layer + IRQ completion.
  const SoftwareCosts& c = DefaultCosts();
  const Time labstor = c.shm_submit + c.worker_poll + c.request_alloc +
                       c.driver_submit + c.shm_complete;
  const Time kernel = c.syscall + c.block_layer + c.bio_alloc + c.dma_map +
                      c.driver_submit + c.irq_completion;
  EXPECT_LT(labstor, kernel);
}

}  // namespace
}  // namespace labstor::sim
