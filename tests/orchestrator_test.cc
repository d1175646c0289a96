#include "core/orchestrator.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

namespace labstor::core {
namespace {

std::vector<QueueLoad> MakeUniform(size_t n, sim::Time est, uint64_t backlog) {
  std::vector<QueueLoad> queues;
  for (size_t i = 0; i < n; ++i) {
    queues.push_back(QueueLoad{static_cast<uint32_t>(i + 1), est, backlog});
  }
  return queues;
}

size_t TotalAssigned(const Assignment& a) {
  size_t total = 0;
  for (const auto& queues : a.worker_queues) total += queues.size();
  return total;
}

TEST(PackLptTest, BalancesUniformLoads) {
  const auto queues = MakeUniform(8, 1000, 1);
  const PackResult pack = PackLpt(queues, 4);
  ASSERT_EQ(pack.bins.size(), 4u);
  for (const auto& bin : pack.bins) EXPECT_EQ(bin.size(), 2u);
  EXPECT_EQ(pack.makespan, 2000u);
}

TEST(PackLptTest, HeavyQueueIsolated) {
  std::vector<QueueLoad> queues = MakeUniform(4, 1000, 1);
  queues.push_back(QueueLoad{99, 1'000'000, 1});
  const PackResult pack = PackLpt(queues, 2);
  // The heavy queue lands alone-ish: makespan ~= heavy weight.
  EXPECT_EQ(pack.makespan, 1'000'000u);
}

TEST(PackLptTest, ZeroWorkers) {
  const PackResult pack = PackLpt(MakeUniform(3, 10, 1), 0);
  EXPECT_TRUE(pack.bins.empty());
}

TEST(RoundRobinTest, SpreadsAcrossAllWorkers) {
  RoundRobinOrchestrator rr;
  const Assignment a = rr.Rebalance(MakeUniform(10, 1000, 1), 4);
  ASSERT_EQ(a.num_workers(), 4u);
  EXPECT_EQ(TotalAssigned(a), 10u);
  // 10 queues over 4 workers: sizes 3,3,2,2.
  EXPECT_EQ(a.worker_queues[0].size(), 3u);
  EXPECT_EQ(a.worker_queues[3].size(), 2u);
  for (const bool dedicated : a.latency_dedicated) EXPECT_FALSE(dedicated);
}

TEST(RoundRobinTest, IgnoresLoad) {
  RoundRobinOrchestrator rr;
  std::vector<QueueLoad> queues = MakeUniform(4, 1000, 1);
  queues[0].est_processing_ns = 1'000'000'000;  // one enormous queue
  const Assignment a = rr.Rebalance(queues, 2);
  // Still 2-2 by order, load notwithstanding.
  EXPECT_EQ(a.worker_queues[0].size(), 2u);
  EXPECT_EQ(a.worker_queues[1].size(), 2u);
}

TEST(FixedTest, UsesExactlyConfiguredWorkers) {
  FixedOrchestrator fixed(1);
  const Assignment a = fixed.Rebalance(MakeUniform(6, 1000, 1), 8);
  ASSERT_EQ(a.num_workers(), 1u);
  EXPECT_EQ(a.worker_queues[0].size(), 6u);
}

TEST(DynamicTest, LightLoadUsesFewWorkers) {
  DynamicOrchestrator dynamic;
  // 2 idle-ish latency queues: one worker suffices within threshold.
  const Assignment a = dynamic.Rebalance(MakeUniform(2, 3000, 1), 8);
  EXPECT_EQ(TotalAssigned(a), 2u);
  EXPECT_LE(a.num_workers(), 2u);
}

TEST(DynamicTest, HeavyLoadScalesUp) {
  DynamicOrchestrator dynamic;
  // 8 queues with deep backlogs need parallel draining.
  const Assignment a = dynamic.Rebalance(MakeUniform(8, 50'000, 1000), 8);
  EXPECT_GT(a.num_workers(), 4u);
  EXPECT_EQ(TotalAssigned(a), 8u);
}

TEST(DynamicTest, SeparatesLatencyFromComputeQueues) {
  DynamicOrchestrator dynamic;
  std::vector<QueueLoad> queues;
  // 4 latency queues (3µs) and 4 compute queues (20ms).
  for (uint32_t i = 1; i <= 4; ++i) {
    queues.push_back(QueueLoad{i, 3 * sim::kUs, 10});
  }
  for (uint32_t i = 5; i <= 8; ++i) {
    queues.push_back(QueueLoad{i, 20 * sim::kMs, 10});
  }
  const Assignment a = dynamic.Rebalance(queues, 8);
  // No worker may hold both an LQ and a CQ.
  for (size_t w = 0; w < a.num_workers(); ++w) {
    bool has_lq = false, has_cq = false;
    for (const uint32_t qid : a.worker_queues[w]) {
      (qid <= 4 ? has_lq : has_cq) = true;
    }
    EXPECT_FALSE(has_lq && has_cq) << "worker " << w << " mixes classes";
    if (has_lq) {
      EXPECT_TRUE(a.latency_dedicated[w]);
    }
    if (has_cq) {
      EXPECT_FALSE(a.latency_dedicated[w]);
    }
  }
  EXPECT_EQ(TotalAssigned(a), 8u);
}

TEST(DynamicTest, AllQueuesAssignedEvenWhenBudgetTight) {
  DynamicOrchestrator dynamic;
  std::vector<QueueLoad> queues;
  for (uint32_t i = 1; i <= 6; ++i) {
    queues.push_back(QueueLoad{i, 3 * sim::kUs, 1});
  }
  for (uint32_t i = 7; i <= 12; ++i) {
    queues.push_back(QueueLoad{i, 20 * sim::kMs, 100});
  }
  const Assignment a = dynamic.Rebalance(queues, 2);
  EXPECT_EQ(TotalAssigned(a), 12u);
  EXPECT_LE(a.num_workers(), 4u);
}

TEST(DynamicTest, EmptyInputs) {
  DynamicOrchestrator dynamic;
  EXPECT_EQ(dynamic.Rebalance({}, 4).num_workers(), 0u);
  EXPECT_EQ(dynamic.Rebalance(MakeUniform(3, 10, 1), 0).num_workers(), 0u);
}

TEST(DynamicTest, DegenerateEpochBudgetFallsBackToDefaults) {
  // Regression: a zero epoch budget made the capacity floor
  // total_work / 0 = inf, whose size_t cast is undefined — observed as
  // either "commission every worker" (the consolidation loop skipped
  // entirely) or a zero-worker demand. Sanitize must restore the
  // default budget so light queues still consolidate.
  DynamicOrchestrator::Options opts;
  opts.epoch_budget_ns = 0;
  DynamicOrchestrator dynamic(opts);
  const auto queues = MakeUniform(8, 1000, 1);
  const Assignment a = dynamic.Rebalance(queues, 8);
  EXPECT_EQ(TotalAssigned(a), 8u);
  // 8us of total work fits one worker's epoch with room to spare.
  EXPECT_EQ(a.num_workers(), 1u);
}

TEST(DynamicTest, DegenerateUtilizationFallsBackToDefaults) {
  for (const double utilization :
       {0.0, -1.0, 7.5, std::numeric_limits<double>::quiet_NaN()}) {
    DynamicOrchestrator::Options opts;
    opts.target_utilization = utilization;
    DynamicOrchestrator dynamic(opts);
    const auto queues = MakeUniform(8, 1000, 1);
    const Assignment a = dynamic.Rebalance(queues, 8);
    EXPECT_EQ(TotalAssigned(a), 8u) << "utilization=" << utilization;
    EXPECT_EQ(a.num_workers(), 1u) << "utilization=" << utilization;
  }
}

TEST(DynamicTest, CapacityFloorNeverOvershootsBudget) {
  // Enormous sustained work: the floor wants thousands of workers but
  // must clamp to the budget, and every queue stays assigned.
  DynamicOrchestrator dynamic;
  std::vector<QueueLoad> queues;
  for (uint32_t i = 1; i <= 64; ++i) {
    queues.push_back(QueueLoad{i, 50 * sim::kMs, 1000});
  }
  const Assignment a = dynamic.Rebalance(queues, 16);
  EXPECT_EQ(TotalAssigned(a), 64u);
  EXPECT_LE(a.num_workers(), 16u);
  EXPECT_GE(a.num_workers(), 15u);  // saturated: nearly all commissioned
}

TEST(DynamicTest, FewerWorkersThanRoundRobinOnLightLoad) {
  // The Fig. 5(a) claim: dynamic matches performance with fewer cores.
  DynamicOrchestrator dynamic;
  RoundRobinOrchestrator rr;
  const auto queues = MakeUniform(4, 3000, 1);
  const Assignment d = dynamic.Rebalance(queues, 8);
  const Assignment r = rr.Rebalance(queues, 8);
  size_t d_active = 0, r_active = 0;
  for (const auto& q : d.worker_queues) d_active += q.empty() ? 0 : 1;
  for (const auto& q : r.worker_queues) r_active += q.empty() ? 0 : 1;
  EXPECT_LT(d_active, r_active);
}

}  // namespace
}  // namespace labstor::core
