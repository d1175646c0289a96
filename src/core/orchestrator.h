// Work Orchestrator (paper §III-C4): a modular userspace scheduling
// framework deciding which worker drains which request queues, and how
// many workers exist at all.
//
// Policies consume plain queue-load descriptors and emit an
// assignment, so the identical policy objects drive the real Runtime's
// rebalance thread and the DES benches (Fig. 5a/5b).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/environment.h"

namespace labstor::core {

struct QueueLoad {
  uint32_t qid = 0;
  // Max expected per-request software processing time among mods
  // reachable from this queue (EstProcessingTime).
  sim::Time est_processing_ns = 0;
  // Requests currently waiting.
  uint64_t backlog = 0;
};

struct Assignment {
  // assignment[w] = queue ids drained by worker w. Workers beyond
  // size() are decommissioned.
  std::vector<std::vector<uint32_t>> worker_queues;
  // Workers marked latency-dedicated get pinned cores (no sharing
  // with application threads).
  std::vector<bool> latency_dedicated;

  size_t num_workers() const { return worker_queues.size(); }
};

class WorkOrchestrator {
 public:
  virtual ~WorkOrchestrator() = default;
  virtual std::string_view name() const = 0;
  // `max_workers` bounds the pool; policies may use fewer.
  virtual Assignment Rebalance(const std::vector<QueueLoad>& queues,
                               size_t max_workers) = 0;
};

// Spreads queues evenly across all `max_workers` workers in queue-id
// order, ignoring load (the baseline the paper compares against).
class RoundRobinOrchestrator final : public WorkOrchestrator {
 public:
  std::string_view name() const override { return "round_robin"; }
  Assignment Rebalance(const std::vector<QueueLoad>& queues,
                       size_t max_workers) override;
};

// A fixed-size variant of round-robin used for the "1 worker" / "8
// workers" baselines of Fig. 5(a).
class FixedOrchestrator final : public WorkOrchestrator {
 public:
  explicit FixedOrchestrator(size_t workers) : workers_(workers) {}
  std::string_view name() const override { return "fixed"; }
  Assignment Rebalance(const std::vector<QueueLoad>& queues,
                       size_t max_workers) override;

 private:
  size_t workers_;
};

// The paper's dynamic policy:
//   1. classify queues into latency-sensitive (LQ) and computational
//      (CQ) by est processing time and backlog;
//   2. place LQs and CQs on disjoint worker subsets;
//   3. solve a min-workers balanced-partition ("modified knapsack"):
//      pick the fewest workers whose LPT makespan stays within
//      `loss_threshold` of the best achievable makespan.
class DynamicOrchestrator final : public WorkOrchestrator {
 public:
  struct Options {
    // Queues whose est processing time exceeds this are computational.
    sim::Time lq_threshold_ns = 100 * sim::kUs;
    // Acceptable slowdown over the max-worker makespan (e.g. 0.10 =
    // 10% performance loss allowed to save cores).
    double loss_threshold = 0.10;
    // A worker that can drain its whole assignment within one
    // orchestration epoch is not a bottleneck, regardless of relative
    // makespan — this is what lets light queues consolidate onto few
    // cores (the CPU savings of Fig. 5a). When queue backlogs report
    // per-epoch arrivals, this is also the planning horizon of the
    // capacity floor below.
    sim::Time epoch_budget_ns = 1 * sim::kMs;
    // Workers are kept below this utilization: the pool never shrinks
    // under ceil(total_work / (epoch * target_utilization)) workers.
    double target_utilization = 0.8;
  };

  DynamicOrchestrator() : DynamicOrchestrator(Options()) {}
  // Degenerate options (zero epoch budget, utilization outside (0, 1],
  // negative loss) are replaced by the defaults: a zero capacity
  // denominator previously produced an infinite worker floor whose
  // size_t cast was UB and whose value skipped consolidation entirely.
  explicit DynamicOrchestrator(Options options)
      : options_(Sanitize(options)) {}

  std::string_view name() const override { return "dynamic"; }
  Assignment Rebalance(const std::vector<QueueLoad>& queues,
                       size_t max_workers) override;

 private:
  static Options Sanitize(Options options);

  Options options_;
};

// Shared helper: longest-processing-time bin packing of queue loads
// onto `k` workers. Returns per-worker queue lists and the makespan.
struct PackResult {
  std::vector<std::vector<uint32_t>> bins;
  uint64_t makespan = 0;
};
PackResult PackLpt(const std::vector<QueueLoad>& queues, size_t k);

}  // namespace labstor::core
