#include "core/orchestrator.h"

#include <algorithm>
#include <cmath>
#include <cassert>
#include <queue>
#include <utility>

namespace labstor::core {

namespace {

// Weight of a queue for balancing: expected time to drain its backlog
// (at least one request's worth, so idle queues still cost something
// to poll).
uint64_t QueueWeight(const QueueLoad& q) {
  const uint64_t backlog = std::max<uint64_t>(q.backlog, 1);
  return q.est_processing_ns * backlog;
}

}  // namespace

PackResult PackLpt(const std::vector<QueueLoad>& queues, size_t k) {
  PackResult result;
  if (k == 0) return result;
  result.bins.resize(k);
  std::vector<uint64_t> load(k, 0);
  // Longest processing time first.
  std::vector<const QueueLoad*> sorted;
  sorted.reserve(queues.size());
  for (const QueueLoad& q : queues) sorted.push_back(&q);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const QueueLoad* a, const QueueLoad* b) {
                     return QueueWeight(*a) > QueueWeight(*b);
                   });
  // Min-heap over (load, bin): each placement is O(log k) instead of
  // the O(k) min_element scan — with hundreds of workers the linear
  // scan made one pack quadratic in the pool size. Ties break toward
  // the lowest bin index (the order min_element picked), so results
  // are unchanged.
  using Slot = std::pair<uint64_t, size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> heap;
  for (size_t b = 0; b < k; ++b) heap.emplace(0, b);
  for (const QueueLoad* q : sorted) {
    auto [bin_load, bin] = heap.top();
    heap.pop();
    result.bins[bin].push_back(q->qid);
    load[bin] = bin_load + QueueWeight(*q);
    heap.emplace(load[bin], bin);
  }
  result.makespan = *std::max_element(load.begin(), load.end());
  return result;
}

Assignment RoundRobinOrchestrator::Rebalance(
    const std::vector<QueueLoad>& queues, size_t max_workers) {
  Assignment assignment;
  if (max_workers == 0 || queues.empty()) return assignment;
  assignment.worker_queues.resize(max_workers);
  assignment.latency_dedicated.assign(max_workers, false);
  for (size_t i = 0; i < queues.size(); ++i) {
    assignment.worker_queues[i % max_workers].push_back(queues[i].qid);
  }
  return assignment;
}

Assignment FixedOrchestrator::Rebalance(const std::vector<QueueLoad>& queues,
                                        size_t max_workers) {
  RoundRobinOrchestrator rr;
  return rr.Rebalance(queues, std::min(workers_, max_workers));
}

DynamicOrchestrator::Options DynamicOrchestrator::Sanitize(Options options) {
  const Options defaults;
  if (options.epoch_budget_ns == 0) {
    options.epoch_budget_ns = defaults.epoch_budget_ns;
  }
  // NaN fails both comparisons' complements, so !(x > 0) catches it.
  if (!(options.target_utilization > 0.0) ||
      options.target_utilization > 1.0) {
    options.target_utilization = defaults.target_utilization;
  }
  if (!(options.loss_threshold >= 0.0)) {
    options.loss_threshold = defaults.loss_threshold;
  }
  if (options.lq_threshold_ns == 0) {
    options.lq_threshold_ns = defaults.lq_threshold_ns;
  }
  return options;
}

Assignment DynamicOrchestrator::Rebalance(const std::vector<QueueLoad>& queues,
                                          size_t max_workers) {
  Assignment assignment;
  if (max_workers == 0 || queues.empty()) return assignment;

  // 1. Classification.
  std::vector<QueueLoad> lqs;
  std::vector<QueueLoad> cqs;
  for (const QueueLoad& q : queues) {
    if (q.est_processing_ns <= options_.lq_threshold_ns) {
      lqs.push_back(q);
    } else {
      cqs.push_back(q);
    }
  }

  // 2./3. Choose the fewest workers per class whose makespan stays
  // within (1 + loss_threshold) of the best achievable (all workers).
  const auto pick = [&](const std::vector<QueueLoad>& group,
                        size_t budget) -> PackResult {
    if (group.empty() || budget == 0) return PackResult{};
    const PackResult best = PackLpt(group, budget);
    // Capacity floor: enough workers that sustained arrivals fit in
    // the epoch at the target utilization (fewer workers would build
    // unbounded backlog no matter how the queues are packed).
    uint64_t total_work = 0;
    for (const QueueLoad& q : group) {
      total_work += q.est_processing_ns * std::max<uint64_t>(q.backlog, 1);
    }
    const double capacity_per_worker =
        static_cast<double>(options_.epoch_budget_ns) *
        options_.target_utilization;
    // Clamp the floor into [1, budget] while still a double: a
    // non-finite or over-budget quotient cast straight to size_t is
    // undefined and used to either commission every worker or, via
    // wraparound, demand zero.
    double floor_d = std::ceil(static_cast<double>(total_work) /
                               capacity_per_worker);
    if (!std::isfinite(floor_d) || floor_d < 1.0) floor_d = 1.0;
    const size_t k_floor = floor_d >= static_cast<double>(budget)
                               ? budget
                               : static_cast<size_t>(floor_d);
    // Acceptable makespan: within the loss threshold of the best
    // achievable, or small enough to drain inside one epoch anyway.
    const double acceptable = std::max(
        static_cast<double>(best.makespan) * (1.0 + options_.loss_threshold),
        capacity_per_worker);
    const auto fits = [&](size_t k) -> bool {
      return static_cast<double>(PackLpt(group, k).makespan) <= acceptable;
    };
    // Find the smallest acceptable k in [k_floor, budget]. LPT
    // makespans are (near-)monotone in k, so gallop up from the floor
    // and binary-search the last doubling interval: O(log budget)
    // packs instead of the old linear scan, which at 256 workers ran
    // hundreds of packs per class per epoch and serialized the
    // orchestrator loop. k == budget always fits (acceptable ≥
    // best.makespan by construction), so the search is well-defined.
    size_t lo = k_floor;  // candidate; everything below lo - 1 rejected
    if (!fits(lo)) {
      size_t step = 1;
      size_t bad = lo;  // highest k known not to fit
      while (true) {
        const size_t probe = bad + step >= budget ? budget : bad + step;
        if (probe == budget || fits(probe)) {
          // Binary search in (bad, probe].
          size_t hi = probe;
          while (bad + 1 < hi) {
            const size_t mid = bad + (hi - bad) / 2;
            if (fits(mid)) {
              hi = mid;
            } else {
              bad = mid;
            }
          }
          lo = hi;
          break;
        }
        bad = probe;
        step *= 2;
      }
    }
    return lo >= budget ? best : PackLpt(group, lo);
  };

  // With one worker and both classes present no separation is
  // possible: everything shares the worker.
  if (max_workers == 1 && !lqs.empty() && !cqs.empty()) {
    assignment.worker_queues.emplace_back();
    assignment.latency_dedicated.push_back(false);
    for (const QueueLoad& q : queues) {
      assignment.worker_queues[0].push_back(q.qid);
    }
    return assignment;
  }
  // LQs get priority on the worker budget (they are why the policy
  // exists) but must leave at least one worker for the CQs; the CQs
  // take exactly what remains, so the total never exceeds the budget.
  const size_t lq_budget = cqs.empty() ? max_workers : max_workers - 1;
  PackResult lq_pack = pick(lqs, lq_budget);
  size_t lq_used = 0;
  for (const auto& bin : lq_pack.bins) lq_used += bin.empty() ? 0 : 1;
  const size_t cq_budget = cqs.empty() ? 0 : max_workers - lq_used;
  PackResult cq_pack = pick(cqs, cq_budget);

  for (std::vector<uint32_t>& bin : lq_pack.bins) {
    if (bin.empty()) continue;
    assignment.worker_queues.push_back(std::move(bin));
    assignment.latency_dedicated.push_back(true);
  }
  for (std::vector<uint32_t>& bin : cq_pack.bins) {
    if (bin.empty()) continue;
    assignment.worker_queues.push_back(std::move(bin));
    assignment.latency_dedicated.push_back(false);
  }
  // Degenerate case: all bins empty (no queues had weight) — fall back
  // to one worker holding everything.
  if (assignment.worker_queues.empty()) {
    assignment.worker_queues.emplace_back();
    assignment.latency_dedicated.push_back(false);
    for (const QueueLoad& q : queues) {
      assignment.worker_queues[0].push_back(q.qid);
    }
  }
  return assignment;
}

}  // namespace labstor::core
