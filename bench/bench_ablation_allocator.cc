// Ablation — per-worker block allocator vs a single-lock allocator.
//
// DESIGN.md calls out LabFS's per-worker allocator (with stealing) as
// a contention-avoidance design choice; this measures what it buys
// over the obvious global-mutex alternative under multithreaded
// alloc/free churn. Each thread keeps between kMinHeld and kMaxHeld
// extents, so a longer run measures the same free-map state and not a
// growing one.
#include <benchmark/benchmark.h>

#include <memory>
#include <mutex>

#include "common/rng.h"
#include "labmods/block_allocator.h"

namespace labstor::labmods {
namespace {

// The strawman: one mutex around one free-range map.
class GlobalLockAllocator {
 public:
  GlobalLockAllocator(uint64_t first, uint64_t total)
      : inner_({BlockExtent{first, total}}, 1) {}

  Result<std::vector<BlockExtent>> Alloc(uint64_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.Alloc(0, count);
  }
  void Free(BlockExtent extent) {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.Free(0, extent);
  }

 private:
  std::mutex mu_;
  PerWorkerAllocator inner_;
};

constexpr uint64_t kBlocks = 1 << 20;
constexpr size_t kMinHeld = 64;
constexpr size_t kMaxHeld = 128;

// One alloc-or-free step of thread-local churn: below kMinHeld always
// allocate, at kMaxHeld always free, in between toss a coin.
template <typename AllocFn, typename FreeFn>
void Churn(benchmark::State& state, AllocFn alloc, FreeFn free) {
  Rng rng(static_cast<uint64_t>(state.thread_index()) + 1);
  std::vector<BlockExtent> held;
  for (auto _ : state) {
    const bool grow = held.size() < kMinHeld ||
                      (held.size() < kMaxHeld && rng.Bernoulli(0.5));
    if (grow) {
      auto extents = alloc(rng.Range(1, 8));
      if (extents.ok()) {
        for (const BlockExtent& e : *extents) held.push_back(e);
      }
    } else {
      free(held.back());
      held.pop_back();
    }
  }
  if (state.thread_index() == 0) {
    state.SetItemsProcessed(state.iterations() * state.threads());
  }
  // The allocator outlives every thread of this run (it is replaced
  // when the next run starts), so nothing needs handing back here.
}

void BM_PerWorkerAllocator(benchmark::State& state) {
  static std::unique_ptr<PerWorkerAllocator> alloc;
  if (state.thread_index() == 0) {
    alloc = std::make_unique<PerWorkerAllocator>(
        0, kBlocks, static_cast<uint32_t>(state.threads()));
  }
  const auto worker = static_cast<uint32_t>(state.thread_index());
  Churn(
      state, [&](uint64_t n) { return alloc->Alloc(worker, n); },
      [&](BlockExtent e) { alloc->Free(worker, e); });
}
BENCHMARK(BM_PerWorkerAllocator)->Threads(1)->Threads(2)->Threads(4);

void BM_GlobalLockAllocator(benchmark::State& state) {
  static std::unique_ptr<GlobalLockAllocator> alloc;
  if (state.thread_index() == 0) {
    alloc = std::make_unique<GlobalLockAllocator>(0, kBlocks);
  }
  Churn(
      state, [&](uint64_t n) { return alloc->Alloc(n); },
      [&](BlockExtent e) { alloc->Free(e); });
}
BENCHMARK(BM_GlobalLockAllocator)->Threads(1)->Threads(2)->Threads(4);

}  // namespace
}  // namespace labstor::labmods

BENCHMARK_MAIN();
