// Ablation — IPC primitives (real wall-clock, google-benchmark).
//
// The paper's performance story rests on shared-memory queue pairs
// being much cheaper than kernel crossings. This bench measures the
// real cost of the repo's rings and queue pairs on this host:
// single-threaded round trips, cross-thread round trips, and the
// effect of queue depth.
#include <benchmark/benchmark.h>

#include <thread>

#include "common/ring_buffer.h"
#include "ipc/queue_pair.h"

namespace labstor {
namespace {

void BM_MpmcRoundTrip(benchmark::State& state) {
  MpmcRing<uint64_t> ring(1024);
  uint64_t value = 0;
  for (auto _ : state) {
    ring.TryPush(value++);
    benchmark::DoNotOptimize(ring.TryPop());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MpmcRoundTrip);

void BM_QueuePairSubmitComplete(benchmark::State& state) {
  ipc::QueuePair qp(1, 1024, ipc::Credentials{1, 0, 0});
  ipc::Request req;
  for (auto _ : state) {
    qp.Submit(&req);
    auto polled = qp.PollSubmission();
    benchmark::DoNotOptimize(polled);
    (*polled)->Complete(StatusCode::kOk);
    benchmark::DoNotOptimize(req.IsDone());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueuePairSubmitComplete);

// Cross-thread ping-pong: one "client" and one polling "worker" — the
// real-mode latency floor of the LabStor async path on this machine.
void BM_QueuePairCrossThread(benchmark::State& state) {
  ipc::QueuePair qp(1, 1024, ipc::Credentials{1, 0, 0});
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto polled = qp.PollSubmission();
      if (polled.has_value()) (*polled)->Complete(StatusCode::kOk);
    }
  });
  ipc::Request req;
  for (auto _ : state) {
    req.state.store(ipc::RequestState::kPending, std::memory_order_release);
    while (!qp.Submit(&req)) {
    }
    while (!req.IsDone()) {
    }
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueuePairCrossThread)->UseRealTime();

void BM_MpmcContended(benchmark::State& state) {
  // Depth sweep: how queue capacity affects contended throughput.
  const size_t depth = static_cast<size_t>(state.range(0));
  MpmcRing<uint64_t> ring(depth);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) ring.TryPush(static_cast<uint64_t>(i));
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(ring.TryPop());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MpmcContended)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace labstor

BENCHMARK_MAIN();
