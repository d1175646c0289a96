#include "common/ring_buffer.h"

#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <numeric>
#include <thread>
#include <vector>

namespace labstor {
namespace {

TEST(MpmcRingTest, PushPopSingleThread) {
  MpmcRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));
  for (int i = 0; i < 8; ++i) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(MpmcRingTest, SizeApprox) {
  MpmcRing<int> ring(16);
  EXPECT_TRUE(ring.EmptyApprox());
  for (int i = 0; i < 5; ++i) ring.TryPush(i);
  EXPECT_EQ(ring.SizeApprox(), 5u);
  ring.TryPop();
  EXPECT_EQ(ring.SizeApprox(), 4u);
}

TEST(MpmcRingTest, ConcurrentProducersConsumers) {
  MpmcRing<uint64_t> ring(256);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr uint64_t kPerProducer = 50000;
  std::atomic<uint64_t> total_popped{0};
  std::atomic<uint64_t> sum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!ring.TryPush(value)) {
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (total_popped.load() < kProducers * kPerProducer) {
        auto v = ring.TryPop();
        if (!v.has_value()) continue;
        sum.fetch_add(*v);
        total_popped.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(total_popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// Wraparound stress on the smallest legal ring: a capacity-2 ring
// cycles its indices every two operations, so >2^16 ops exercise the
// wrap path continuously. A third thread hammers
// SizeApprox — the regression here is the head-before-tail load order
// that let a concurrent pop underflow the unsigned subtraction into a
// near-SIZE_MAX "size".
TEST(MpmcRingTest, CapacityTwoWraparoundStressWithSizeSampler) {
  MpmcRing<uint64_t> ring(2);
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 1u << 16;
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<bool> done{false};
  std::atomic<bool> size_sane{true};

  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (ring.SizeApprox() > kTotal) {  // underflow reads as ~2^64
        size_sane.store(false, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!ring.TryPush(value)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (popped.load() < kTotal) {
        auto v = ring.TryPop();
        if (!v.has_value()) {
          std::this_thread::yield();
          continue;
        }
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_TRUE(size_sane.load()) << "SizeApprox underflowed during pops";
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

TEST(MpmcRingTest, PopBatchDrainsFifoWithPartialRuns) {
  MpmcRing<uint64_t> ring(8);
  for (uint64_t i = 0; i < 6; ++i) ASSERT_TRUE(ring.TryPush(i));
  uint64_t out[8] = {};
  ASSERT_EQ(ring.TryPopBatch(out, 4), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  ASSERT_EQ(ring.TryPopBatch(out, 8), 2u);
  EXPECT_EQ(out[0], 4u);
  EXPECT_EQ(out[1], 5u);
  EXPECT_EQ(ring.TryPopBatch(out, 8), 0u);
}

TEST(MpmcRingTest, BatchRoundTripAcrossWrap) {
  MpmcRing<uint64_t> ring(4);
  uint64_t out[4] = {};
  uint64_t next = 0;
  for (int round = 0; round < 6; ++round) {
    for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(ring.TryPush(next + i));
    ASSERT_EQ(ring.TryPopBatch(out, 4), 3u);
    for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], next + i);
    next += 3;
  }
}

TEST(MpmcRingTest, ConcurrentBatchProducersConsumers) {
  MpmcRing<uint64_t> ring(64);
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 50000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const uint64_t first = static_cast<uint64_t>(p) * kPerProducer;
      for (uint64_t v = first; v < first + kPerProducer; ++v) {
        while (!ring.TryPush(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      uint64_t out[8];
      while (popped.load() < kTotal) {
        const size_t n = ring.TryPopBatch(out, 8);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        uint64_t local = 0;
        for (size_t i = 0; i < n; ++i) local += out[i];
        sum.fetch_add(local);
        popped.fetch_add(n);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}


// ---------------------------------------------------------------------------
// Property-based randomized batch tests (DESIGN.md §8): random
// interleavings of push, pop and batch pop checked step-by-step against
// a std::deque reference model. Seeded and replayable — a failure's
// SCOPED_TRACE names the seed; re-run it alone with
// LABSTOR_RING_SEED=<seed>.
// ---------------------------------------------------------------------------

namespace {

std::vector<uint64_t> PropertySeeds() {
  if (const char* env = std::getenv("LABSTOR_RING_SEED"); env != nullptr) {
    return {std::strtoull(env, nullptr, 0)};
  }
  return {0x4C414253, 1, 0xDEADBEEF, 77};
}

}  // namespace

TEST(MpmcRingPropertyTest, RandomBatchOpsMatchDequeModel) {
  for (const uint64_t seed : PropertySeeds()) {
    SCOPED_TRACE("LABSTOR_RING_SEED=" + std::to_string(seed));
    Rng rng(seed);
    MpmcRing<uint64_t> ring(64);
    std::deque<uint64_t> model;
    uint64_t next_value = 0;

    for (int step = 0; step < 20000; ++step) {
      const uint64_t roll = rng.Range(0, 99);
      if (roll < 55) {
        const bool pushed = ring.TryPush(next_value);
        EXPECT_EQ(pushed, model.size() < ring.capacity());
        if (pushed) model.push_back(next_value++);
      } else if (roll < 80) {
        const auto v = ring.TryPop();
        EXPECT_EQ(v.has_value(), !model.empty());
        if (v.has_value()) {
          ASSERT_FALSE(model.empty());
          EXPECT_EQ(*v, model.front());
          model.pop_front();
        }
      } else {
        uint64_t out[16];
        const size_t max = rng.Range(1, 16);
        const size_t n = ring.TryPopBatch(out, max);
        ASSERT_EQ(n, std::min<size_t>(max, model.size()));
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], model.front());
          model.pop_front();
        }
      }
    }
    uint64_t out[16];
    while (!model.empty()) {
      const size_t n = ring.TryPopBatch(out, 16);
      ASSERT_GT(n, 0u);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], model.front());
        model.pop_front();
      }
    }
    EXPECT_FALSE(ring.TryPop().has_value());
  }
}

}  // namespace
}  // namespace labstor
