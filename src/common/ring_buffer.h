// The bounded lock-free ring used as the submission transport inside
// Queue Pairs.
//
// MpmcRing: bounded multi-producer/multi-consumer ring (Vyukov-style
// sequence counters). Clients push requests one at a time; any worker
// the orchestrator assigns the queue to may drain it, one request or
// a batch at a time.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <vector>

namespace labstor {

// Fixed 64 rather than std::hardware_destructive_interference_size:
// the latter is ABI-unstable across compiler versions/tuning flags.
inline constexpr size_t kCacheLineSize = 64;

template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(size_t capacity_pow2) : mask_(capacity_pow2 - 1), slots_(capacity_pow2) {
    assert(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0 &&
           "capacity must be a power of two");
    for (size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  bool TryPush(T value) {
    size_t pos = head_.load(std::memory_order_relaxed);
    while (true) {
      Slot& slot = slots_[pos & mask_];
      const size_t seq = slot.sequence.load(std::memory_order_acquire);
      const intptr_t diff = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  std::optional<T> TryPop() {
    size_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      Slot& slot = slots_[pos & mask_];
      const size_t seq = slot.sequence.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          T value = std::move(slot.value);
          slot.sequence.store(pos + mask_ + 1, std::memory_order_release);
          return value;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Pop up to `max` values into `out`; returns how many were taken.
  // A consumer claims the whole run of ready slots with ONE tail CAS:
  // slots it claims cannot be touched by producers (a filled slot's
  // sequence only advances when its consumer releases it), so the
  // values stay valid between the readiness scan and the copy-out.
  size_t TryPopBatch(T* out, size_t max) {
    if (max == 0) return 0;
    while (true) {
      size_t pos = tail_.load(std::memory_order_relaxed);
      size_t n = 0;
      while (n < max) {
        const Slot& slot = slots_[(pos + n) & mask_];
        const size_t seq = slot.sequence.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) -
                static_cast<intptr_t>(pos + n + 1) != 0) {
          break;  // not (yet) filled for this position — run ends here
        }
        ++n;
      }
      if (n == 0) {
        const Slot& slot = slots_[pos & mask_];
        const size_t seq = slot.sequence.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0) {
          return 0;  // empty
        }
        continue;  // lost the race to another consumer; re-read tail
      }
      if (tail_.compare_exchange_weak(pos, pos + n,
                                      std::memory_order_relaxed)) {
        for (size_t i = 0; i < n; ++i) {
          Slot& slot = slots_[(pos + i) & mask_];
          out[i] = std::move(slot.value);
          slot.sequence.store(pos + i + mask_ + 1, std::memory_order_release);
        }
        return n;
      }
    }
  }

  size_t SizeApprox() const {
    // Load tail before head: head only grows, so a later head load can
    // never be behind the earlier tail load. The reverse order let a
    // concurrent pop land between the loads and underflow the unsigned
    // subtraction into a near-SIZE_MAX "size". Clamp as a backstop.
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }
  bool EmptyApprox() const { return SizeApprox() == 0; }
  size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<size_t> sequence{0};
    T value{};
  };

  const size_t mask_;
  std::vector<Slot> slots_;
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
};

}  // namespace labstor
