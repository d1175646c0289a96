#include "sim/task.h"

#include <new>

// Under AddressSanitizer frames pass straight to the heap. Its
// quarantine keeps a freed frame unallocatable for a long while, so a
// stale coroutine handle that resumes or destroys it is reported. A
// cached frame goes to the very next coroutine of its size class, so
// poisoning it would catch only a use that comes before that reuse;
// after it, the stale handle would reach a live, unrelated frame
// without a report.
#if defined(__SANITIZE_ADDRESS__)
#define LABSTOR_CACHE_FRAMES 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LABSTOR_CACHE_FRAMES 0
#endif
#endif
#ifndef LABSTOR_CACHE_FRAMES
#define LABSTOR_CACHE_FRAMES 1
#endif

namespace labstor::sim::internal {
namespace {

// glibc's malloc carves chunks in 16-byte steps, each behind an 8-byte
// size word, so a request of 16 * k - 8 bytes fills a chunk of 16 * k
// bytes exactly. Size classes take the same steps: a cached frame
// occupies the chunk malloc would have given a request of its own size,
// and caching costs no memory beyond the frames themselves.
constexpr std::size_t kChunkStep = 16;
constexpr std::size_t kChunkHeader = 8;
// Frames of up to ClassBytes(kClasses - 1) = 4072 bytes are cached;
// larger ones pass through.
constexpr std::size_t kClasses = 256;

constexpr std::size_t ClassOf(std::size_t size) {
  return (size + kChunkHeader + kChunkStep - 1) / kChunkStep;
}
constexpr std::size_t ClassBytes(std::size_t cls) {
  return cls * kChunkStep - kChunkHeader;
}

struct CachedFrame {
  CachedFrame* next;
};

// Trivially destructible, so it stays usable while other thread_local
// and static objects are destroyed at exit; a Task one of them owns
// frees its frame then.
struct FrameCache {
  CachedFrame* free[kClasses];
  bool reaper_armed;
  bool exiting;
};
thread_local FrameCache tls_cache;

// Releases the exiting thread's cached frames. Armed by the first frame
// a thread caches, which may be one another thread allocated.
struct Reaper {
  ~Reaper() {
    ReleaseCachedFrames();
    tls_cache.exiting = true;
  }
  void Arm() {}
};
thread_local Reaper tls_reaper;

}  // namespace

void* AllocateFrame(std::size_t size) {
  const std::size_t cls = ClassOf(size);
  if (!LABSTOR_CACHE_FRAMES || cls >= kClasses) return ::operator new(size);
  FrameCache& cache = tls_cache;
  if (CachedFrame* frame = cache.free[cls]; frame != nullptr) {
    cache.free[cls] = frame->next;
    return frame;
  }
  return ::operator new(ClassBytes(cls));
}

void FreeFrame(void* frame, std::size_t size) noexcept {
  const std::size_t cls = ClassOf(size);
  FrameCache& cache = tls_cache;
  if (!LABSTOR_CACHE_FRAMES || cls >= kClasses || cache.exiting) {
    ::operator delete(frame);
    return;
  }
  if (!cache.reaper_armed) {
    cache.reaper_armed = true;
    tls_reaper.Arm();
  }
  cache.free[cls] = ::new (frame) CachedFrame{cache.free[cls]};
}

void ReleaseCachedFrames() noexcept {
  for (CachedFrame*& head : tls_cache.free) {
    while (head != nullptr) {
      CachedFrame* const next = head->next;
      ::operator delete(head);
      head = next;
    }
  }
}

}  // namespace labstor::sim::internal
