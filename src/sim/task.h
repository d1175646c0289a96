// Coroutine task type for the discrete-event simulator.
//
// sim::Task<T> is a lazily-started coroutine. Awaiting a Task runs it
// to completion (in virtual time) and yields its value; spawning it on
// an Environment runs it concurrently with other processes. Final
// suspension uses symmetric transfer to resume the awaiting coroutine
// without growing the stack.
//
// Frames come from a per-thread cache (task.cc) instead of straight
// from the heap: a DES makes and destroys a frame for almost every
// call it awaits, and once warm the cache turns each of those
// malloc/free pairs into a pop and a push. ~Environment hands the
// thread's cached frames back to the heap.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace labstor::sim {

template <typename T>
class Task;

namespace internal {

// A frame of `size` bytes from the calling thread's cache, or from the
// heap when the cache holds none of its size class.
void* AllocateFrame(std::size_t size);
// Caches the frame on the calling thread, whichever thread allocated it.
void FreeFrame(void* frame, std::size_t size) noexcept;
// Returns every frame cached on the calling thread to the heap.
void ReleaseCachedFrames() noexcept;

template <typename T>
struct TaskPromiseBase {
  static void* operator new(std::size_t size) { return AllocateFrame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FreeFrame(frame, size);
  }

  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      std::coroutine_handle<> cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::TaskPromiseBase<T> {
    T value{};
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  // Awaiting starts the task and suspends until it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;  // symmetric transfer: start the child
      }
      T await_resume() {
        if (handle.promise().error) {
          std::rethrow_exception(handle.promise().error);
        }
        return std::move(handle.promise().value);
      }
    };
    return Awaiter{handle_};
  }

  // Used by Environment::Spawn.
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }
  std::coroutine_handle<promise_type> handle() const { return handle_; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::TaskPromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      void await_resume() {
        if (handle.promise().error) {
          std::rethrow_exception(handle.promise().error);
        }
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }
  std::coroutine_handle<promise_type> handle() const { return handle_; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace labstor::sim
