#include "sim/environment.h"

#include <cassert>

namespace labstor::sim {

Environment::~Environment() {
  // Destroy any unfinished root coroutines (e.g. RunUntil stopped
  // early). Handles for finished roots are destroyed here too.
  for (const auto h : roots_) {
    if (h) h.destroy();
  }
  // The frames this run cached would otherwise stay with the thread
  // until it exits.
  internal::ReleaseCachedFrames();
}

void Environment::Spawn(Task<void> task) {
  const auto h = task.release();
  assert(h && "cannot spawn an empty task");
  roots_.push_back(h);
  ScheduleAt(now_, h);
}

void Environment::ScheduleAt(Time when, std::coroutine_handle<> h) {
  assert(when >= now_ && "cannot schedule into the past");
  queue_.push(ScheduledEvent{when, next_seq_++, h});
}

Time Environment::Run() { return RunUntil(~Time{0}); }

Time Environment::RunUntil(Time deadline) {
  while (StepOne(deadline)) {
  }
  ReapFinishedRoots();
  return now_;
}

bool Environment::StepOne(Time deadline) {
  if (queue_.empty()) return false;
  const ScheduledEvent ev = queue_.top();
  if (ev.when > deadline) return false;
  queue_.pop();
  now_ = ev.when;
  ev.handle.resume();
  return true;
}

void Environment::ReapFinishedRoots() {
  std::exception_ptr first_error;
  size_t kept = 0;
  for (const auto h : roots_) {
    if (h.done()) {
      if (h.promise().error && !first_error) {
        first_error = h.promise().error;
      }
      h.destroy();
    } else {
      roots_[kept++] = h;
    }
  }
  roots_.resize(kept);
  // Surface errors from root processes: a crashed simulation must not
  // silently report partial results.
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace labstor::sim
