#ifndef CCSIM_SIM_TASK_H_
#define CCSIM_SIM_TASK_H_

#include <coroutine>
#include <utility>

#include "sim/frame_pool.h"
#include "util/macros.h"

namespace ccsim::sim {

/// A lazy, value-returning coroutine awaited by simulation processes.
///
/// `Task<T>` lets model layers compose asynchronous operations naturally:
/// a `Process` (or another Task) writes `T v = co_await SomeTask(...)`.
/// The child starts when awaited (symmetric transfer), and when it
/// completes, control transfers back to the awaiting coroutine.
///
/// Ownership: the Task object owns the child frame and destroys it when the
/// Task goes out of scope in the parent frame. Because the parent frame
/// transitively owns children, destroying a root Process at
/// `Simulator::Shutdown()` reclaims the whole await chain.
///
/// Frames come from the recycling FramePool (see frame_pool.h).
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      std::coroutine_handle<> continuation = h.promise().continuation;
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type : PooledFrame {
    T value{};
    std::coroutine_handle<> continuation;

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() noexcept { CCSIM_UNREACHABLE(); }
  };

  Task(Task&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  /// Awaitable interface: starts the child and resumes the awaiter with the
  /// child's return value when it completes.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;  // symmetric transfer: start the child now
  }
  T await_resume() {
    CCSIM_DCHECK(handle_.done());
    return std::move(handle_.promise().value);
  }

 private:
  explicit Task(Handle handle) : handle_(handle) {}
  Handle handle_;
};

/// Task specialization for void-returning asynchronous operations.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      std::coroutine_handle<> continuation = h.promise().continuation;
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type : PooledFrame {
    std::coroutine_handle<> continuation;

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { CCSIM_UNREACHABLE(); }
  };

  Task(Task&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() const noexcept { CCSIM_DCHECK(handle_.done()); }

 private:
  explicit Task(Handle handle) : handle_(handle) {}
  Handle handle_;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_TASK_H_
