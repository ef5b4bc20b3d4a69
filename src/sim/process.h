#ifndef CCSIM_SIM_PROCESS_H_
#define CCSIM_SIM_PROCESS_H_

#include <coroutine>

#include "sim/frame_pool.h"

namespace ccsim::sim {

class Simulator;

/// Return type of simulation-process coroutines.
///
/// A simulation process is a C++20 coroutine returning `Process`. Processes
/// are spawned with `Simulator::Spawn(SomeCoroutine(...))`, which schedules
/// the first resumption at the current simulated time. Inside a process,
/// `co_await` on kernel awaitables (Simulator::Delay, Resource::Use,
/// Event::Wait, Mailbox::Receive) suspends the process until the simulated
/// condition occurs.
///
/// Lifetime: the coroutine frame is owned by the simulator once spawned. A
/// frame self-destroys when the coroutine runs to completion; frames still
/// suspended when `Simulator::Shutdown()` runs (e.g., infinite client loops)
/// are destroyed there. Because shutdown destroys frames while other model
/// objects are still alive, process-local destructors must not touch shared
/// simulation state — keep process locals plain data.
///
/// Frames come from the recycling FramePool, and the promise doubles as
/// the node of the simulator's intrusive live-process list, so spawning
/// and finishing a process touch no allocator in steady state.
class Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type : PooledFrame {
    Simulator* simulator = nullptr;
    // Links in Simulator's live-process list (set by Spawn).
    promise_type* prev_live = nullptr;
    promise_type* next_live = nullptr;

    Process get_return_object() {
      return Process(Handle::from_promise(*this));
    }
    // Suspend at the start: Spawn() decides when the first step runs.
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Do not suspend at the end: the frame self-destroys after completion.
    // Unregistration from the simulator happens in ~promise_type, which
    // covers both self-destruction and explicit destroy() at shutdown.
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept;  // fatal: simulation state is broken
    ~promise_type();
  };

  explicit Process(Handle handle) : handle_(handle) {}

  Handle handle() const { return handle_; }

 private:
  Handle handle_;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_PROCESS_H_
