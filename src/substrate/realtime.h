#ifndef CCSIM_SUBSTRATE_REALTIME_H_
#define CCSIM_SUBSTRATE_REALTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "net/message.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsim::substrate {

/// Owner of a file descriptor in a RealtimeSubstrate's epoll set.
class IoHandler {
 public:
  virtual ~IoHandler() = default;
  /// Runs on the loop thread when the descriptor is ready; `events` is the
  /// epoll mask (EPOLLIN, EPOLLOUT, EPOLLERR, EPOLLHUP, ...).
  virtual void OnReady(std::uint32_t events) = 0;
};

/// Drives an (unmodified) sim::Simulator against the wall clock: one tick
/// is one steady-clock microsecond. The protocol, client, server, and
/// storage code keep running as coroutine processes on a single event-loop
/// thread — exactly the calendar they run on under the DES substrate — but
/// every timer now elapses in real time, and messages arrive from real
/// sockets instead of the simulated medium.
///
/// The loop is a reactor: it owns one epoll set holding every socket of
/// its node (listener, connections) plus an eventfd, and it is the only
/// thread that reads or writes those sockets. Each pass waits in
/// epoll_pwait2 with a microsecond timeout set to the next calendar time,
/// dispatches ready descriptors to their IoHandlers (which decode inbound
/// frames straight into pooled messages and Inject() them), fires every
/// calendar event due by the wall clock, and runs the flush hook.
///
/// Threading contract: the simulator and everything built on it (clients,
/// server, protocol state), the handlers and the transports are touched
/// ONLY by the thread inside Run() — or by one thread while no Run() is
/// active. Other threads (signal watchers, tests) reach the loop only
/// through PostControl() and Stop(), which wake it through the eventfd.
class RealtimeSubstrate {
 public:
  explicit RealtimeSubstrate(sim::Simulator* sim);
  ~RealtimeSubstrate();
  RealtimeSubstrate(const RealtimeSubstrate&) = delete;
  RealtimeSubstrate& operator=(const RealtimeSubstrate&) = delete;

  /// Routes injected messages into the model (typically a Mailbox::Push on
  /// the destination's inbox). Runs on the loop thread.
  void set_message_sink(std::function<void(net::MessagePtr)> sink) {
    sink_ = std::move(sink);
  }

  /// Invoked on the loop thread after each calendar step; a transport
  /// flushes its batched outbound buffers here. Returns true when every
  /// buffered byte reached the kernel — false keeps the loop on a short
  /// retry cadence instead of a long wait.
  void set_flush_hook(std::function<bool()> hook) {
    flush_hook_ = std::move(hook);
  }

  /// Loop thread: hands one decoded inbound message to the sink.
  void Inject(net::MessagePtr msg) { sink_(std::move(msg)); }

  /// Adds `fd` to the epoll set with interest `events` (level-triggered);
  /// `handler` must outlive the watch. Returns the watch id Modify() and
  /// Unwatch() take. Loop thread (or no Run() active).
  int Watch(int fd, std::uint32_t events, IoHandler* handler);
  /// Changes the interest set of a watched descriptor.
  void Modify(int watch, int fd, std::uint32_t events);
  /// Removes the descriptor; events already collected for it in the
  /// current pass are discarded, so the handler may be destroyed as soon
  /// as its own OnReady returns. Call before closing `fd`.
  void Unwatch(int watch, int fd);

  /// Wall-clock ticks since Run() started.
  sim::Ticks WallTicks() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Thread-safe: enqueues an arbitrary thunk to run on the loop thread.
  void PostControl(std::function<void()> fn);

  /// Thread-safe: makes Run() return after the current pass.
  void Stop();

  /// Runs the event loop until `horizon` wall ticks elapse, Stop() is
  /// called, or the model requests a stop (sim::Simulator::RequestStop, as
  /// fired by the commit-target hook). Returns the number of calendar
  /// events processed. The simulated clock tracks the wall clock: between
  /// calendar entries the loop blocks in epoll until the earlier of the
  /// next fire time and the next ready descriptor.
  std::uint64_t Run(sim::Ticks horizon);

  sim::Simulator& sim() { return *sim_; }

  /// Loop statistics of the last Run() (read after it returns), counted
  /// from its start or from the last ResetLoopStats(): epoll waits that
  /// offered to block (non-zero timeout), and the loop thread's CPU time
  /// over wall time (0 before any Run()).
  std::uint64_t blocking_waits() const { return blocking_waits_; }
  double loop_busy() const {
    return loop_wall_seconds_ > 0 ? loop_cpu_seconds_ / loop_wall_seconds_
                                  : 0.0;
  }
  /// Restarts the loop statistics (loop thread; a measurement window
  /// opening).
  void ResetLoopStats();

 private:
  /// One epoll_pwait2 of at most `timeout` ticks, then dispatch.
  void PollIo(sim::Ticks timeout);
  /// Drains the mutex-guarded PostControl queue.
  void DrainControl();

  struct Slot {
    IoHandler* handler = nullptr;
    std::uint32_t generation = 0;
  };

  sim::Simulator* sim_;
  std::function<void(net::MessagePtr)> sink_;
  std::function<bool()> flush_hook_;
  std::chrono::steady_clock::time_point epoch_{};

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: PostControl / Stop
  /// Watched descriptors by watch id; the epoll cookie carries the id and
  /// its generation, so a stale event for a recycled id is ignored.
  std::vector<Slot> slots_;
  std::vector<int> free_slots_;

  std::mutex mu_;
  std::vector<std::function<void()>> control_;
  std::atomic<bool> stop_{false};

  std::uint64_t blocking_waits_ = 0;
  double cpu_base_ = 0;
  std::chrono::steady_clock::time_point wall_base_{};
  double loop_cpu_seconds_ = 0;
  double loop_wall_seconds_ = 0;
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_REALTIME_H_
