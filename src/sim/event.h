#ifndef CCSIM_SIM_EVENT_H_
#define CCSIM_SIM_EVENT_H_

#include <coroutine>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/macros.h"
#include "util/ring_deque.h"

namespace ccsim::sim {

/// A broadcast condition: processes block on Wait() until some other process
/// calls Signal(), which wakes every process waiting at that moment.
/// Wakeups are scheduled (not inline), so Signal() is safe to call from any
/// context, including another process's step.
class Event {
 public:
  explicit Event(Simulator* simulator) : simulator_(simulator) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Awaitable: suspends until the next Signal().
  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        event->waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Wakes all processes currently waiting. Processes that call Wait() after
  /// this Signal() wait for the next one.
  ///
  /// The waiter list swaps into a member scratch buffer (not a fresh
  /// vector), so after the first broadcast the two buffers ping-pong and
  /// signal-heavy runs stop touching the allocator.
  void Signal() {
    scratch_.swap(waiters_);
    for (std::coroutine_handle<> handle : scratch_) {
      simulator_->ScheduleResumeAt(simulator_->Now(), handle);
    }
    scratch_.clear();  // keeps capacity for the next swap
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* simulator_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> scratch_;
};

/// A one-shot value slot ("future"): exactly one producer calls Set(), at
/// most one consumer awaits Wait(). If Set() ran first, Wait() completes
/// immediately. Used for RPC reply delivery.
template <typename T>
class OneShot {
 public:
  explicit OneShot(Simulator* simulator) : simulator_(simulator) {}
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  /// Delivers the value, waking the waiter if present. Fatal if called twice.
  void Set(T value) {
    CCSIM_CHECK(!value_.has_value());
    value_ = std::move(value);
    if (waiter_) {
      std::coroutine_handle<> handle = waiter_;
      waiter_ = nullptr;
      simulator_->ScheduleResumeAt(simulator_->Now(), handle);
    }
  }

  bool ready() const { return value_.has_value(); }

  /// Awaitable returning the delivered value.
  auto Wait() {
    struct Awaiter {
      OneShot* slot;
      bool await_ready() const noexcept { return slot->value_.has_value(); }
      void await_suspend(std::coroutine_handle<> handle) {
        CCSIM_CHECK(slot->waiter_ == nullptr);
        slot->waiter_ = handle;
      }
      T await_resume() {
        CCSIM_CHECK(slot->value_.has_value());
        return std::move(*slot->value_);
      }
    };
    return Awaiter{this};
  }

 private:
  Simulator* simulator_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_ = nullptr;
};

/// An unbounded FIFO message queue connecting processes. Multiple producers;
/// receivers are served in FIFO order.
///
/// Items and parked receivers live in growable rings (util::RingDeque), so
/// once a mailbox has seen its peak backlog, push/receive cycles reuse the
/// same slots and never allocate.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulator* simulator) : simulator_(simulator) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues an item, waking the oldest waiting receiver if any. The
  /// wakeup re-checks the queue when it fires: a rival receiver (or a
  /// Clear()) may have emptied it in between, in which case the woken
  /// receiver is parked again instead of resuming into an empty queue.
  void Push(T item) {
    items_.push_back(std::move(item));
    if (!receivers_.empty()) {
      std::coroutine_handle<> handle = receivers_.front();
      receivers_.pop_front();
      Mailbox* mailbox = this;
      simulator_->ScheduleAt(simulator_->Now(), [mailbox, handle] {
        mailbox->DeliverOrRequeue(handle);
      });
    }
  }

  /// Awaitable returning the next item; suspends while the queue is empty.
  ///
  /// The fast path is unchanged: when items are already queued, Receive()
  /// completes without suspending. A suspended receiver is only resumed
  /// through DeliverOrRequeue, which guarantees the queue is non-empty at
  /// resume time even with multiple concurrent receivers.
  auto Receive() {
    struct Awaiter {
      Mailbox* mailbox;
      bool await_ready() const noexcept { return !mailbox->items_.empty(); }
      bool await_suspend(std::coroutine_handle<> handle) {
        if (!mailbox->items_.empty()) {
          return false;  // raced with a Push between ready-check and suspend
        }
        mailbox->receivers_.push_back(handle);
        return true;
      }
      T await_resume() {
        CCSIM_CHECK(!mailbox->items_.empty());
        T item = std::move(mailbox->items_.front());
        mailbox->items_.pop_front();
        return item;
      }
    };
    return Awaiter{this};
  }

  /// Discards all queued items (crash modeling: messages in a dead node's
  /// queue are lost). Waiting receivers stay parked.
  void Clear() { items_.clear(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  /// Fire-time half of the Push() wakeup: resume the receiver if an item
  /// is still there, otherwise re-park it at the front of the line (it is
  /// still the oldest waiter, so FIFO service order is preserved).
  void DeliverOrRequeue(std::coroutine_handle<> handle) {
    if (items_.empty()) {
      receivers_.push_front(handle);
      return;
    }
    handle.resume();
  }

  Simulator* simulator_;
  util::RingDeque<T> items_;
  util::RingDeque<std::coroutine_handle<>> receivers_;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_EVENT_H_
