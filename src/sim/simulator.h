#ifndef CCSIM_SIM_SIMULATOR_H_
#define CCSIM_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/process.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::sim {

/// The discrete-event simulation kernel: a simulated clock, an event
/// calendar, and a registry of live process coroutines.
///
/// Usage:
/// ```
///   Simulator sim;
///   sim.Spawn(MyProcess(sim, ...));
///   sim.Run(SecondsToTicks(100));
///   ...collect statistics...
///   sim.Shutdown();  // destroy still-suspended processes
/// ```
///
/// Determinism: events at equal times fire in scheduling order, so runs
/// with the same seed are bit-reproducible. The calendar realizes the
/// (when, arrival) total order structurally — see below — so the fire
/// sequence is independent of its internal layout.
///
/// Performance model: the calendar is a two-level calendar queue. Level
/// one is an index-based 4-ary min-heap with one 24-byte entry per
/// *distinct* pending time, ordered by (when, bucket creation order).
/// Level two is a pool of per-time FIFO buckets holding the event
/// payloads in push order. Equal-time events — every `Delay(1)` tick and
/// every wakeup scheduled at `Now()` by Event/Mailbox/Resource — cost an
/// O(1) append on push and a sequential read on pop, with no heap sift at
/// all; the heap only works when the *set of distinct times* changes, and
/// payloads never move during sifts. A small direct-mapped memo maps
/// recently used times to their buckets so clustered pushes skip the heap
/// entirely. Buckets and the heap vector are recycled, so the hot path is
/// allocation-free once they reach the run's high-water mark.
///
/// The dominant payload kind stores a raw coroutine handle (every
/// `Delay`/`ScheduleResumeAt`); closure payloads store trivially copyable
/// captures in a 32-byte inline buffer. Neither kind heap-allocates.
/// Closures that are too big (or not trivially copyable) fall back to a
/// heap allocation — rare by construction, and still correct.
///
/// Live processes form an intrusive doubly linked list threaded through
/// their promises (newest at the head), so Spawn and process completion
/// are O(1) pointer updates with no registry allocation.
class Simulator {
 public:
  /// Closure captures up to this size (trivially copyable) are stored
  /// inline in the calendar entry; larger ones take the heap fallback.
  static constexpr std::size_t kInlineClosureBytes = 32;

  Simulator() {
    times_.reserve(64);
    buckets_.reserve(64);
    free_buckets_.reserve(64);
  }
  ~Simulator() { Shutdown(); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Ticks Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= Now()).
  template <typename F>
  void ScheduleAt(Ticks when, F&& fn) {
    using Fn = std::decay_t<F>;
    CCSIM_DCHECK(when >= now_);
    EntryPayload payload;
    if constexpr (sizeof(Fn) <= kInlineClosureBytes &&
                  std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      ::new (static_cast<void*>(payload.storage.inline_bytes))
          Fn(std::forward<F>(fn));
      payload.invoke = [](EntryPayload& p) {
        (*std::launder(reinterpret_cast<Fn*>(p.storage.inline_bytes)))();
      };
      payload.drop = nullptr;
    } else {
      payload.storage.ptr = new Fn(std::forward<F>(fn));
      payload.invoke = [](EntryPayload& p) {
        Fn* fn_ptr = static_cast<Fn*>(p.storage.ptr);
        (*fn_ptr)();
        delete fn_ptr;
      };
      payload.drop = [](EntryPayload& p) {
        delete static_cast<Fn*>(p.storage.ptr);
      };
    }
    Push(when, payload);
  }

  /// Schedules `fn` to run `delay` ticks from now.
  template <typename F>
  void ScheduleAfter(Ticks delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules resumption of a suspended coroutine at absolute time `when`.
  /// The fast path: no closure, no allocation — the handle is the payload.
  void ScheduleResumeAt(Ticks when, std::coroutine_handle<> handle) {
    CCSIM_DCHECK(when >= now_);
    EntryPayload payload;
    payload.invoke = nullptr;
    payload.drop = nullptr;
    payload.storage.ptr = handle.address();
    Push(when, payload);
  }

  /// Spawns a simulation process; its first step runs at the current time
  /// (after already-scheduled events at this time).
  void Spawn(Process process);

  /// Awaitable that suspends the calling process for `delay` ticks.
  /// `Delay(0)` still suspends and requeues (a cooperative yield).
  auto Delay(Ticks delay) {
    struct Awaiter {
      Simulator* simulator;
      Ticks delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        simulator->ScheduleResumeAt(simulator->now_ + delay, handle);
      }
      void await_resume() const noexcept {}
    };
    CCSIM_DCHECK(delay >= 0);
    return Awaiter{this, delay};
  }

  /// Runs the event loop until the calendar is empty, `until` is passed, or
  /// RequestStop() is called. Returns the number of events processed.
  std::uint64_t Run(Ticks until);

  /// Asks Run() to return after the current event completes.
  void RequestStop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Destroys all still-suspended process frames. Called automatically from
  /// the destructor; harnesses call it earlier so frames are destroyed while
  /// the rest of the model is still alive.
  void Shutdown();

  /// Number of live (spawned, not yet completed) processes.
  std::size_t live_process_count() const { return live_count_; }

  /// Total events processed so far (for micro-benchmarks and tests).
  std::uint64_t events_processed() const { return events_processed_; }

  // --- realtime-substrate driver support. The DES substrate never calls
  // these; they exist so a wall-clock-paced loop can sleep until the next
  // event and keep the clock aligned with real time between events. ---

  /// Fire time of the earliest pending calendar entry, or -1 when empty.
  Ticks PeekNextTime() const {
    return times_.empty() ? Ticks{-1} : times_.front().when;
  }

  /// Advances the clock to `t` without firing anything (no-op if t <= Now()).
  /// The caller must already have fired every event at or before `t` —
  /// i.e. call Run(t) first; any remaining entries are then strictly later.
  void AdvanceTo(Ticks t) {
    if (t > now_) {
      CCSIM_DCHECK(times_.empty() || times_.front().when > t);
      now_ = t;
    }
  }

  /// Pending calendar entries (tests / diagnostics).
  std::size_t calendar_size() const { return pending_; }

 private:
  friend struct Process::promise_type;

  /// One scheduled unit of work. `invoke == nullptr` tags the
  /// coroutine-resume fast path with the handle address in `storage.ptr`;
  /// otherwise `invoke` runs (and, for the heap fallback, frees) the
  /// stored closure, and `drop` (non-null only for the heap fallback)
  /// frees it without running — used when Shutdown() discards pending
  /// events.
  struct EntryPayload {
    void (*invoke)(EntryPayload&);
    void (*drop)(EntryPayload&);
    union Storage {
      void* ptr;
      alignas(8) unsigned char inline_bytes[kInlineClosureBytes];
    } storage;
  };
  static_assert(sizeof(EntryPayload) == 48);
  static_assert(std::is_trivially_copyable_v<EntryPayload>);

  /// Level two: a FIFO of payloads sharing one fire time. `cursor` marks
  /// how far the drain has progressed (entries fire in push order).
  struct Bucket {
    std::vector<EntryPayload> items;
    std::uint32_t cursor = 0;
  };

  static constexpr std::uint32_t kNoBucket = 0xffffffffu;

  /// Level one: one heap entry per distinct pending time. `order` is the
  /// bucket's creation order; two buckets can exist for the same `when`
  /// (when the memo evicted the first before the last push arrived), and
  /// the earlier-created one holds strictly earlier pushes, so ordering by
  /// (when, order) and draining each bucket FIFO realizes the global
  /// (when, arrival) total order exactly.
  struct TimesEntry {
    Ticks when;
    std::uint64_t order;
    std::uint32_t bucket;
  };
  static_assert(std::is_trivially_copyable_v<TimesEntry>);

  static bool TimesBefore(const TimesEntry& a, const TimesEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.order < b.order;
  }

  // Index-based 4-ary min-heap over times_. Holds distinct times, not
  // events, so it stays tiny (a handful of entries) even when thousands of
  // events share a few fire times.
  static constexpr std::size_t kHeapArity = 4;

  void HeapPush(TimesEntry entry) {
    times_.push_back(entry);
    std::size_t index = times_.size() - 1;
    while (index > 0) {
      const std::size_t parent = (index - 1) / kHeapArity;
      if (!TimesBefore(entry, times_[parent])) {
        break;
      }
      times_[index] = times_[parent];
      index = parent;
    }
    times_[index] = entry;
  }

  void HeapPopMin() {
    const TimesEntry last = times_.back();
    times_.pop_back();
    const std::size_t size = times_.size();
    if (size == 0) {
      return;
    }
    std::size_t index = 0;
    for (;;) {
      const std::size_t first_child = kHeapArity * index + 1;
      if (first_child >= size) {
        break;
      }
      std::size_t best = first_child;
      const std::size_t end =
          first_child + kHeapArity < size ? first_child + kHeapArity : size;
      for (std::size_t child = first_child + 1; child < end; ++child) {
        if (TimesBefore(times_[child], times_[best])) {
          best = child;
        }
      }
      if (!TimesBefore(times_[best], last)) {
        break;
      }
      times_[index] = times_[best];
      index = best;
    }
    times_[index] = last;
  }

  std::uint32_t AllocBucket() {
    if (!free_buckets_.empty()) {
      const std::uint32_t index = free_buckets_.back();
      free_buckets_.pop_back();
      return index;
    }
    buckets_.emplace_back();
    return static_cast<std::uint32_t>(buckets_.size() - 1);
  }

  /// Returns a drained bucket to the pool, keeping its capacity so the
  /// steady state stays allocation-free.
  void FreeBucket(Ticks when, std::uint32_t index) {
    Bucket& bucket = buckets_[index];
    bucket.items.clear();
    bucket.cursor = 0;
    free_buckets_.push_back(index);
    Memo& memo = memo_[static_cast<std::size_t>(when) & (kMemoSlots - 1)];
    if (memo.bucket == index) {
      memo.bucket = kNoBucket;
    }
  }

  void Push(Ticks when, const EntryPayload& payload) {
    ++pending_;
    Memo& memo = memo_[static_cast<std::size_t>(when) & (kMemoSlots - 1)];
    if (memo.bucket != kNoBucket && memo.when == when) {
      buckets_[memo.bucket].items.push_back(payload);
      return;
    }
    const std::uint32_t index = AllocBucket();
    buckets_[index].items.push_back(payload);
    memo.when = when;
    memo.bucket = index;
    HeapPush(TimesEntry{when, next_bucket_order_++, index});
  }

  static void Fire(EntryPayload& payload) {
    if (payload.invoke == nullptr) {
      std::coroutine_handle<>::from_address(payload.storage.ptr).resume();
    } else {
      payload.invoke(payload);
    }
  }

  void Register(Process::promise_type& promise) {
    promise.simulator = this;
    promise.prev_live = nullptr;
    promise.next_live = live_head_;
    if (live_head_ != nullptr) {
      live_head_->prev_live = &promise;
    }
    live_head_ = &promise;
    ++live_count_;
  }

  void Unregister(Process::promise_type& promise) {
    if (promise.prev_live != nullptr) {
      promise.prev_live->next_live = promise.next_live;
    } else {
      live_head_ = promise.next_live;
    }
    if (promise.next_live != nullptr) {
      promise.next_live->prev_live = promise.prev_live;
    }
    --live_count_;
  }

  /// Direct-mapped time → bucket cache (indexed by `when` mod slots).
  /// A miss is never wrong — it just creates a fresh bucket for that time
  /// — so collisions only cost performance, never correctness.
  static constexpr std::size_t kMemoSlots = 4;
  struct Memo {
    Ticks when = 0;
    std::uint32_t bucket = kNoBucket;
  };

  Ticks now_ = 0;
  std::uint64_t next_bucket_order_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t pending_ = 0;
  bool stop_requested_ = false;
  bool shutting_down_ = false;
  std::vector<TimesEntry> times_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  Memo memo_[kMemoSlots];
  Process::promise_type* live_head_ = nullptr;
  std::size_t live_count_ = 0;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_SIMULATOR_H_
