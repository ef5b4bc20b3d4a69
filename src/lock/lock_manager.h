#ifndef CCSIM_LOCK_LOCK_MANAGER_H_
#define CCSIM_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <vector>

#include "db/database.h"
#include "sim/event.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/flat_map.h"
#include "util/object_pool.h"
#include "util/ring_deque.h"
#include "util/small_sorted.h"
#include "util/small_vector.h"

namespace ccsim::lock {

/// Lock owner identity. Two kinds of owners share the space:
///  - active transactions (unique uids below kRetainedOwnerBase), and
///  - per-client *retained* owners used by callback locking, encoded as
///    kRetainedOwnerBase + client_id. Retained locks survive transaction
///    boundaries and are released when the server calls them back.
using OwnerId = std::uint64_t;

inline constexpr OwnerId kRetainedOwnerBase = 1ULL << 62;

/// Returns the retained-owner id for a client.
constexpr OwnerId RetainedOwner(int client_id) {
  return kRetainedOwnerBase + static_cast<OwnerId>(client_id);
}
constexpr bool IsRetainedOwner(OwnerId owner) {
  return owner >= kRetainedOwnerBase;
}
constexpr int RetainedClient(OwnerId owner) {
  return static_cast<int>(owner - kRetainedOwnerBase);
}

enum class LockMode { kShared, kExclusive };

/// Result of a blocking lock acquisition.
enum class LockOutcome {
  kGranted,
  /// Granting would close a waits-for cycle; the requester is the victim.
  kDeadlock,
  /// The waiter was cancelled (its transaction was aborted server-side).
  kAborted,
};

/// Page-granularity two-mode lock manager with FCFS wait queues, lock
/// upgrades, waits-for-graph deadlock detection, and retained-lock owners
/// (paper §3.3.4). Single-threaded within the simulation; "blocking" means
/// suspending the calling coroutine.
///
/// Layout: lock heads sit in a vector indexed by page (grown on demand to
/// the highest page seen), with holders inline and waiters in a ring that
/// keeps its capacity; each owner's held and waited-on pages are small
/// ascending lists in a recycled per-owner record. After warm-up an
/// acquire/release cycle allocates nothing. Every walk over an owner's
/// pages (ReleaseAll, CancelOwner) or over the table (Reset, DebugDump)
/// visits ascending page order.
class LockManager {
 public:
  /// A holder of a page lock.
  struct HolderInfo {
    OwnerId owner;
    LockMode mode;
  };

  explicit LockManager(sim::Simulator* simulator) : simulator_(simulator) {}
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;
  ~LockManager();

  /// Acquires `mode` on `page` for `owner`, suspending while incompatible
  /// locks are held. Re-entrant: holding S and asking for X upgrades (sole
  /// holders upgrade immediately; otherwise the upgrade waits at the front
  /// of the queue). Deadlock resolution aborts the *requester* (returns
  /// kDeadlock without enqueuing).
  sim::Task<LockOutcome> Acquire(OwnerId owner, db::PageId page,
                                 LockMode mode);

  /// Releases one lock; wakes eligible waiters. No-op if not held.
  void Release(OwnerId owner, db::PageId page);

  /// Releases every lock held by `owner`.
  void ReleaseAll(OwnerId owner);

  /// Cancels all pending waits of `owner` (each returns kAborted) and
  /// releases its held locks. Used when the server aborts a transaction
  /// that may have requests queued (no-wait locking).
  void CancelOwner(OwnerId owner);

  /// Server-crash modeling: drops the whole lock table. Every held lock
  /// vanishes and every queued waiter resumes with kAborted (its
  /// transaction died with the server's volatile state).
  void Reset();

  /// True if `owner` has any request queued (used to keep the idle-reaper
  /// from victimizing a transaction that is merely stuck in a lock queue).
  bool IsWaiting(OwnerId owner) const {
    const OwnerRecord* record = FindOwner(owner);
    return record != nullptr && !record->waiting.empty();
  }

  /// Atomically transfers a held lock to another owner (same mode), without
  /// going through the queue. Used by callback locking to convert a
  /// transaction lock into a retained client lock at commit, and back.
  /// Fatal if `from` does not hold the lock.
  void TransferLock(OwnerId from, OwnerId to, db::PageId page);

  /// Downgrades a held exclusive lock to shared; wakes eligible waiters.
  void Downgrade(OwnerId owner, db::PageId page);

  /// True if `owner` holds `page` with at least `mode` strength.
  bool Holds(OwnerId owner, db::PageId page, LockMode mode) const;

  /// Current holders of `page` (empty if unlocked). The view is valid
  /// until the next call that changes the lock table.
  std::span<const HolderInfo> HoldersOf(db::PageId page) const {
    const Head* head = FindHead(page);
    if (head == nullptr) {
      return {};
    }
    return {head->holders.data(), head->holders.size()};
  }

  /// True if any request is queued on `page`.
  bool HasWaiters(db::PageId page) const {
    const Head* head = FindHead(page);
    return head != nullptr && !head->waiters.empty();
  }

  /// Pages currently held by `owner`, ascending (used for commit-time lock
  /// disposition in callback locking). The view is valid until the next
  /// call that changes the lock table: copy it before releasing or
  /// transferring the pages it lists.
  std::span<const db::PageId> PagesHeldBy(OwnerId owner) const {
    const OwnerRecord* record = FindOwner(owner);
    if (record == nullptr) {
      return {};
    }
    return {record->held.begin(), record->held.size()};
  }

  /// Number of (owner, page) locks currently held.
  std::size_t held_count() const { return held_count_; }
  /// Number of waiting requests.
  std::size_t waiter_count() const { return waiter_count_; }
  /// Deadlocks detected so far.
  std::uint64_t deadlocks_detected() const { return deadlocks_detected_; }

  /// Prints the lock table (holders and waiters per page) for debugging.
  void DebugDump(std::FILE* out) const;

  /// Installs the waits-for proxy for retained owners: given a retained
  /// owner, returns the transaction that must finish before the retained
  /// lock can be released (the owning client's current transaction), or 0
  /// if the lock will be released promptly. Used in deadlock detection.
  void set_retained_proxy(std::function<OwnerId(OwnerId)> proxy) {
    retained_proxy_ = std::move(proxy);
  }

 private:
  struct Waiter {
    OwnerId owner;
    LockMode mode;
    bool is_upgrade;
    sim::OneShot<LockOutcome>* slot;  // owned by the awaiting coroutine
  };
  /// One page's lock state; unlocked pages keep an empty head.
  struct Head {
    util::SmallVector<HolderInfo, 4> holders;
    util::RingDeque<Waiter> waiters;
  };
  /// Pages an owner holds, and pages it has requests queued on (no-wait
  /// locking can have several of one transaction's requests queued at
  /// once). Released to the pool when both are empty.
  struct OwnerRecord {
    util::SmallSortedSet<db::PageId, 16> held;
    util::SmallSortedSet<db::PageId, 4> waiting;
    /// Deadlock search stamp: equal to search_epoch_ once visited.
    std::uint64_t visited_epoch = 0;
  };

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  Head& HeadOf(db::PageId page);
  const Head* FindHead(db::PageId page) const {
    const auto index = static_cast<std::size_t>(page);
    return index < heads_.size() ? &heads_[index] : nullptr;
  }
  Head* FindHead(db::PageId page) {
    const auto index = static_cast<std::size_t>(page);
    return index < heads_.size() ? &heads_[index] : nullptr;
  }
  static HolderInfo* FindHolder(Head& head, OwnerId owner);

  OwnerRecord& RecordOf(OwnerId owner);
  OwnerRecord* FindOwner(OwnerId owner) {
    OwnerRecord** record = owners_.Find(owner);
    return record == nullptr ? nullptr : *record;
  }
  const OwnerRecord* FindOwner(OwnerId owner) const {
    OwnerRecord* const* record = owners_.Find(owner);
    return record == nullptr ? nullptr : *record;
  }
  /// Returns the owner's record to the pool once it holds and awaits
  /// nothing.
  void MaybeRetire(OwnerId owner, OwnerRecord& record);
  void NoteHeld(OwnerId owner, db::PageId page) {
    RecordOf(owner).held.insert(page);
    ++held_count_;
  }
  void EraseHeld(OwnerId owner, db::PageId page);
  void EraseWait(OwnerId owner, db::PageId page, const Head& head);

  /// Grants queued waiters that have become eligible; wakes them.
  void GrantEligible(db::PageId page);
  bool CanGrant(const Head& head, const Waiter& waiter) const;

  /// True if adding owner's wait on `page` would create a waits-for cycle
  /// back to `owner`.
  bool WouldDeadlock(OwnerId owner, db::PageId page, LockMode mode);
  void CollectBlockers(const Head& head, OwnerId requester, LockMode mode,
                       bool is_upgrade);

  sim::Simulator* simulator_;
  std::vector<Head> heads_;
  util::FlatMap<OwnerId, OwnerRecord*> owners_;
  util::ObjectPool<OwnerRecord> owner_pool_;
  std::function<OwnerId(OwnerId)> retained_proxy_;
  /// Deadlock-search scratch: the owners still to expand, and the stamp
  /// that marks an owner record visited in the current search.
  std::vector<OwnerId> search_stack_;
  std::uint64_t search_epoch_ = 0;
  /// ReleaseAll's and CancelOwner's snapshot of an owner's pages.
  std::vector<db::PageId> pages_scratch_;
  /// Reset's scratch for the waiters it aborts.
  std::vector<sim::OneShot<LockOutcome>*> reset_slots_;
  std::size_t held_count_ = 0;
  std::size_t waiter_count_ = 0;
  std::uint64_t deadlocks_detected_ = 0;
};

}  // namespace ccsim::lock

#endif  // CCSIM_LOCK_LOCK_MANAGER_H_
