// Unit tests for the lock manager: modes, FCFS queuing, upgrades, deadlock
// detection, retained owners, cancellation, and transfers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "lock/lock_manager.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace ccsim::lock {
namespace {

struct AcquireLog {
  OwnerId owner;
  db::PageId page;
  LockOutcome outcome;
  sim::Ticks at;
};

sim::Process AcquireAfter(sim::Simulator& sim, LockManager& locks,
                          sim::Ticks when, OwnerId owner, db::PageId page,
                          LockMode mode, std::vector<AcquireLog>& log) {
  co_await sim.Delay(when);
  const LockOutcome outcome = co_await locks.Acquire(owner, page, mode);
  log.push_back({owner, page, outcome, sim.Now()});
}

sim::Process ReleaseAfter(sim::Simulator& sim, LockManager& locks,
                          sim::Ticks when, OwnerId owner, db::PageId page) {
  co_await sim.Delay(when);
  locks.Release(owner, page);
}

sim::Process ReleaseAllAfter(sim::Simulator& sim, LockManager& locks,
                             sim::Ticks when, OwnerId owner) {
  co_await sim.Delay(when);
  locks.ReleaseAll(owner);
}

class LockManagerTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  LockManager locks_{&sim_};
  std::vector<AcquireLog> log_;
};

TEST_F(LockManagerTest, SharedLocksCompatible) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 42, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 42, LockMode::kShared, log_));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[1].at, 0);  // no waiting
  EXPECT_TRUE(locks_.Holds(1, 42, LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(2, 42, LockMode::kShared));
}

TEST_F(LockManagerTest, ExclusiveBlocksShared) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 42, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 2, 42, LockMode::kShared, log_));
  sim_.Spawn(ReleaseAfter(sim_, locks_, 50, 1, 42));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].owner, 2u);
  EXPECT_EQ(log_[1].at, 50);  // granted only at release
}

TEST_F(LockManagerTest, FcfsNoJumpingAheadOfQueuedExclusive) {
  // S held; X queued; later S must NOT overtake the queued X.
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 2, 7, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 10, 3, 7, LockMode::kShared, log_));
  sim_.Spawn(ReleaseAfter(sim_, locks_, 50, 1, 7));
  sim_.Spawn(ReleaseAfter(sim_, locks_, 80, 2, 7));
  sim_.Run(1000);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[1].owner, 2u);
  EXPECT_EQ(log_[1].at, 50);
  EXPECT_EQ(log_[2].owner, 3u);
  EXPECT_EQ(log_[2].at, 80);
}

TEST_F(LockManagerTest, ReentrantSharedGrant) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 1, 7, LockMode::kShared, log_));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[1].at, 5);
}

TEST_F(LockManagerTest, SoleHolderUpgradesInstantly) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 1, 7, LockMode::kExclusive, log_));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[1].at, 5);
  EXPECT_TRUE(locks_.Holds(1, 7, LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherReader) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 1, 7, LockMode::kExclusive, log_));
  sim_.Spawn(ReleaseAfter(sim_, locks_, 50, 2, 7));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[2].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[2].at, 50);
  EXPECT_TRUE(locks_.Holds(1, 7, LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeJumpsAheadOfPlainWaiters) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 7, LockMode::kShared, log_));
  // Plain X waiter queues first; then holder 1 wants an upgrade.
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 3, 7, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 10, 1, 7, LockMode::kExclusive, log_));
  sim_.Spawn(ReleaseAfter(sim_, locks_, 50, 2, 7));
  sim_.Spawn(ReleaseAllAfter(sim_, locks_, 80, 1));
  sim_.Run(1000);
  ASSERT_EQ(log_.size(), 4u);
  // Upgrade (owner 1) granted at 50 when reader 2 leaves; plain X (owner 3)
  // only after owner 1 releases everything at 80.
  EXPECT_EQ(log_[2].owner, 1u);
  EXPECT_EQ(log_[2].at, 50);
  EXPECT_EQ(log_[3].owner, 3u);
  EXPECT_EQ(log_[3].at, 80);
}

TEST_F(LockManagerTest, UpgradeUpgradeDeadlockDetected) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 1, 7, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 10, 2, 7, LockMode::kExclusive, log_));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 3u);
  // The second upgrader closes the cycle and is refused immediately.
  EXPECT_EQ(log_[2].owner, 2u);
  EXPECT_EQ(log_[2].outcome, LockOutcome::kDeadlock);
  EXPECT_EQ(locks_.deadlocks_detected(), 1u);
  // Releasing owner 2's share lets the first upgrade through.
  locks_.ReleaseAll(2);
  sim_.Run(200);
  ASSERT_EQ(log_.size(), 4u);
  EXPECT_EQ(log_[3].owner, 1u);
  EXPECT_EQ(log_[3].outcome, LockOutcome::kGranted);
}

TEST_F(LockManagerTest, TwoPageCycleDetected) {
  // T1 holds X(1), T2 holds X(2); T1 waits for 2, then T2 requests 1.
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 1, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 2, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 1, 2, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 10, 2, 1, LockMode::kExclusive, log_));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[2].owner, 2u);
  EXPECT_EQ(log_[2].outcome, LockOutcome::kDeadlock);
}

TEST_F(LockManagerTest, CancelOwnerWakesWaiterWithAborted) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 2, 7, LockMode::kExclusive, log_));
  sim_.ScheduleAt(20, [&] { locks_.CancelOwner(2); });
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kAborted);
  EXPECT_EQ(log_[1].at, 20);
}

TEST_F(LockManagerTest, CancelHolderUnblocksQueue) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 2, 7, LockMode::kShared, log_));
  sim_.ScheduleAt(30, [&] { locks_.CancelOwner(1); });
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[1].at, 30);
}

TEST_F(LockManagerTest, RetainedOwnerBlocksAndReleases) {
  const OwnerId retained = RetainedOwner(3);
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, retained, 7, LockMode::kShared,
                          log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 1, 7, LockMode::kExclusive, log_));
  sim_.ScheduleAt(40, [&] { locks_.Release(retained, 7); });
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].at, 40);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kGranted);
}

TEST_F(LockManagerTest, RetainedProxyEnablesDeadlockDetection) {
  // Client 3's retained lock on page 7 maps to transaction 30, which waits
  // for page 9 held exclusively by transaction 1. When transaction 1 asks
  // for X(7), the cycle 1 -> retained(3) -> 30 -> 1 must be found.
  locks_.set_retained_proxy([](OwnerId owner) {
    return RetainedClient(owner) == 3 ? OwnerId{30} : OwnerId{0};
  });
  const OwnerId retained = RetainedOwner(3);
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, retained, 7, LockMode::kShared,
                          log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 9, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 30, 9, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 10, 1, 7, LockMode::kExclusive, log_));
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[2].owner, 1u);
  EXPECT_EQ(log_[2].outcome, LockOutcome::kDeadlock);
}

TEST_F(LockManagerTest, TransferLockMovesOwnership) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Run(10);
  locks_.TransferLock(1, RetainedOwner(5), 7);
  EXPECT_FALSE(locks_.Holds(1, 7, LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(RetainedOwner(5), 7, LockMode::kShared));
}

TEST_F(LockManagerTest, TransferMergesWithExistingHolder) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kExclusive, log_));
  sim_.Run(10);
  // Simulate lock absorption followed by re-retention under one owner.
  locks_.TransferLock(1, 2, 7);
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 7, LockMode::kShared, log_));
  sim_.Run(20);
  EXPECT_TRUE(locks_.Holds(2, 7, LockMode::kExclusive));
  EXPECT_EQ(locks_.HoldersOf(7).size(), 1u);
}

TEST_F(LockManagerTest, DowngradeWakesSharedWaiters) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 2, 7, LockMode::kShared, log_));
  sim_.ScheduleAt(30, [&] { locks_.Downgrade(1, 7); });
  sim_.Run(100);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[1].at, 30);
}

TEST_F(LockManagerTest, ReleaseAllFreesEverything) {
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 1, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 2, LockMode::kExclusive, log_));
  sim_.Run(10);
  EXPECT_EQ(locks_.held_count(), 2u);
  locks_.ReleaseAll(1);
  EXPECT_EQ(locks_.held_count(), 0u);
  EXPECT_FALSE(locks_.Holds(1, 1, LockMode::kShared));
}

TEST_F(LockManagerTest, ConcurrentWaitsBySameOwnerBothServed) {
  // No-wait locking: one transaction can have several requests queued.
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 1, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 2, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 3, 1, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 6, 3, 2, LockMode::kShared, log_));
  sim_.Spawn(ReleaseAfter(sim_, locks_, 50, 1, 1));
  sim_.Spawn(ReleaseAfter(sim_, locks_, 60, 2, 2));
  sim_.Run(1000);
  ASSERT_EQ(log_.size(), 4u);
  EXPECT_EQ(log_[2].at, 50);
  EXPECT_EQ(log_[3].at, 60);
  EXPECT_TRUE(locks_.Holds(3, 1, LockMode::kShared));
  EXPECT_TRUE(locks_.Holds(3, 2, LockMode::kShared));
}

TEST_F(LockManagerTest, CancelOwnerWithTwoRecordsOnOnePage) {
  // Regression: a no-wait transaction can queue an S and an X request on
  // the same page. Cancelling the owner must remove both; a leftover
  // record would later be granted to a dead transaction and hold the lock
  // forever.
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kExclusive, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 2, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 6, 2, 7, LockMode::kExclusive, log_));
  sim_.Run(20);
  EXPECT_EQ(locks_.waiter_count(), 2u);
  locks_.CancelOwner(2);
  EXPECT_EQ(locks_.waiter_count(), 0u);
  sim_.Run(40);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[1].outcome, LockOutcome::kAborted);
  EXPECT_EQ(log_[2].outcome, LockOutcome::kAborted);
  // Owner 1 releases; nothing of owner 2 must remain.
  locks_.ReleaseAll(1);
  EXPECT_EQ(locks_.held_count(), 0u);
  EXPECT_EQ(locks_.HoldersOf(7).size(), 0u);
}

TEST_F(LockManagerTest, QueuedRequestByHolderBecomesImplicitUpgrade) {
  // Owner 2's X request queues while owner 1 holds X; owner 2's S request
  // was already granted... construct: S granted, X queued by same owner,
  // rival releases -> the X record must upgrade in place, not deadlock
  // against the owner's own S.
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 1, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 0, 2, 7, LockMode::kShared, log_));
  sim_.Spawn(AcquireAfter(sim_, locks_, 5, 2, 7, LockMode::kExclusive, log_));
  sim_.Spawn(ReleaseAllAfter(sim_, locks_, 50, 1));
  sim_.Run(1000);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[2].outcome, LockOutcome::kGranted);
  EXPECT_EQ(log_[2].at, 50);
  EXPECT_TRUE(locks_.Holds(2, 7, LockMode::kExclusive));
  EXPECT_EQ(locks_.HoldersOf(7).size(), 1u);
}

// ---------------------------------------------------------------------------
// Differential test: the page-indexed lock table against a reference model
// that applies the same locking rules over std::map, std::deque and
// std::set (the containers the table was first built on).
// ---------------------------------------------------------------------------

using Resolution = std::pair<int, LockOutcome>;  // (request id, outcome)

class ReferenceLocks {
 public:
  using HolderInfo = LockManager::HolderInfo;

  void Acquire(int id, OwnerId owner, db::PageId page, LockMode mode) {
    Entry& entry = table_[page];
    HolderInfo* mine = FindHolder(entry, owner);
    if (mine != nullptr) {
      if (mode == LockMode::kShared || mine->mode == LockMode::kExclusive) {
        Resolve(id, LockOutcome::kGranted);
        return;
      }
      if (entry.holders.size() == 1) {
        mine->mode = LockMode::kExclusive;
        Resolve(id, LockOutcome::kGranted);
        return;
      }
      if (WouldDeadlock(owner, page, mode)) {
        ++deadlocks_;
        Resolve(id, LockOutcome::kDeadlock);
        return;
      }
      auto pos = entry.waiters.begin();
      while (pos != entry.waiters.end() && pos->is_upgrade) {
        ++pos;
      }
      entry.waiters.insert(pos, Waiter{owner, mode, true, id});
      ++waiter_count_;
      waiting_[owner].insert(page);
      return;
    }
    const bool holders_ok =
        std::all_of(entry.holders.begin(), entry.holders.end(),
                    [&](const HolderInfo& h) {
                      return Compatible(h.mode, mode);
                    });
    if (holders_ok && entry.waiters.empty()) {
      entry.holders.push_back(HolderInfo{owner, mode});
      held_[owner].insert(page);
      ++held_count_;
      Resolve(id, LockOutcome::kGranted);
      return;
    }
    if (WouldDeadlock(owner, page, mode)) {
      ++deadlocks_;
      Resolve(id, LockOutcome::kDeadlock);
      return;
    }
    entry.waiters.push_back(Waiter{owner, mode, false, id});
    ++waiter_count_;
    waiting_[owner].insert(page);
  }

  void Release(OwnerId owner, db::PageId page) {
    auto it = table_.find(page);
    if (it == table_.end()) {
      return;
    }
    std::vector<HolderInfo>& holders = it->second.holders;
    auto h = std::find_if(holders.begin(), holders.end(),
                          [&](const HolderInfo& x) { return x.owner == owner; });
    if (h == holders.end()) {
      return;
    }
    holders.erase(h);
    --held_count_;
    EraseHeld(owner, page);
    GrantEligible(page);
  }

  void ReleaseAll(OwnerId owner) {
    auto it = held_.find(owner);
    if (it == held_.end()) {
      return;
    }
    const std::set<db::PageId> pages = it->second;
    for (db::PageId page : pages) {
      Release(owner, page);
    }
  }

  void CancelOwner(OwnerId owner) {
    auto wait_it = waiting_.find(owner);
    if (wait_it != waiting_.end()) {
      const std::set<db::PageId> pages = wait_it->second;
      waiting_.erase(wait_it);
      for (db::PageId page : pages) {
        std::deque<Waiter>& waiters = table_.at(page).waiters;
        for (auto w = waiters.begin(); w != waiters.end();) {
          if (w->owner != owner) {
            ++w;
            continue;
          }
          const int id = w->id;
          w = waiters.erase(w);
          --waiter_count_;
          Resolve(id, LockOutcome::kAborted);
        }
        GrantEligible(page);
      }
    }
    ReleaseAll(owner);
  }

  void Reset() {
    for (auto& [page, entry] : table_) {
      for (const Waiter& w : entry.waiters) {
        Resolve(w.id, LockOutcome::kAborted);
      }
    }
    table_.clear();
    held_.clear();
    waiting_.clear();
    held_count_ = 0;
    waiter_count_ = 0;
  }

  void TransferLock(OwnerId from, OwnerId to, db::PageId page) {
    Entry& entry = table_.at(page);
    HolderInfo* source = FindHolder(entry, from);
    HolderInfo* target = FindHolder(entry, to);
    if (target != nullptr) {
      if (source->mode == LockMode::kExclusive) {
        target->mode = LockMode::kExclusive;
      }
      entry.holders.erase(entry.holders.begin() +
                          (source - entry.holders.data()));
      --held_count_;
    } else {
      source->owner = to;
      held_[to].insert(page);
    }
    EraseHeld(from, page);
    if (target != nullptr) {
      GrantEligible(page);
    }
  }

  void Downgrade(OwnerId owner, db::PageId page) {
    FindHolder(table_.at(page), owner)->mode = LockMode::kShared;
    GrantEligible(page);
  }

  std::vector<HolderInfo> HoldersOf(db::PageId page) const {
    auto it = table_.find(page);
    return it == table_.end() ? std::vector<HolderInfo>{} : it->second.holders;
  }
  std::vector<db::PageId> PagesHeldBy(OwnerId owner) const {
    auto it = held_.find(owner);
    return it == held_.end()
               ? std::vector<db::PageId>{}
               : std::vector<db::PageId>(it->second.begin(),
                                         it->second.end());
  }
  bool IsWaiting(OwnerId owner) const { return waiting_.count(owner) > 0; }
  bool HasWaiters(db::PageId page) const {
    auto it = table_.find(page);
    return it != table_.end() && !it->second.waiters.empty();
  }
  std::size_t held_count() const { return held_count_; }
  std::size_t waiter_count() const { return waiter_count_; }
  std::uint64_t deadlocks() const { return deadlocks_; }

  /// Requests resolved since the last call, in wake-up order.
  std::vector<Resolution> TakeResolved() {
    std::vector<Resolution> out;
    out.swap(resolved_);
    return out;
  }

 private:
  struct Waiter {
    OwnerId owner;
    LockMode mode;
    bool is_upgrade;
    int id;
  };
  struct Entry {
    std::vector<HolderInfo> holders;
    std::deque<Waiter> waiters;
  };

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }
  static HolderInfo* FindHolder(Entry& entry, OwnerId owner) {
    for (HolderInfo& h : entry.holders) {
      if (h.owner == owner) {
        return &h;
      }
    }
    return nullptr;
  }

  void Resolve(int id, LockOutcome outcome) {
    resolved_.emplace_back(id, outcome);
  }

  void EraseHeld(OwnerId owner, db::PageId page) {
    auto it = held_.find(owner);
    if (it != held_.end()) {
      it->second.erase(page);
      if (it->second.empty()) {
        held_.erase(it);
      }
    }
  }

  bool CanGrant(Entry& entry, const Waiter& waiter) {
    const HolderInfo* own = FindHolder(entry, waiter.owner);
    if (waiter.is_upgrade || own != nullptr) {
      if (own != nullptr && (waiter.mode == LockMode::kShared ||
                             own->mode == LockMode::kExclusive)) {
        return true;
      }
      return entry.holders.size() == 1 &&
             entry.holders.front().owner == waiter.owner;
    }
    return std::all_of(entry.holders.begin(), entry.holders.end(),
                       [&](const HolderInfo& h) {
                         return Compatible(h.mode, waiter.mode);
                       });
  }

  void GrantEligible(db::PageId page) {
    Entry& entry = table_.at(page);
    while (!entry.waiters.empty() && CanGrant(entry, entry.waiters.front())) {
      const Waiter w = entry.waiters.front();
      entry.waiters.pop_front();
      --waiter_count_;
      const bool still_queued =
          std::any_of(entry.waiters.begin(), entry.waiters.end(),
                      [&](const Waiter& x) { return x.owner == w.owner; });
      if (!still_queued) {
        auto it = waiting_.find(w.owner);
        if (it != waiting_.end()) {
          it->second.erase(page);
          if (it->second.empty()) {
            waiting_.erase(it);
          }
        }
      }
      if (HolderInfo* mine = FindHolder(entry, w.owner)) {
        if (w.mode == LockMode::kExclusive) {
          mine->mode = LockMode::kExclusive;
        }
      } else {
        entry.holders.push_back(HolderInfo{w.owner, w.mode});
        held_[w.owner].insert(page);
        ++held_count_;
      }
      Resolve(w.id, LockOutcome::kGranted);
    }
  }

  void CollectBlockers(const Entry& entry, OwnerId requester, LockMode mode,
                       bool is_upgrade, std::vector<OwnerId>* out) const {
    for (const HolderInfo& h : entry.holders) {
      if (h.owner != requester && !Compatible(h.mode, mode)) {
        out->push_back(h.owner);
      }
    }
    for (const Waiter& w : entry.waiters) {
      if (w.owner == requester) {
        break;
      }
      if (is_upgrade && !w.is_upgrade) {
        continue;
      }
      out->push_back(w.owner);
    }
  }

  bool WouldDeadlock(OwnerId owner, db::PageId page, LockMode mode) const {
    const Entry& entry = table_.at(page);
    const bool is_upgrade =
        std::any_of(entry.holders.begin(), entry.holders.end(),
                    [&](const HolderInfo& h) { return h.owner == owner; });
    std::vector<OwnerId> stack;
    CollectBlockers(entry, owner, mode, is_upgrade, &stack);
    std::set<OwnerId> visited;
    while (!stack.empty()) {
      const OwnerId blocker = stack.back();
      stack.pop_back();
      if (blocker == owner) {
        return true;
      }
      if (!visited.insert(blocker).second) {
        continue;
      }
      auto wait_it = waiting_.find(blocker);
      if (wait_it == waiting_.end()) {
        continue;
      }
      for (db::PageId blocked_page : wait_it->second) {
        const Entry& blocked = table_.at(blocked_page);
        for (const Waiter& w : blocked.waiters) {
          if (w.owner == blocker) {
            CollectBlockers(blocked, blocker, w.mode, w.is_upgrade, &stack);
          }
        }
      }
    }
    return false;
  }

  std::map<db::PageId, Entry> table_;
  std::map<OwnerId, std::set<db::PageId>> held_;
  std::map<OwnerId, std::set<db::PageId>> waiting_;
  std::vector<Resolution> resolved_;
  std::size_t held_count_ = 0;
  std::size_t waiter_count_ = 0;
  std::uint64_t deadlocks_ = 0;
};

constexpr OwnerId kDiffOwners = 8;
constexpr db::PageId kDiffPages = 16;

sim::Process Request(LockManager& locks, int id, OwnerId owner,
                     db::PageId page, LockMode mode,
                     std::vector<Resolution>* resolved) {
  const LockOutcome outcome = co_await locks.Acquire(owner, page, mode);
  resolved->emplace_back(id, outcome);
}

/// Everything the two implementations must agree on after a step.
void ExpectSameState(const LockManager& locks, const ReferenceLocks& ref,
                     int step) {
  ASSERT_EQ(locks.held_count(), ref.held_count()) << "step " << step;
  ASSERT_EQ(locks.waiter_count(), ref.waiter_count()) << "step " << step;
  ASSERT_EQ(locks.deadlocks_detected(), ref.deadlocks()) << "step " << step;
  for (db::PageId page = 0; page < kDiffPages; ++page) {
    const std::vector<LockManager::HolderInfo> want = ref.HoldersOf(page);
    const std::span<const LockManager::HolderInfo> got = locks.HoldersOf(page);
    ASSERT_EQ(got.size(), want.size()) << "step " << step << " page " << page;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].owner, want[i].owner) << "step " << step;
      ASSERT_EQ(got[i].mode, want[i].mode) << "step " << step;
    }
    ASSERT_EQ(locks.HasWaiters(page), ref.HasWaiters(page))
        << "step " << step << " page " << page;
  }
  for (OwnerId owner = 1; owner <= kDiffOwners; ++owner) {
    const std::span<const db::PageId> held = locks.PagesHeldBy(owner);
    ASSERT_EQ(std::vector<db::PageId>(held.begin(), held.end()),
              ref.PagesHeldBy(owner))
        << "step " << step << " owner " << owner;
    ASSERT_EQ(locks.IsWaiting(owner), ref.IsWaiting(owner))
        << "step " << step << " owner " << owner;
    for (db::PageId page = 0; page < kDiffPages; ++page) {
      bool shared = false;
      bool exclusive = false;
      for (const LockManager::HolderInfo& h : ref.HoldersOf(page)) {
        if (h.owner == owner) {
          shared = true;
          exclusive = h.mode == LockMode::kExclusive;
        }
      }
      ASSERT_EQ(locks.Holds(owner, page, LockMode::kShared), shared);
      ASSERT_EQ(locks.Holds(owner, page, LockMode::kExclusive), exclusive);
    }
  }
}

/// One seeded script of random operations, each applied to both
/// implementations; after every step the requests resolved (in wake-up
/// order) and the whole observable state must match.
sim::Process DiffScript(sim::Simulator& sim, LockManager& locks,
                        std::uint64_t seed, int steps, bool* done,
                        std::size_t* max_waiters) {
  sim::Pcg32 rng(seed, 77);
  ReferenceLocks ref;
  std::vector<Resolution> resolved;
  int next_id = 0;
  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    const auto owner = static_cast<OwnerId>(rng.UniformInt(1, kDiffOwners));
    const auto page =
        static_cast<db::PageId>(rng.UniformInt(0, kDiffPages - 1));
    if (op < 50) {
      const LockMode mode = rng.Bernoulli(0.4) ? LockMode::kExclusive
                                               : LockMode::kShared;
      const int id = next_id++;
      ref.Acquire(id, owner, page, mode);
      sim.Spawn(Request(locks, id, owner, page, mode, &resolved));
    } else if (op < 64) {
      ref.Release(owner, page);
      locks.Release(owner, page);
    } else if (op < 74) {
      ref.ReleaseAll(owner);
      locks.ReleaseAll(owner);
    } else if (op < 82) {
      ref.CancelOwner(owner);
      locks.CancelOwner(owner);
    } else if (op < 91) {
      const std::vector<LockManager::HolderInfo> holders =
          ref.HoldersOf(page);
      const OwnerId to = owner;
      if (!holders.empty()) {
        const OwnerId from =
            holders[static_cast<std::size_t>(rng.UniformInt(
                        0, static_cast<std::int64_t>(holders.size()) - 1))]
                .owner;
        if (from != to) {
          ref.TransferLock(from, to, page);
          locks.TransferLock(from, to, page);
        }
      }
    } else if (op < 99) {
      const std::vector<LockManager::HolderInfo> holders =
          ref.HoldersOf(page);
      if (!holders.empty()) {
        const OwnerId holder = holders.front().owner;
        ref.Downgrade(holder, page);
        locks.Downgrade(holder, page);
      }
    } else {
      ref.Reset();
      locks.Reset();
    }
    co_await sim.Delay(1);  // every wake-up of this step has run
    const std::vector<Resolution> want = ref.TakeResolved();
    EXPECT_EQ(resolved, want) << "seed " << seed << " step " << step;
    resolved.clear();
    ExpectSameState(locks, ref, step);
    *max_waiters = std::max(*max_waiters, locks.waiter_count());
    if (::testing::Test::HasFailure()) {
      co_return;
    }
  }
  *done = true;
}

TEST(LockManagerDiffTest, MatchesReferenceModelOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Simulator sim;
    LockManager locks(&sim);
    bool done = false;
    std::size_t max_waiters = 0;
    sim.Spawn(DiffScript(sim, locks, seed, 4000, &done, &max_waiters));
    sim.Run(1 << 20);
    ASSERT_TRUE(done) << "seed " << seed << " diverged";
    // The script reached the interesting states: deep queues and cycles.
    EXPECT_GE(max_waiters, 6u) << "seed " << seed;
    EXPECT_GT(locks.deadlocks_detected(), 20u) << "seed " << seed;
    sim.Shutdown();
  }
}

}  // namespace
}  // namespace ccsim::lock
