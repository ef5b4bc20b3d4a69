#include "lock/lock_manager.h"

#include <algorithm>

#include "util/macros.h"

namespace ccsim::lock {

LockManager::~LockManager() {
  owners_.ForEach([this](OwnerId, OwnerRecord* record) {
    owner_pool_.Release(record);
  });
}

LockManager::Head& LockManager::HeadOf(db::PageId page) {
  CCSIM_CHECK(page >= 0);
  const auto index = static_cast<std::size_t>(page);
  if (index >= heads_.size()) {
    heads_.resize(std::max(index + 1, 2 * heads_.size()));
  }
  return heads_[index];
}

LockManager::HolderInfo* LockManager::FindHolder(Head& head, OwnerId owner) {
  for (HolderInfo& h : head.holders) {
    if (h.owner == owner) {
      return &h;
    }
  }
  return nullptr;
}

LockManager::OwnerRecord& LockManager::RecordOf(OwnerId owner) {
  if (OwnerRecord* record = FindOwner(owner)) {
    return *record;
  }
  OwnerRecord* record = owner_pool_.Acquire();
  record->held.clear();
  record->waiting.clear();
  owners_.Insert(owner, record);
  return *record;
}

void LockManager::MaybeRetire(OwnerId owner, OwnerRecord& record) {
  if (record.held.empty() && record.waiting.empty()) {
    owners_.Erase(owner);
    owner_pool_.Release(&record);
  }
}

void LockManager::EraseHeld(OwnerId owner, db::PageId page) {
  if (OwnerRecord* record = FindOwner(owner)) {
    record->held.erase(page);
    MaybeRetire(owner, *record);
  }
}

void LockManager::EraseWait(OwnerId owner, db::PageId page,
                            const Head& head) {
  // One owner can have several records queued on the same page (a no-wait
  // transaction's asynchronous S and X requests); only drop the
  // waiting-on marker when none remain.
  for (std::size_t i = 0; i < head.waiters.size(); ++i) {
    if (head.waiters[i].owner == owner) {
      return;
    }
  }
  if (OwnerRecord* record = FindOwner(owner)) {
    record->waiting.erase(page);
    MaybeRetire(owner, *record);
  }
}

bool LockManager::Holds(OwnerId owner, db::PageId page, LockMode mode) const {
  for (const HolderInfo& h : HoldersOf(page)) {
    if (h.owner == owner) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

void LockManager::CollectBlockers(const Head& head, OwnerId requester,
                                  LockMode mode, bool is_upgrade) {
  for (const HolderInfo& h : head.holders) {
    if (h.owner == requester) {
      continue;
    }
    if (!Compatible(h.mode, mode)) {
      search_stack_.push_back(h.owner);
    }
  }
  for (std::size_t i = 0; i < head.waiters.size(); ++i) {
    const Waiter& w = head.waiters[i];
    if (w.owner == requester) {
      // Existing waiter: only those *ahead* of it block (FCFS).
      break;
    }
    if (is_upgrade && !w.is_upgrade) {
      // A new upgrade enters ahead of plain waiters; they do not block it.
      continue;
    }
    search_stack_.push_back(w.owner);
  }
}

bool LockManager::WouldDeadlock(OwnerId owner, db::PageId page,
                                LockMode mode) {
  const Head* head = FindHead(page);
  if (head == nullptr) {
    return false;
  }
  const bool is_upgrade =
      std::any_of(head->holders.begin(), head->holders.end(),
                  [&](const HolderInfo& h) { return h.owner == owner; });

  search_stack_.clear();
  ++search_epoch_;
  CollectBlockers(*head, owner, mode, is_upgrade);
  while (!search_stack_.empty()) {
    OwnerId blocker = search_stack_.back();
    search_stack_.pop_back();
    if (IsRetainedOwner(blocker)) {
      // A retained lock is released as soon as the owning client's current
      // transaction (if it uses the page) finishes; the waits-for successor
      // is that transaction.
      blocker = retained_proxy_ ? retained_proxy_(blocker) : 0;
      if (blocker == 0) {
        continue;
      }
    }
    if (blocker == owner) {
      return true;
    }
    OwnerRecord* record = FindOwner(blocker);
    if (record == nullptr || record->visited_epoch == search_epoch_) {
      continue;  // holds and awaits nothing, or already expanded
    }
    record->visited_epoch = search_epoch_;
    for (db::PageId blocked_page : record->waiting) {
      // Collect blockers for every queued request of this owner (there can
      // be both an S and an X record on the page).
      const Head& blocked = heads_[static_cast<std::size_t>(blocked_page)];
      for (std::size_t i = 0; i < blocked.waiters.size(); ++i) {
        const Waiter& w = blocked.waiters[i];
        if (w.owner == blocker) {
          CollectBlockers(blocked, blocker, w.mode, w.is_upgrade);
        }
      }
    }
  }
  return false;
}

sim::Task<LockOutcome> LockManager::Acquire(OwnerId owner, db::PageId page,
                                            LockMode mode) {
  Head& head = HeadOf(page);
  HolderInfo* mine = FindHolder(head, owner);
  if (mine != nullptr) {
    if (mode == LockMode::kShared || mine->mode == LockMode::kExclusive) {
      co_return LockOutcome::kGranted;  // already strong enough
    }
    // Upgrade S -> X: immediate when sole holder.
    if (head.holders.size() == 1) {
      mine->mode = LockMode::kExclusive;
      co_return LockOutcome::kGranted;
    }
    if (WouldDeadlock(owner, page, mode)) {
      ++deadlocks_detected_;
      co_return LockOutcome::kDeadlock;
    }
    // Upgrades queue ahead of plain waiters, behind earlier upgrades.
    std::size_t pos = 0;
    while (pos < head.waiters.size() && head.waiters[pos].is_upgrade) {
      ++pos;
    }
    sim::OneShot<LockOutcome> slot(simulator_);
    head.waiters.insert(pos, Waiter{owner, mode, /*is_upgrade=*/true, &slot});
    ++waiter_count_;
    RecordOf(owner).waiting.insert(page);
    const LockOutcome outcome = co_await slot.Wait();
    co_return outcome;
  }

  // Fresh request: grant only if compatible with holders and nobody queued
  // (strict FCFS — no jumping ahead of waiters).
  const bool holders_ok = std::all_of(
      head.holders.begin(), head.holders.end(),
      [&](const HolderInfo& h) { return Compatible(h.mode, mode); });
  if (holders_ok && head.waiters.empty()) {
    head.holders.push_back(HolderInfo{owner, mode});
    NoteHeld(owner, page);
    co_return LockOutcome::kGranted;
  }
  if (WouldDeadlock(owner, page, mode)) {
    ++deadlocks_detected_;
    co_return LockOutcome::kDeadlock;
  }
  sim::OneShot<LockOutcome> slot(simulator_);
  head.waiters.push_back(Waiter{owner, mode, /*is_upgrade=*/false, &slot});
  ++waiter_count_;
  RecordOf(owner).waiting.insert(page);
  const LockOutcome outcome = co_await slot.Wait();
  co_return outcome;
}

bool LockManager::CanGrant(const Head& head, const Waiter& waiter) const {
  // A waiter whose owner already holds the lock (it was granted after this
  // request queued — no-wait transactions issue several requests
  // concurrently) is an implicit upgrade/no-op.
  const HolderInfo* own = nullptr;
  for (const HolderInfo& h : head.holders) {
    if (h.owner == waiter.owner) {
      own = &h;
      break;
    }
  }
  if (waiter.is_upgrade || own != nullptr) {
    if (own != nullptr && (waiter.mode == LockMode::kShared ||
                           own->mode == LockMode::kExclusive)) {
      return true;  // already strong enough
    }
    // Upgrade: grantable when the owner is the only remaining holder.
    return head.holders.size() == 1 &&
           head.holders.front().owner == waiter.owner;
  }
  return std::all_of(
      head.holders.begin(), head.holders.end(),
      [&](const HolderInfo& h) { return Compatible(h.mode, waiter.mode); });
}

void LockManager::GrantEligible(db::PageId page) {
  Head* head = FindHead(page);
  if (head == nullptr) {
    return;
  }
  while (!head->waiters.empty() && CanGrant(*head, head->waiters.front())) {
    const Waiter w = head->waiters.front();
    head->waiters.pop_front();
    --waiter_count_;
    HolderInfo* mine = FindHolder(*head, w.owner);
    if (mine != nullptr) {
      // Upgrade (explicit or implicit): strengthen the held mode in place.
      if (w.mode == LockMode::kExclusive) {
        mine->mode = LockMode::kExclusive;
      }
    } else {
      CCSIM_CHECK(!w.is_upgrade);
      head->holders.push_back(HolderInfo{w.owner, w.mode});
      NoteHeld(w.owner, page);
    }
    EraseWait(w.owner, page, *head);
    w.slot->Set(LockOutcome::kGranted);
  }
}

void LockManager::Release(OwnerId owner, db::PageId page) {
  Head* head = FindHead(page);
  if (head == nullptr) {
    return;
  }
  HolderInfo* mine = FindHolder(*head, owner);
  if (mine == nullptr) {
    return;
  }
  head->holders.erase(mine);
  --held_count_;
  EraseHeld(owner, page);
  GrantEligible(page);
}

void LockManager::ReleaseAll(OwnerId owner) {
  const OwnerRecord* record = FindOwner(owner);
  if (record == nullptr || record->held.empty()) {
    return;
  }
  // Releases grant waiters, which may hand this owner a queued lock again;
  // walk a snapshot so such a grant is kept, not released in turn.
  pages_scratch_.assign(record->held.begin(), record->held.end());
  for (db::PageId page : pages_scratch_) {
    Release(owner, page);
  }
}

void LockManager::CancelOwner(OwnerId owner) {
  OwnerRecord* record = FindOwner(owner);
  if (record != nullptr && !record->waiting.empty()) {
    pages_scratch_.assign(record->waiting.begin(), record->waiting.end());
    record->waiting.clear();
    MaybeRetire(owner, *record);
    for (db::PageId page : pages_scratch_) {
      Head* head = FindHead(page);
      CCSIM_CHECK(head != nullptr);
      // Cancel *every* queued record of this owner on the page (a no-wait
      // transaction can have both an S and an X request queued here).
      bool cancelled_any = false;
      for (std::size_t i = 0; i < head->waiters.size();) {
        if (head->waiters[i].owner != owner) {
          ++i;
          continue;
        }
        sim::OneShot<LockOutcome>* slot = head->waiters[i].slot;
        head->waiters.erase(i);
        --waiter_count_;
        cancelled_any = true;
        slot->Set(LockOutcome::kAborted);
      }
      CCSIM_CHECK(cancelled_any);
      GrantEligible(page);  // their removal may unblock others
    }
  }
  ReleaseAll(owner);
}

void LockManager::Reset() {
  // Collect the slots first (ascending page, FIFO within a page): waking a
  // waiter mutates nothing here (Set only schedules a resume), but walking
  // a table we are also clearing would.
  reset_slots_.clear();
  for (Head& head : heads_) {
    for (std::size_t i = 0; i < head.waiters.size(); ++i) {
      reset_slots_.push_back(head.waiters[i].slot);
    }
    head.holders.clear();
    head.waiters.clear();
  }
  owners_.ForEach([this](OwnerId, OwnerRecord* record) {
    owner_pool_.Release(record);
  });
  owners_.Clear();
  held_count_ = 0;
  waiter_count_ = 0;
  for (sim::OneShot<LockOutcome>* slot : reset_slots_) {
    slot->Set(LockOutcome::kAborted);
  }
}

void LockManager::TransferLock(OwnerId from, OwnerId to, db::PageId page) {
  Head* head = FindHead(page);
  CCSIM_CHECK_MSG(head != nullptr && !head->holders.empty(),
                  "TransferLock on unlocked page");
  HolderInfo* source = FindHolder(*head, from);
  CCSIM_CHECK_MSG(source != nullptr, "TransferLock: source not a holder");
  HolderInfo* target = FindHolder(*head, to);
  if (target != nullptr) {
    // Merge: keep the stronger mode under the target owner.
    if (source->mode == LockMode::kExclusive) {
      target->mode = LockMode::kExclusive;
    }
    head->holders.erase(source);
    --held_count_;
  } else {
    source->owner = to;
    RecordOf(to).held.insert(page);
  }
  EraseHeld(from, page);
  if (target != nullptr) {
    GrantEligible(page);
  }
}

void LockManager::Downgrade(OwnerId owner, db::PageId page) {
  Head* head = FindHead(page);
  CCSIM_CHECK(head != nullptr);
  HolderInfo* mine = FindHolder(*head, owner);
  CCSIM_CHECK(mine != nullptr);
  mine->mode = LockMode::kShared;
  GrantEligible(page);
}

void LockManager::DebugDump(std::FILE* out) const {
  for (std::size_t page = 0; page < heads_.size(); ++page) {
    const Head& head = heads_[page];
    if (head.waiters.empty()) {
      continue;
    }
    std::fprintf(out, "page %zu holders:", page);
    for (const HolderInfo& h : head.holders) {
      std::fprintf(out, " %llu%s", (unsigned long long)h.owner,
                   h.mode == LockMode::kExclusive ? "X" : "S");
    }
    std::fprintf(out, " waiters:");
    for (std::size_t i = 0; i < head.waiters.size(); ++i) {
      const Waiter& w = head.waiters[i];
      std::fprintf(out, " %llu%s%s", (unsigned long long)w.owner,
                   w.mode == LockMode::kExclusive ? "X" : "S",
                   w.is_upgrade ? "(up)" : "");
    }
    std::fprintf(out, "\n");
  }
}

}  // namespace ccsim::lock
