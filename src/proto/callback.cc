#include "proto/callback.h"

#include <algorithm>
#include <utility>

#include "check/checker.h"
#include "util/macros.h"

namespace ccsim::proto {

// --- client ---

sim::Task<bool> CallbackClient::ReadObject(const workload::Step& step) {
  // Built in place: cached pages to validate (with their versions) and
  // uncached pages to fetch.
  net::MessagePtr request = net::NewMessage();
  for (db::PageId page : step.read_pages) {
    client::CachedPage* entry = c_.cache().Touch(page);
    if (entry == nullptr) {
      c_.cache().RecordMiss();
      request->fetch_pages.push_back(page);
      continue;
    }
    if (entry->lock != client::PageLock::kNone) {
      c_.cache().RecordHit();
      c_.cache().Pin(page);
      continue;
    }
    if (entry->retained) {
      if (entry->lease_until != 0 &&
          c_.simulator().Now() > entry->lease_until) {
        // Recovery mode: the lease ran out, so a lost callback may have
        // let the server force-release this lock behind our back. Stop
        // trusting it and re-validate with the server like an ordinary
        // cached copy.
        c_.metrics().RecordLeaseExpiry();
        entry->retained = false;
        entry->retained_x = false;
        entry->lease_until = 0;
      } else {
        // The whole point of callback locking: a retained lock guarantees
        // validity, so the read needs no server contact at all.
        if (check::Checker* checker = c_.metrics().checker()) {
          checker->OnTrustedLocalRead(c_.id(), page, entry->version,
                                      /*retained_lock=*/true,
                                      entry->lease_until,
                                      c_.simulator().Now(),
                                      /*fault_free=*/!c_.resilient());
        }
        entry->lock = (retain_write_locks_ && entry->retained_x)
                          ? client::PageLock::kExclusive
                          : client::PageLock::kShared;
        c_.cache().RecordHit();
        c_.cache().Pin(page);
        continue;
      }
    }
    request->pages.push_back(page);
    request->versions.push_back(entry->version);
    c_.cache().Pin(page);
  }

  if (!request->pages.empty() || !request->fetch_pages.empty()) {
    request->type = net::MsgType::kReadRequest;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kShared;
    AttachEvictNotices(*request);
    const net::PageList check = request->pages;
    net::MessagePtr reply = co_await c_.Rpc(std::move(request));
    if (reply->aborted) {
      c_.NoteAbort(c_.current_xact(), reply->pages);
      co_return false;
    }
    for (std::size_t i = 0; i < reply->data_pages.size(); ++i) {
      const db::PageId page = reply->data_pages[i];
      client::CachedPage* entry = c_.cache().Find(page);
      if (entry != nullptr) {
        entry->version = reply->data_versions[i];
      } else {
        client::CachedPage info;
        info.version = reply->data_versions[i];
        co_await c_.InstallPage(page, info);
      }
    }
    for (db::PageId page : check) {
      const bool refreshed =
          std::find(reply->data_pages.begin(), reply->data_pages.end(), page) !=
          reply->data_pages.end();
      if (refreshed) {
        c_.cache().RecordMiss();
      } else {
        c_.cache().RecordHit();
      }
    }
    for (db::PageId page : step.read_pages) {
      client::CachedPage* entry = c_.cache().Find(page);
      CCSIM_CHECK(entry != nullptr);
      if (entry->lock == client::PageLock::kNone) {
        entry->lock = client::PageLock::kShared;
      }
      c_.cache().Pin(page);
    }
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.read_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> CallbackClient::UpdateObject(const workload::Step& step) {
  net::MessagePtr request = net::NewMessage();
  for (db::PageId page : step.write_pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    CCSIM_CHECK(entry != nullptr);
    if (entry->lock != client::PageLock::kExclusive) {
      request->pages.push_back(page);
    }
  }
  if (!request->pages.empty()) {
    request->type = net::MsgType::kUpgradeRequest;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kExclusive;
    AttachEvictNotices(*request);
    const net::PageList upgrade = request->pages;
    net::MessagePtr reply = co_await c_.Rpc(std::move(request));
    if (reply->aborted) {
      c_.NoteAbort(c_.current_xact(), reply->pages);
      co_return false;
    }
    for (db::PageId page : upgrade) {
      c_.cache().Find(page)->lock = client::PageLock::kExclusive;
    }
  }
  for (db::PageId page : step.write_pages) {
    c_.cache().Find(page)->dirty = true;
    c_.NoteUpdated(page);
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.write_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> CallbackClient::Commit(const workload::TransactionSpec& spec) {
  (void)spec;
  net::MessagePtr request = net::NewMessage();
  request->type = net::MsgType::kCommitRequest;
  request->xact = c_.current_xact();
  request->data_pages = c_.cache().DirtyPages();
  AttachEvictNotices(*request);
  // Reads served purely from retained locks never contacted the server;
  // report them so the commit-time serializability oracle covers them.
  c_.cache().ForEach([&](db::PageId page, const client::CachedPage& entry) {
    if (entry.lock != client::PageLock::kNone && c_.cache().IsPinned(page)) {
      request->read_set.push_back(page);
      request->read_versions.push_back(entry.version);
    }
  });
  net::MessagePtr reply = co_await c_.Rpc(std::move(request));
  if (reply->aborted) {
    c_.NoteAbort(c_.current_xact(), reply->pages);
    co_return false;
  }
  for (std::size_t i = 0; i < reply->pages.size(); ++i) {
    client::CachedPage* entry = c_.cache().Find(reply->pages[i]);
    if (entry != nullptr) {
      entry->version = reply->versions[i];
      entry->dirty = false;
    }
  }
  // The server converted this transaction's locks into retained locks,
  // except the pages it released to queued waiters.
  const std::int64_t lease_until =
      c_.lease_ticks() > 0 ? c_.simulator().Now() + c_.lease_ticks() : 0;
  c_.cache().ForEach([&](db::PageId page, const client::CachedPage& entry) {
    if (entry.lock != client::PageLock::kNone) {
      // ForEach is const; mutate via Find.
      client::CachedPage* mutable_entry = c_.cache().Find(page);
      mutable_entry->retained = true;
      mutable_entry->retained_x = retain_write_locks_ &&
                                  entry.lock == client::PageLock::kExclusive;
      mutable_entry->lease_until = lease_until;
    }
  });
  for (db::PageId page : reply->released_pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    if (entry != nullptr) {
      entry->retained = false;
      entry->retained_x = false;
      entry->lease_until = 0;
    }
  }
  co_return true;
}

sim::Task<void> CallbackClient::OnAttemptEnd(bool committed) {
  if (!committed) {
    for (db::PageId page : c_.cache().DirtyPages()) {
      c_.cache().Erase(page);
    }
    // The server released every lock the aborted transaction held,
    // including absorbed retained locks: those pages are no longer
    // protected.
    c_.cache().ForEach([&](db::PageId page, const client::CachedPage& entry) {
      if (entry.lock != client::PageLock::kNone && entry.retained) {
        client::CachedPage* mutable_entry = c_.cache().Find(page);
        mutable_entry->retained = false;
        mutable_entry->retained_x = false;
      }
    });
  }
  for (db::PageId page : c_.TakePendingStale()) {
    c_.cache().Erase(page);
  }
  // Deferred callbacks: the transaction is over, relinquish now.
  if (!deferred_callbacks_.empty()) {
    net::MessagePtr release = net::NewMessage();
    release->type = net::MsgType::kCallbackRelease;
    release->xact = 0;
    for (db::PageId page : deferred_callbacks_) {
      release->pages.push_back(page);
      client::CachedPage* entry = c_.cache().Find(page);
      if (entry != nullptr) {
        entry->retained = false;
      }
    }
    deferred_callbacks_.clear();
    c_.cache().EndTransaction();
    co_await c_.SendAsync(std::move(release));
  } else {
    c_.cache().EndTransaction();
  }
}

sim::Task<void> CallbackClient::HandleEvictions(
    client::ClientCache::EvictedList& victims) {
  client::ClientCache::EvictedList rest;
  for (client::ClientCache::Evicted& victim : victims) {
    if (!victim.info.dirty && victim.info.retained &&
        !explicit_evict_notices_) {
      // Piggyback the notice on the next message to the server instead of
      // paying a dedicated message (the explicit-notice ablation keeps the
      // dedicated kEvictNotice message).
      pending_evict_notices_.push_back(victim.page);
      continue;
    }
    rest.push_back(victim);
  }
  if (!rest.empty()) {
    co_await ClientProtocol::HandleEvictions(rest);
  }
}

sim::Task<void> CallbackClient::HandleAsync(net::Message& msg) {
  if (msg.type != net::MsgType::kCallbackRequest) {
    co_await ClientProtocol::HandleAsync(msg);
    co_return;
  }
  net::MessagePtr release = net::NewMessage();
  release->type = net::MsgType::kCallbackRelease;
  release->xact = 0;
  for (db::PageId page : msg.pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    const bool in_use = entry != nullptr && c_.cache().IsPinned(page) &&
                        c_.current_xact() != 0;
    if (in_use) {
      // Used by the current transaction: release at transaction end
      // (paper §2.3).
      deferred_callbacks_.insert(page);
      continue;
    }
    if (entry != nullptr) {
      entry->retained = false;  // the page itself stays cached, unlocked
      entry->retained_x = false;
    }
    release->pages.push_back(page);
  }
  if (!release->pages.empty()) {
    co_await c_.SendAsync(std::move(release));
  }
}

// --- server ---

CallbackServer::CallbackServer(server::Server* server,
                               bool retain_write_locks)
    : ServerProtocol(server), retain_write_locks_(retain_write_locks) {
  if (s_.resilient()) {
    lease_ticks_ = sim::MillisToTicks(s_.config().fault.lease_ms);
  }
  // Deadlock detection must see through retained locks: a retained lock in
  // use by the owning client's current transaction is released only when
  // that transaction finishes.
  server::Server* srv = server;
  s_.locks().set_retained_proxy([srv](lock::OwnerId owner) {
    return srv->ActiveXactOfClient(lock::RetainedClient(owner));
  });
}

void CallbackServer::AbsorbRetained(const server::XactState& state,
                                    db::PageId page) {
  const lock::OwnerId retained = lock::RetainedOwner(state.client);
  if (s_.locks().Holds(retained, page, lock::LockMode::kShared)) {
    s_.locks().TransferLock(retained, state.uid, page);
  }
}

sim::Process CallbackServer::RequestCallbacks(int requester_client,
                                              db::PageId page,
                                              lock::LockMode mode) {
  for (const lock::LockManager::HolderInfo& holder :
       s_.locks().HoldersOf(page)) {
    if (!lock::IsRetainedOwner(holder.owner)) {
      continue;  // a transaction: it will finish on its own
    }
    if (holder.mode == lock::LockMode::kShared &&
        mode == lock::LockMode::kShared) {
      continue;  // compatible: no need to call the lock back
    }
    const int client = lock::RetainedClient(holder.owner);
    if (client == requester_client) {
      continue;  // own retained lock is absorbed, not called back
    }
    if (!outstanding_callbacks_.insert({page, client}).second) {
      continue;  // already asked
    }
    net::MessagePtr callback = net::NewMessage();
    callback->type = net::MsgType::kCallbackRequest;
    callback->dst = client;
    callback->pages.push_back(page);
    if (lease_ticks_ > 0) {
      // Recovery mode: the callback request or its release may be lost, or
      // the retainer may be dead. After 1.5 leases (past the point where
      // the client stops trusting the copy) revoke the lock unilaterally so
      // the waiter is not wedged forever.
      s_.simulator().ScheduleAfter(lease_ticks_ + lease_ticks_ / 2, [this,
                                                                     page,
                                                                     client] {
        if (s_.down()) {
          return;
        }
        if (outstanding_callbacks_.count({page, client}) != 0) {
          s_.metrics().RecordLeaseExpiry();
          const db::PageId one[] = {page};
          HandleRetainedRelease(client, one, /*drop_directory=*/true);
        }
      });
    }
    co_await s_.Send(std::move(callback));
  }
}

void CallbackServer::HandleRetainedRelease(
    int client, std::span<const db::PageId> pages, bool drop_directory) {
  for (db::PageId page : pages) {
    s_.locks().Release(lock::RetainedOwner(client), page);
    outstanding_callbacks_.erase({page, client});
    if (drop_directory) {
      s_.directory().Drop(client, page);
    }
  }
}

sim::Task<void> CallbackServer::Handle(net::MessagePtr msg) {
  if (!msg->evicted_pages.empty() && msg->src != net::kServerNode) {
    HandleRetainedRelease(msg->src, msg->evicted_pages,
                          /*drop_directory=*/true);
  }
  switch (msg->type) {
    case net::MsgType::kReadRequest:
      co_await HandleRead(*msg);
      break;
    case net::MsgType::kUpgradeRequest:
      co_await HandleUpgrade(*msg);
      break;
    case net::MsgType::kCommitRequest:
      co_await HandleCommit(*msg);
      break;
    case net::MsgType::kDirtyEvict:
      co_await HandleDirtyEvict(*msg);
      break;
    case net::MsgType::kEvictNotice:
      // A clean page with a retained lock left a client cache.
      HandleRetainedRelease(msg->src, msg->pages, /*drop_directory=*/true);
      break;
    case net::MsgType::kCallbackRelease:
      // The client still caches the page; only the lock goes away.
      HandleRetainedRelease(msg->src, msg->pages, /*drop_directory=*/false);
      break;
    default:
      break;
  }
}

sim::Task<void> CallbackServer::HandleRead(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  std::vector<db::PageId> all_pages(msg.pages.begin(), msg.pages.end());
  all_pages.insert(all_pages.end(), msg.fetch_pages.begin(),
                   msg.fetch_pages.end());
  for (db::PageId page : all_pages) {
    AbsorbRetained(*state, page);
    if (retain_write_locks_) {
      // Retained exclusive locks can block shared requests too. The sender
      // runs after our Acquire below has enqueued.
      s_.simulator().Spawn(
          RequestCallbacks(state->client, page, lock::LockMode::kShared));
    }
    const lock::LockOutcome outcome =
        co_await s_.locks().Acquire(state->uid, page, lock::LockMode::kShared);
    if (outcome != lock::LockOutcome::kGranted) {
      if (!state->aborted) {
        co_await s_.AbortPipeline(*state);
      }
      net::MessagePtr reply = net::NewMessage();
      reply->type = net::MsgType::kReadReply;
      reply->aborted = true;
      co_await s_.Reply(msg, std::move(reply));
      co_return;
    }
  }
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kReadReply;
  std::vector<db::PageId> to_read(msg.fetch_pages.begin(),
                                  msg.fetch_pages.end());
  for (std::size_t i = 0; i < msg.pages.size(); ++i) {
    const db::PageId page = msg.pages[i];
    if (s_.versions().Get(page) == msg.versions[i]) {
      state->read_versions[page] = msg.versions[i];
      s_.directory().Note(state->client, page);
    } else {
      to_read.push_back(page);
    }
  }
  co_await s_.ReadPagesToClient(*state, std::move(to_read), reply.get(),
                                /*record_reads=*/true);
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> CallbackServer::HandleUpgrade(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  for (db::PageId page : msg.pages) {
    AbsorbRetained(*state, page);
    // Ask other clients retaining the page to give their locks back while
    // we wait for the exclusive grant. The callback sender is spawned so it
    // runs *after* the Acquire below has put us in the wait queue: any
    // commit that would re-retain the lock then sees a waiter and releases
    // instead (no retained holder can appear behind the sender's back).
    s_.simulator().Spawn(
        RequestCallbacks(state->client, page, lock::LockMode::kExclusive));
    const lock::LockOutcome outcome = co_await s_.locks().Acquire(
        state->uid, page, lock::LockMode::kExclusive);
    if (outcome != lock::LockOutcome::kGranted) {
      if (!state->aborted) {
        co_await s_.AbortPipeline(*state);
      }
      net::MessagePtr reply = net::NewMessage();
      reply->type = net::MsgType::kUpgradeReply;
      reply->aborted = true;
      co_await s_.Reply(msg, std::move(reply));
      co_return;
    }
  }
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kUpgradeReply;
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> CallbackServer::HandleCommit(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  if (state->aborted || state->done) {
    // Only reachable with fault injection: the transaction was aborted
    // (GC, crash) while this commit was queued or in flight.
    CCSIM_CHECK(s_.resilient());
    net::MessagePtr reply = net::NewMessage();
    reply->type = net::MsgType::kCommitReply;
    reply->aborted = true;
    co_await s_.Reply(msg, std::move(reply));
    co_return;
  }
  // Reads served from retained locks enter the oracle read set; their
  // retained locks protected them the whole time.
  for (std::size_t i = 0; i < msg.read_set.size(); ++i) {
    state->read_versions[msg.read_set[i]] = msg.read_versions[i];
  }
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kCommitReply;
  if (!s_.ValidateCommitForRecovery(*state, msg)) {
    // Recovery mode: a lease force-release let a rival update a page this
    // transaction read locally, or a dirty eviction never arrived.
    reply->aborted = true;
    reply->pages = std::move(state->stale_pages);
    if (!state->aborted && !state->done) {
      co_await s_.AbortPipeline(*state);
    } else {
      s_.PurgeUncommitted(state->uid);
    }
    co_await s_.Reply(msg, std::move(reply));
    co_return;
  }
  co_await s_.FinalizeCommit(*state, reply.get());
  // Lock disposition: the transaction's locks become retained locks of the
  // client. Only read locks are retained (write locks are downgraded)
  // unless the retain-write-locks ablation is on. Pages another
  // transaction is already queued on are released outright — retaining
  // them would stall the waiter forever, since its callback round already
  // happened.
  const lock::OwnerId retained = lock::RetainedOwner(state->client);
  for (db::PageId page : s_.locks().PagesHeldBy(state->uid)) {
    if (s_.locks().HasWaiters(page)) {
      s_.locks().Release(state->uid, page);
      reply->released_pages.push_back(page);
      continue;
    }
    if (!retain_write_locks_ &&
        s_.locks().Holds(state->uid, page, lock::LockMode::kExclusive)) {
      s_.locks().Downgrade(state->uid, page);
    }
    s_.locks().TransferLock(state->uid, retained, page);
  }
  co_await s_.Reply(msg, std::move(reply));
}

void CallbackServer::OnCrash() {
  // The lock table was wiped with the rest of volatile state; there is
  // nothing left to call back.
  outstanding_callbacks_.clear();
}

void CallbackServer::OnClientReset(int client) {
  // The client's retained locks were just bulk-released (its cache is
  // gone); drop the pending callbacks so the lease force-release timers
  // become no-ops.
  for (auto it = outstanding_callbacks_.begin();
       it != outstanding_callbacks_.end();) {
    if (it->second == client) {
      it = outstanding_callbacks_.erase(it);
    } else {
      ++it;
    }
  }
}

sim::Task<void> CallbackServer::HandleDirtyEvict(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  if (state == nullptr || state->aborted || state->done) {
    co_return;
  }
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
}

}  // namespace ccsim::proto
