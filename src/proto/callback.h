#ifndef CCSIM_PROTO_CALLBACK_H_
#define CCSIM_PROTO_CALLBACK_H_

#include <set>
#include <unordered_set>
#include <utility>

#include "config/params.h"
#include "proto/protocol.h"

namespace ccsim::proto {

/// Callback locking (paper §2.3), the Andrew File System idea applied to a
/// page-server DBMS: clients keep ("retain") read locks on cached pages
/// after commit, so re-accessing those pages requires no server contact at
/// all. When another client needs an exclusive lock, the server *calls
/// back* the retained locks; a client relinquishes immediately unless its
/// current transaction uses the page, in which case the release happens at
/// transaction end.
///
/// Per the paper only read locks are retained (write locks are downgraded
/// to retained read locks at commit); `retain_write_locks` is the ablation
/// that retains write locks too.
class CallbackClient : public ClientProtocol {
 public:
  CallbackClient(client::Client* client, bool retain_write_locks,
                 bool explicit_evict_notices)
      : ClientProtocol(client), retain_write_locks_(retain_write_locks),
        explicit_evict_notices_(explicit_evict_notices) {}

  sim::Task<void> OnAttemptEnd(bool committed) override;
  sim::Task<void> HandleAsync(net::Message& msg) override;
  sim::Task<void> HandleEvictions(
      client::ClientCache::EvictedList& victims) override;

 protected:
  sim::Task<bool> ReadObject(const workload::Step& step) override;
  sim::Task<bool> UpdateObject(const workload::Step& step) override;
  sim::Task<bool> Commit(const workload::TransactionSpec& spec) override;

 private:
  /// Drains the piggyback queue of retained-lock eviction notices into
  /// `msg` (the queue keeps its capacity).
  void AttachEvictNotices(net::Message& msg) {
    msg.evicted_pages = pending_evict_notices_;
    pending_evict_notices_.clear();
  }

  bool retain_write_locks_;
  bool explicit_evict_notices_;
  /// Called-back pages in use by the current transaction; released (with a
  /// kCallbackRelease message) when the transaction ends.
  std::unordered_set<db::PageId> deferred_callbacks_;
  /// Evicted retained locks awaiting piggybacking on the next message.
  std::vector<db::PageId> pending_evict_notices_;
};

/// Server half of callback locking: retained lock owners per client, lock
/// absorption (retained -> transaction on first transactional touch),
/// callback requests to conflicting retainers, and commit-time downgrade of
/// transaction locks into retained locks.
class CallbackServer : public ServerProtocol {
 public:
  CallbackServer(server::Server* server, bool retain_write_locks);


  sim::Task<void> Handle(net::MessagePtr msg) override;
  void OnCrash() override;
  void OnClientReset(int client) override;

 private:
  sim::Task<void> HandleRead(const net::Message& msg);
  sim::Task<void> HandleUpgrade(const net::Message& msg);
  sim::Task<void> HandleCommit(const net::Message& msg);
  sim::Task<void> HandleDirtyEvict(const net::Message& msg);
  void HandleRetainedRelease(int client, std::span<const db::PageId> pages,
                             bool drop_directory);

  /// If the requesting client's own retained owner holds the page, move the
  /// lock to the transaction so it does not conflict with itself.
  void AbsorbRetained(const server::XactState& state, db::PageId page);

  /// Spawned after the requesting transaction has *enqueued* its lock wait:
  /// sends callback requests to every other client retaining the page with
  /// a mode incompatible with `mode` (deduplicated while outstanding).
  /// Running after the enqueue closes the race where a commit re-retains
  /// the lock between the callback decision and the wait.
  sim::Process RequestCallbacks(int requester_client, db::PageId page,
                                lock::LockMode mode);

  bool retain_write_locks_;
  /// Recovery mode: retained-lock lease length (0 = leases off). A callback
  /// unanswered past the lease is force-released server-side.
  sim::Ticks lease_ticks_ = 0;
  /// (page, client) pairs with an outstanding callback request.
  std::set<std::pair<db::PageId, int>> outstanding_callbacks_;
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_CALLBACK_H_
