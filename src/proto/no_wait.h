#ifndef CCSIM_PROTO_NO_WAIT_H_
#define CCSIM_PROTO_NO_WAIT_H_

#include <cstdint>
#include <unordered_map>

#include "config/params.h"
#include "proto/protocol.h"

namespace ccsim::proto {

/// No-wait ("optimistic") locking (paper §2.4, Gerson's algorithm from
/// Statice): the client assumes cached pages are valid and keeps executing;
/// lock/validate requests go to the server asynchronously and the server
/// answers only negatively (an abort notice). Cache misses still fetch
/// synchronously. A transaction can commit only after the server has
/// resolved all of its outstanding requests.
class NoWaitClient : public ClientProtocol {
 public:
  explicit NoWaitClient(client::Client* client) : ClientProtocol(client) {}

  sim::Task<void> OnAttemptEnd(bool committed) override;

 protected:
  sim::Task<bool> ReadObject(const workload::Step& step) override;
  sim::Task<bool> UpdateObject(const workload::Step& step) override;
  sim::Task<bool> Commit(const workload::TransactionSpec& spec) override;

 private:
  /// Recovery mode: version of every page at the moment this attempt first
  /// used it. The fire-and-forget lock/validate request may be lost, so the
  /// commit carries these for a server-side backward validation.
  std::unordered_map<db::PageId, std::uint64_t> read_set_;
};

/// Server half of no-wait locking. With `notify` (paper §2.5), committed
/// updates are propagated to every client the directory believes caches the
/// page, reducing stale-read aborts; `notify_invalidate` is the ablation
/// that sends invalidations instead of new copies.
class NoWaitServer : public ServerProtocol {
 public:
  NoWaitServer(server::Server* server, bool notify, bool notify_invalidate,
               bool notify_broadcast)
      : ServerProtocol(server), notify_(notify),
        notify_invalidate_(notify_invalidate),
        notify_broadcast_(notify_broadcast) {}

  sim::Task<void> Handle(net::MessagePtr msg) override;

 private:
  sim::Task<void> HandleNoWaitLock(const net::Message& msg);
  sim::Task<void> HandleRead(const net::Message& msg);
  sim::Task<void> HandleCommit(const net::Message& msg);
  sim::Task<void> HandleDirtyEvict(const net::Message& msg);

  /// Aborts the transaction server-side and sends the asynchronous abort
  /// notice (with the stale pages collected so far). No-op when already
  /// aborted.
  sim::Task<void> AbortWithNotice(server::XactState& state);

  /// Propagates the committed updates (`pages` at their new `versions`)
  /// to caching clients.
  sim::Task<void> PropagateUpdates(const server::XactState& state,
                                   const net::PageList& pages,
                                   const net::VersionList& versions);

  bool notify_;
  bool notify_invalidate_;
  bool notify_broadcast_;
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_NO_WAIT_H_
