#ifndef CCSIM_PROTO_PROTOCOL_H_
#define CCSIM_PROTO_PROTOCOL_H_

#include <vector>

#include "client/client.h"
#include "net/message.h"
#include "server/server.h"
#include "sim/process.h"
#include "sim/task.h"
#include "workload/workload.h"

namespace ccsim::proto {

/// Client half of a cache consistency algorithm: the algorithm-dependent
/// client transaction manager of paper §3.3.3. One instance per client.
///
/// The base class drives the transaction loop of paper Figure 3
/// (ReadObject, UserDelay, UpdateObject, UserDelay, ... Commit) and
/// provides the default eviction side effects; subclasses implement the
/// per-operation protocol.
class ClientProtocol {
 public:
  explicit ClientProtocol(client::Client* client) : c_(*client) {}
  virtual ~ClientProtocol() = default;

  ClientProtocol(const ClientProtocol&) = delete;
  ClientProtocol& operator=(const ClientProtocol&) = delete;

  /// Executes one attempt of the transaction; true = committed.
  sim::Task<bool> RunAttempt(const workload::TransactionSpec& spec);

  /// Called when a fresh attempt begins (uid already assigned).
  virtual void OnAttemptStart() {}

  /// Post-attempt cleanup. The default drops locally updated (dirty) pages
  /// on abort (their uncommitted contents are invalid under in-place
  /// update), drops pages the server reported stale, and clears
  /// per-transaction cache state.
  virtual sim::Task<void> OnAttemptEnd(bool committed);

  /// Handles an asynchronous (non-reply) server message. The default
  /// understands kAbortNotice and kUpdatePropagation; algorithm-specific
  /// messages are handled in overrides.
  /// Both handlers take lvalue references: every call site owns the
  /// argument and co_awaits the handler to completion, so the reference
  /// outlives the coroutine and the old by-value copies were pure waste.
  virtual sim::Task<void> HandleAsync(net::Message& msg);

  /// Eviction side effects for pages pushed out of the client cache: dirty
  /// pages are shipped to the server; retained locks are surrendered with
  /// an eviction notice (callback locking).
  virtual sim::Task<void> HandleEvictions(
      client::ClientCache::EvictedList& victims);

 protected:
  virtual sim::Task<bool> ReadObject(const workload::Step& step) = 0;
  virtual sim::Task<bool> UpdateObject(const workload::Step& step) = 0;
  virtual sim::Task<bool> Commit(const workload::TransactionSpec& spec) = 0;

  client::Client& c_;
};

/// Server half of a cache consistency algorithm: the algorithm-dependent
/// server transaction manager of paper §3.3.4. One instance per server.
class ServerProtocol {
 public:
  explicit ServerProtocol(server::Server* server) : s_(*server) {}
  virtual ~ServerProtocol() = default;

  ServerProtocol(const ServerProtocol&) = delete;
  ServerProtocol& operator=(const ServerProtocol&) = delete;

  /// Handles one dispatched message; the server runs each in its own
  /// process so handlers for different messages interleave (and block
  /// independently on locks, disks, and the CPU). The handler owns the
  /// message until it finishes; per-type handlers it awaits borrow it by
  /// reference.
  virtual sim::Task<void> Handle(net::MessagePtr msg) = 0;

  /// Recovery mode: the server crashed; algorithm-private volatile state
  /// (outstanding callbacks, pending invalidations, ...) is gone.
  virtual void OnCrash() {}

  /// Recovery mode: a client crash-restarted (or was garbage-collected);
  /// drop algorithm-private state keyed to its previous life.
  virtual void OnClientReset(int /*client*/) {}

 protected:
  server::Server& s_;
};

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_PROTOCOL_H_
