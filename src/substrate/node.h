#ifndef CCSIM_SUBSTRATE_NODE_H_
#define CCSIM_SUBSTRATE_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "client/client.h"
#include "config/params.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "runner/metrics.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "substrate/realtime.h"
#include "substrate/wire.h"

namespace ccsim::substrate {

/// Strips the simulated hardware costs out of a config for real-substrate
/// runs: the wire is a real socket (no modeled network delay or per-packet
/// CPU charge), the page store is in-memory (no seeks, no transfer time),
/// and page processing is the real CPU work of handling the message. Think
/// times and workload shape are left untouched — they are the experiment,
/// not the hardware.
config::ExperimentConfig RawSpeedConfig(config::ExperimentConfig config);

/// Builds the Hello both ends of the wire validate against (client-range
/// fields zeroed; shards fill in their own).
Hello MakeHello(const config::ExperimentConfig& config);

/// What a ServerNode and a ClientShard share: the config the model objects
/// refer to, a calendar driven by a RealtimeSubstrate, the database
/// layout, metrics, the network endpoint table, and the optional inbound
/// filter in front of the model's inboxes.
class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Interposes `filter` between the transport and the model's inboxes:
  /// messages for which it returns false are discarded. Used by the wire
  /// fault adapter to enforce crash/partition windows on inbound traffic.
  /// Fault-free runs never call this; their sink is an inbox push behind
  /// one null check. Call before the loop starts; the filter runs on the
  /// loop thread.
  void InstallInboundFilter(std::function<bool(const net::Message&)> filter) {
    inbound_filter_ = std::move(filter);
  }

  RealtimeSubstrate& substrate() { return substrate_; }
  net::Network& network() { return network_; }
  runner::Metrics& metrics() { return metrics_; }

 protected:
  Node(const config::ExperimentConfig& config, std::uint64_t seed);
  ~Node() = default;

  /// False when the inbound filter discards `msg`.
  bool Admit(const net::Message& msg) const {
    return !inbound_filter_ || inbound_filter_(msg);
  }

  config::ExperimentConfig config_;
  sim::Simulator sim_;
  RealtimeSubstrate substrate_;
  db::DatabaseLayout layout_;
  runner::Metrics metrics_;
  net::Network network_;

 private:
  std::function<bool(const net::Message&)> inbound_filter_;
};

/// A real page server: the unchanged server::Server (buffer pool, lock
/// manager, log, directory, protocol) running on a RealtimeSubstrate, with
/// inbound messages injected from the TCP transport. One instance per
/// ccserve process (or per in-process loopback experiment).
class ServerNode : public Node {
 public:
  ServerNode(const config::ExperimentConfig& config, std::uint64_t seed);
  ~ServerNode();

  /// Spawns the server's dispatcher process. Call after installing the
  /// transport on network().
  void Start();

  /// Runs the event loop on the calling thread until Stop()/horizon.
  std::uint64_t RunLoop(sim::Ticks horizon);

  /// Joins the checker's verification thread and finalizes the oracle
  /// (call once, after the loop has stopped); a no-op without a checker.
  void FinalizeChecker();

  server::Server& server() { return *server_; }
  check::Checker* checker() { return checker_.get(); }

 private:
  std::unique_ptr<check::Checker> checker_;
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<fault::FaultInjector> storage_injector_;
};

/// A slice of the client population — global ids [client_lo, client_hi) —
/// running on its own RealtimeSubstrate (one loop thread per shard, so a
/// multi-threaded load generator is N shards). The clients, their caches,
/// the workload generator, and the client protocol halves are the same
/// code that runs under the DES substrate; RNG streams are derived from
/// the global client id, so shard boundaries do not change any client's
/// workload. Transaction uid sequences start at a wall-clock session base,
/// so a long-lived server takes each later session's uids as new.
class ClientShard : public Node {
 public:
  ClientShard(const config::ExperimentConfig& config, std::uint64_t seed,
              int client_lo, int client_hi);
  ~ClientShard();

  /// Spawns every client's driver/dispatcher. Call after installing the
  /// transport on network().
  void Start();

  /// Runs the event loop on the calling thread for `duration` wall ticks,
  /// resetting the stats window after `warmup` ticks.
  std::uint64_t RunLoop(sim::Ticks warmup, sim::Ticks duration);

  /// The shard's clients (harvest only — do not touch while the loop runs).
  const std::vector<std::unique_ptr<client::Client>>& clients() const {
    return clients_;
  }

 private:
  int client_lo_;
  int client_hi_;
  std::vector<std::unique_ptr<client::Client>> clients_;
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_NODE_H_
