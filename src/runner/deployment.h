#ifndef CCSIM_RUNNER_DEPLOYMENT_H_
#define CCSIM_RUNNER_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "config/params.h"
#include "fault/fault_plan.h"
#include "runner/experiment.h"
#include "substrate/faulty_transport.h"
#include "substrate/node.h"
#include "substrate/tcp.h"
#include "util/status.h"

namespace ccsim::runner {

/// Rejects configurations that only make sense on the DES substrate,
/// naming the offending flag: client-node crash windows (shards have no
/// crash/restart hook). Everything else — message drop/dup/delay-spike,
/// partitions (soft and hard), server crash+restart, storage faults —
/// runs on the wire via the WireFaultAdapter.
Status ValidateRealConfig(const config::ExperimentConfig& config);

/// Validates `config` (Validate, then ValidateRealConfig) and strips the
/// simulated hardware costs (substrate::RawSpeedConfig): what every
/// deployment below expects.
Result<config::ExperimentConfig> PrepareRealConfig(
    config::ExperimentConfig config);

/// True when `plan` carries the fault families a WireFaultAdapter handles:
/// message faults, crash windows, partitions. Storage faults live in the
/// server's log and need no adapter.
bool WireFaultsActive(const fault::FaultPlan& plan);

/// Client shards (loop threads) for `clients` clients: an explicit
/// `requested` count is honoured; 0 picks one shard per 8 clients, at
/// least 2 so cross-thread interleaving is exercised. Never more shards
/// than clients.
int ShardCount(int requested, int clients);

/// The server half of a real-substrate deployment (ccserve, or the server
/// side of RunRealExperiment): a ServerNode on its own loop thread behind
/// a listening TcpServerTransport. With wire faults on, a WireFaultAdapter
/// sits at the transport seam and drives the plan's crash windows (sever
/// every connection, crash, replay the log) and partition windows.
class ServerDeployment {
 public:
  /// Listens on `bind_host`:`port` (empty host = all interfaces, port 0 =
  /// ephemeral), wires the node, and starts its loop thread.
  static Result<std::unique_ptr<ServerDeployment>> Start(
      const config::ExperimentConfig& config, int port,
      const std::string& bind_host = std::string());

  ~ServerDeployment();

  ServerDeployment(const ServerDeployment&) = delete;
  ServerDeployment& operator=(const ServerDeployment&) = delete;

  int port() const { return transport_->port(); }

  /// Teardown, in order: stop the loop, join it, drain the outbound bytes
  /// (poisoning connections still dirty after 2 s, so peers see a clean
  /// cut rather than a torn frame), close the transport, finalize the
  /// checker. Returns false if the drain timed out. Idempotent.
  bool Stop();

  /// Adds the server-side counters (loop events, Metrics, server, network,
  /// wire injector, oracle) to `result`. Call after Stop().
  void Harvest(RunResult* result);

  const substrate::TcpServerTransport& transport() const {
    return *transport_;
  }
  bool wire_faults() const { return adapter_ != nullptr; }

 private:
  explicit ServerDeployment(const config::ExperimentConfig& config);

  substrate::ServerNode node_;
  std::unique_ptr<substrate::TcpServerTransport> transport_;
  std::unique_ptr<substrate::WireFaultAdapter> adapter_;
  std::thread loop_;
  std::uint64_t events_ = 0;
  bool drained_ = true;
};

/// The client half (ccload, or the clients of RunRealExperiment): global
/// client ids [lo, hi) split across ShardCount() ClientShards, each on its
/// own TcpClientTransport. Shard s gets a WireFaultAdapter seeded
/// `seed + 1 + s` (when wire faults are on) that drives the partition
/// windows of the clients it owns. With `recovery_enabled` every
/// transport redials after losing its connection, since a server started
/// with crash windows may sever it even when this side has no faults.
class ClientDeployment {
 public:
  /// Builds the shards and connects each to `host`:`port`.
  static Result<std::unique_ptr<ClientDeployment>> Connect(
      const config::ExperimentConfig& config, const std::string& host,
      int port, int lo, int hi, int shards);

  ~ClientDeployment();

  ClientDeployment(const ClientDeployment&) = delete;
  ClientDeployment& operator=(const ClientDeployment&) = delete;

  /// Runs every shard's loop on its own thread for `warmup_seconds` plus
  /// `duration_seconds` of wall clock (stats window reset after warmup),
  /// joins them, then closes the transports.
  void Run(double warmup_seconds, double duration_seconds);

  /// Adds the client-side counters (loop events, Metrics, networks, wire
  /// injectors, commit-weighted means, merged percentiles, cache hit
  /// ratio) to `result`. Call after Run().
  void Harvest(RunResult* result) const;

  int shards() const { return static_cast<int>(shards_.size()); }
  bool wire_faults() const { return shards_.front().adapter != nullptr; }
  /// Summed over the shards' transports.
  std::uint64_t reconnects() const;
  std::uint64_t disconnected_drops() const;

 private:
  ClientDeployment() = default;

  struct Shard {
    std::unique_ptr<substrate::ClientShard> node;
    std::unique_ptr<substrate::TcpClientTransport> transport;
    std::unique_ptr<substrate::WireFaultAdapter> adapter;
    std::uint64_t events = 0;
  };
  std::vector<Shard> shards_;
};

/// Options for a real-substrate (threads + TCP loopback) run. Real runs
/// are paced by the wall clock, so the measurement is duration-based:
/// `control.target_commits` and `control.max_measure_seconds` do not
/// apply; `control.warmup_seconds` is replaced by `warmup_seconds` here.
struct RealRunOptions {
  /// Wall seconds before the stats window resets.
  double warmup_seconds = 1.0;
  /// Wall seconds of measurement after warmup.
  double duration_seconds = 5.0;
  /// Client shards (event-loop threads); 0 = the ShardCount() default.
  int shards = 0;
};

/// Runs `config` on the real substrate, in-process: a ServerDeployment on
/// an ephemeral port and a ClientDeployment over the whole population,
/// connected over TCP loopback. Returns the same RunResult the DES runner
/// produces, with wall-clock fields filled from real elapsed time and
/// latency percentiles aggregated across shards.
Result<RunResult> RunRealExperiment(config::ExperimentConfig config,
                                    const RealRunOptions& options);

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_DEPLOYMENT_H_
