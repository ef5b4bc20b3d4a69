#ifndef CCSIM_RUNNER_EXPERIMENT_H_
#define CCSIM_RUNNER_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "config/params.h"
#include "fault/fault_plan.h"
#include "runner/metrics.h"
#include "util/status.h"

namespace ccsim::check {
class Checker;
}  // namespace ccsim::check
namespace ccsim::fault {
class FaultInjector;
}  // namespace ccsim::fault
namespace ccsim::net {
class Network;
}  // namespace ccsim::net
namespace ccsim::server {
class Server;
}  // namespace ccsim::server
namespace ccsim::sim {
class Simulator;
}  // namespace ccsim::sim

namespace ccsim::runner {

/// Measurement-window results of one simulation run, in the units the paper
/// reports (seconds; committed transactions per second).
struct RunResult {
  double measured_seconds = 0.0;
  /// Wall-clock time the run actually took (warmup + measurement). On the
  /// DES substrate this is how fast the simulator chewed through the
  /// calendar; on the real substrate it tracks measured_seconds by
  /// construction. Never part of the deterministic output surface.
  double wall_seconds = 0.0;
  /// Calendar events processed across the whole run, and the wall-clock
  /// event rate derived from it (0 when wall_seconds is unmeasured).
  std::uint64_t events_processed = 0;
  double events_per_second = 0.0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t deadlock_aborts = 0;
  std::uint64_t stale_aborts = 0;
  std::uint64_t cert_aborts = 0;
  std::uint64_t deadlocks_detected = 0;

  double mean_response_s = 0.0;
  /// ~90% confidence half-width on the mean response time (batch means).
  double response_ci_s = 0.0;
  /// Response-time percentiles from the log-scaled histogram (~12%
  /// bucket resolution).
  double response_p50_s = 0.0;
  double response_p90_s = 0.0;
  double response_p99_s = 0.0;
  double throughput_tps = 0.0;
  double mean_attempts_per_commit = 0.0;
  /// Transaction attempts started in the measurement window. Conservation:
  /// |attempts_started - (commits + aborts)| is bounded by the attempts in
  /// flight at the window edges, at most the client count on each side.
  std::uint64_t attempts_started = 0;

  double server_cpu_util = 0.0;
  double client_cpu_util = 0.0;  // averaged over clients
  double network_util = 0.0;
  double data_disk_util = 0.0;   // averaged over data disks
  double log_disk_util = 0.0;    // averaged over log disks

  std::uint64_t messages = 0;
  std::uint64_t packets = 0;
  double client_hit_ratio = 0.0;
  double server_buffer_hit_ratio = 0.0;
  std::uint64_t buffer_writebacks = 0;
  std::uint64_t log_forced_commits = 0;
  std::uint64_t undo_page_ios = 0;

  /// Per-type (mean response seconds, commits) for mixed workloads, in
  /// ExperimentConfig::mix order. Single-type runs have one entry.
  std::vector<std::pair<double, std::uint64_t>> per_type_response;

  // Fault injection / recovery (all zero on a fault-free run).
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t delay_spikes = 0;
  /// Messages discarded because their source or destination was crashed.
  std::uint64_t down_drops = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t timeout_aborts = 0;
  std::uint64_t crash_aborts = 0;
  std::uint64_t lease_expirations = 0;
  std::uint64_t duplicates_suppressed = 0;
  /// Server-side transactions aborted by GC (idle reaper, crashed-client
  /// cleanup, or a client that moved on to a newer attempt).
  std::uint64_t gc_xacts = 0;
  std::uint64_t client_crashes = 0;
  std::uint64_t server_crashes = 0;
  /// Total simulated time spent in server crash recovery (log replay).
  double recovery_seconds = 0.0;
  /// Transaction specs abandoned without ever committing. The recovery
  /// contract is that this stays zero: every spec is retried to commit.
  std::uint64_t transactions_lost = 0;
  /// Commit requests whose outcome the client never learned (it may have
  /// committed server-side; the spec was re-run to be safe).
  std::uint64_t unknown_outcomes = 0;
  /// Messages discarded at a severed (partitioned) link.
  std::uint64_t partition_drops = 0;
  /// Requests shed at admission by the bounded server ready queue.
  std::uint64_t shed_requests = 0;
  /// Attempts abandoned because the client retry budget ran out.
  std::uint64_t retry_budget_exhaustions = 0;
  /// Largest server ready-queue depth reached during the run.
  std::uint64_t ready_queue_high_water = 0;
  // Storage faults (log write-verify; all zero on perfect storage).
  std::uint64_t log_torn_writes = 0;
  std::uint64_t log_bit_flips = 0;
  /// Re-appends forced by a failed write-verify.
  std::uint64_t log_rewrites = 0;
  /// Crash-torn tail records truncated (and re-forced) at restart recovery.
  std::uint64_t log_records_truncated = 0;

  // Consistency-oracle counters (checker.enabled runs; all zero/false
  // otherwise). Commits here span the whole run including warmup — the
  // oracle never resets, a serializable prefix is a property of the full
  // history.
  bool oracle_enabled = false;
  std::uint64_t oracle_commits = 0;
  /// Serialization-graph edges inserted (WR + WW + RW, deduplicated).
  std::uint64_t oracle_edges = 0;
  /// Edge insertions that needed a Pearce–Kelly cycle-check search.
  std::uint64_t oracle_scc_checks = 0;
  /// Largest affected region any single search visited.
  std::uint64_t oracle_max_frontier = 0;
  /// Commit-time structural audits (directory, buffer pool, client caches).
  std::uint64_t oracle_audits = 0;
  /// Attempt-boundary client-cache audits.
  std::uint64_t oracle_client_audits = 0;
  /// Cache reads served without server contact, each lease/lock-checked.
  std::uint64_t oracle_trusted_reads = 0;
  /// Commits carrying a read of an already-overwritten version (only a
  /// broken protocol produces these; the graph decides if they cycle).
  std::uint64_t oracle_stale_commit_reads = 0;
  /// Unknown-outcome reconciliation: every unknown commit resolved to
  /// exactly one side; the two counters sum to unknown_outcomes.
  std::uint64_t oracle_unknown_committed = 0;
  std::uint64_t oracle_unknown_aborted = 0;

  // Real-substrate event loops (zero on the DES substrate). Wall-clock
  // measurements: never part of the deterministic CSV.
  /// Server loop thread CPU over wall time, over the server's lifetime.
  double server_loop_busy = 0.0;
  /// Server loop epoll waits that offered to block, per transaction the
  /// server committed over its lifetime.
  double server_wakeups_per_commit = 0.0;
  /// Client shard loops' CPU over wall time in the measurement window,
  /// averaged over shards.
  double client_loop_busy = 0.0;
  /// Shard loop epoll waits that offered to block, per commit in the
  /// measurement window.
  double client_wakeups_per_commit = 0.0;

  // End-of-run diagnostics (stall debugging / liveness checks).
  /// True if the event calendar drained before the measurement horizon and
  /// before the commit target: the whole system stopped making progress.
  /// Always a protocol-implementation bug; asserted against in tests.
  bool stalled = false;
  std::size_t final_lock_waiters = 0;
  std::size_t final_locks_held = 0;
  int final_active_xacts = 0;
  /// Transaction states the server still holds (active ones plus finished
  /// ones a running handler refers to): bounded by MPL plus the handlers
  /// in flight, never by the number of commits.
  std::size_t final_xact_states = 0;
  std::size_t final_ready_queue = 0;
  /// Liveness watchdog: clients that ended the run with an RPC outstanding
  /// far longer than a full retransmission schedule can take — a stuck
  /// coroutine. Zero on every healthy run, faulted or not.
  int stuck_clients = 0;
};

/// Builds the full simulated system for `config`, runs warmup plus the
/// measurement window (until `target_commits` or `max_measure_seconds`,
/// whichever first), and harvests the results.
Result<RunResult> RunExperiment(const config::ExperimentConfig& config);

// --- pieces both substrates share (runner/deployment.h for the real one) ---

/// Plans a server crash window on `calendar`: at its start the server is
/// marked down, `on_crash` runs (the real substrate severs every TCP
/// connection there), and the server crashes; at its end the log is
/// replayed and traffic readmitted.
void ScheduleServerCrash(sim::Simulator& calendar,
                         fault::FaultInjector* injector,
                         server::Server* server,
                         const fault::CrashWindow& window,
                         std::function<void()> on_crash = nullptr);

/// Plans a partition window on `calendar`: the link is cut at its start
/// and healed at its end. A hard window also runs `sever` at the start
/// (the real substrate kills the carrying connection; the DES has none).
void SchedulePartition(sim::Simulator& calendar,
                       fault::FaultInjector* injector,
                       const fault::PartitionWindow& window,
                       std::function<void()> sever = nullptr);

/// Adds `metrics`' event counters (commits, aborts, attempts, recovery
/// and overload counters, recovery time) to `result`. Every event is
/// recorded on exactly one node, so summing nodes double-counts nothing.
void AddMetricCounters(const Metrics& metrics, RunResult* result);

/// Sets the server-side counters: lock manager, buffer pool, log, ready
/// queue, and the end-of-run lock/transaction state.
void HarvestServer(server::Server& server, RunResult* result);

/// Adds a network's message and packet counts to `result`.
void AddNetworkCounters(const net::Network& network, RunResult* result);

/// Adds an injector's message-fault counters to `result`.
void AddInjectorCounters(const fault::FaultInjector& injector,
                         RunResult* result);

/// Sets the oracle counters; call once the checker is finalized.
void HarvestOracle(check::Checker& checker, RunResult* result);

/// Sets the p50/p90/p99 response times from `histogram`.
void SetPercentiles(const LatencyHistogram& histogram, RunResult* result);

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_EXPERIMENT_H_
