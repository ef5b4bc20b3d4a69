#include "runner/experiment.h"

#include <chrono>
#include <memory>

#include "check/checker.h"
#include "client/client.h"
#include "lock/lock_manager.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "proto/factory.h"
#include "server/server.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "storage/disk.h"
#include "util/macros.h"

namespace ccsim::runner {
namespace {

/// Server crash-restart: the node stays unreachable until log replay ends.
sim::Process RecoverServer(server::Server* server,
                           fault::FaultInjector* injector) {
  co_await server->Recover();
  injector->SetDown(net::kServerNode, false);
}

double MeanUtilization(const std::vector<storage::Disk*>& disks,
                       sim::Ticks now) {
  if (disks.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (storage::Disk* disk : disks) {
    sum += disk->resource().Utilization(now);
  }
  return sum / static_cast<double>(disks.size());
}

}  // namespace

Result<RunResult> RunExperiment(const config::ExperimentConfig& config) {
  CCSIM_RETURN_NOT_OK(config.Validate());

  sim::Simulator sim;
  const std::uint64_t seed = config.control.seed;
  db::DatabaseLayout layout(config.database, config.system.num_data_disks);
  Metrics metrics(&sim);
  net::Network network(&sim, sim::MillisToTicks(config.system.net_delay_ms),
                       sim::Pcg32(seed, sim::kNetworkStream));
  const std::unique_ptr<server::Server> server_owner =
      proto::MakeServer(&sim, config, &layout, &network, &metrics, seed);
  server::Server& server = *server_owner;

  std::vector<std::unique_ptr<client::Client>> clients;
  clients.reserve(static_cast<std::size_t>(config.system.num_clients));
  for (int i = 0; i < config.system.num_clients; ++i) {
    clients.push_back(proto::MakeClient(&sim, i, config, &layout, &network,
                                        &metrics, seed));
  }

  // Consistency checker: one per run (never shared, so parallel sweeps
  // stay race-free), reached by every component through
  // metrics.checker(). It never touches the calendar or an RNG stream, so
  // enabling it cannot perturb results, and leaving it off keeps every
  // hook a null branch. In the (default) pipelined mode the commit path
  // only enqueues compact records; a dedicated verification thread runs
  // the serialization-graph maintenance and is joined (after a drain
  // barrier) before any counter below is read.
  const std::unique_ptr<check::Checker> checker =
      proto::MakeChecker(config, seed, "", &server, &metrics);
  if (checker != nullptr && !config.fault.recovery_enabled) {
    // Every retained copy a client trusts must also be backed by a
    // server-side retained lock (callback locking's core promise; the
    // lease machinery relaxes it under faults). Pages locked by the
    // client's current transaction are in a legitimate transfer window
    // and are skipped.
    checker->set_audit_hook([&server, &clients] {
      server.Audit();
      for (const auto& c : clients) {
        const int id = c->id();
        c->cache().ForEach([&](db::PageId page,
                               const client::CachedPage& entry) {
          if (!entry.retained || entry.lock != client::PageLock::kNone) {
            return;
          }
          CCSIM_CHECK_MSG(
              server.locks().Holds(lock::RetainedOwner(id), page,
                                   lock::LockMode::kShared),
              "client %d trusts a retained copy of page %d with no "
              "server-side retained lock",
              id, page);
        });
      }
    });
  }

  // Fault injection: attach an injector only when the config asks for
  // faults, so fault-free runs keep a null hook (and the exact calendar of
  // a build without the fault subsystem).
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.fault.AnyFaults()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::MakePlan(config.fault), sim::Pcg32(seed, sim::kFaultStream));
    network.set_fault_injector(injector.get());
    fault::FaultInjector* inj = injector.get();
    for (const fault::CrashWindow& crash : inj->plan().crashes) {
      if (crash.node == net::kServerNode) {
        ScheduleServerCrash(sim, inj, &server, crash);
        continue;
      }
      CCSIM_CHECK(crash.node >= 0 && crash.node < config.system.num_clients);
      client::Client* victim =
          clients[static_cast<std::size_t>(crash.node)].get();
      const int node = crash.node;
      sim.ScheduleAt(crash.at, [victim, inj, node] {
        inj->SetDown(node, true);
        victim->Crash();
      });
      sim.ScheduleAt(crash.at + crash.downtime, [victim, inj, node] {
        inj->SetDown(node, false);
        victim->Recover();
      });
    }
    for (const fault::PartitionWindow& part : inj->plan().partitions) {
      CCSIM_CHECK(part.node >= 0 && part.node < config.system.num_clients);
      SchedulePartition(sim, inj, part);
    }
    server.log().set_fault_injector(injector.get());
  }

  server.Start();
  for (auto& c : clients) {
    c->Start();
  }

  // Warmup: run, then restart every statistics window.
  const auto wall_begin = std::chrono::steady_clock::now();
  sim.Run(sim::SecondsToTicks(config.control.warmup_seconds));
  const sim::Ticks window_start = sim.Now();
  metrics.ResetWindow();
  server.cpu().ResetStats(window_start);
  network.ResetStats(window_start);
  for (storage::Disk* disk : server.data_disks()) {
    disk->resource().ResetStats(window_start);
  }
  for (storage::Disk* disk : server.log_disks()) {
    disk->resource().ResetStats(window_start);
  }
  server.pool().ResetStats();
  server.log().ResetStats();
  for (auto& c : clients) {
    c->cpu().ResetStats(window_start);
    c->cache().ResetStats();
  }

  // Measurement: until the commit target or the simulated-time cap.
  metrics.set_stop_after_commits(config.control.target_commits);
  const sim::Ticks horizon =
      window_start + sim::SecondsToTicks(config.control.max_measure_seconds);
  sim.Run(horizon);
  const sim::Ticks now = sim.Now();
  const bool stalled = !sim.stop_requested() && now < horizon;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();

  RunResult result;
  result.stalled = stalled;
  result.measured_seconds = sim::TicksToSeconds(now - window_start);
  result.wall_seconds = wall_seconds;
  result.events_processed = sim.events_processed();
  result.events_per_second =
      wall_seconds > 0
          ? static_cast<double>(sim.events_processed()) / wall_seconds
          : 0.0;
  AddMetricCounters(metrics, &result);
  HarvestServer(server, &result);
  result.mean_response_s = metrics.response_s().mean();
  result.response_ci_s = metrics.response_batches().HalfWidth90();
  SetPercentiles(metrics.response_histogram(), &result);
  result.throughput_tps =
      result.measured_seconds > 0
          ? static_cast<double>(result.commits) / result.measured_seconds
          : 0.0;
  result.mean_attempts_per_commit = metrics.attempts_per_commit().mean();
  result.server_cpu_util = server.cpu().Utilization(now);
  double client_util_sum = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  for (auto& c : clients) {
    client_util_sum += c->cpu().Utilization(now);
    cache_hits += c->cache().hits();
    cache_misses += c->cache().misses();
  }
  result.client_cpu_util =
      client_util_sum / static_cast<double>(clients.size());
  result.network_util = network.medium().Utilization(now);
  result.data_disk_util = MeanUtilization(server.data_disks(), now);
  result.log_disk_util = MeanUtilization(server.log_disks(), now);
  AddNetworkCounters(network, &result);
  result.client_hit_ratio =
      (cache_hits + cache_misses) == 0
          ? 0.0
          : static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses);
  for (const sim::Tally& tally : metrics.per_type_response_s()) {
    result.per_type_response.emplace_back(tally.mean(), tally.count());
  }
  if (injector != nullptr) {
    AddInjectorCounters(*injector, &result);
  }
  if (config.fault.recovery_enabled) {
    // Liveness watchdog: under recovery mode every RPC wait is bounded by
    // the retransmission schedule (timeouts double to the cap; exhaustion
    // yields a synthetic abort). A client still waiting far past that
    // bound has a stuck coroutine — a liveness bug, not a slow run. The
    // 2x margin absorbs timer jitter and queueing ahead of the timers.
    const sim::Ticks schedule =
        static_cast<sim::Ticks>(config.fault.max_rpc_retries + 1) *
        sim::MillisToTicks(config.fault.rpc_timeout_cap_ms);
    const sim::Ticks watchdog = 2 * schedule + sim::SecondsToTicks(60.0);
    for (auto& c : clients) {
      if (c->pending_rpcs() > 0 && !c->crashed() &&
          now - c->last_rpc_at() > watchdog) {
        ++result.stuck_clients;
      }
    }
  }
  if (checker != nullptr) {
    // Drain barrier + verifier join: every queued record is applied (and
    // any violation surfaced) before Finalize reconciles or a counter is
    // read, which is what makes the pipelined counters byte-identical to
    // the synchronous mode's.
    checker->Finish();
    checker->oracle().Finalize(metrics.unknown_outcomes());
    HarvestOracle(*checker, &result);
  }

  sim.Shutdown();
  return result;
}

void ScheduleServerCrash(sim::Simulator& calendar,
                         fault::FaultInjector* injector,
                         server::Server* server,
                         const fault::CrashWindow& window,
                         std::function<void()> on_crash) {
  calendar.ScheduleAt(window.at, [injector, server, on_crash] {
    injector->SetDown(net::kServerNode, true);
    if (on_crash) {
      on_crash();
    }
    server->Crash();
  });
  calendar.ScheduleAt(window.at + window.downtime,
                      [&calendar, server, injector] {
                        calendar.Spawn(RecoverServer(server, injector));
                      });
}

void SchedulePartition(sim::Simulator& calendar,
                       fault::FaultInjector* injector,
                       const fault::PartitionWindow& window,
                       std::function<void()> sever) {
  const int node = window.node;
  const fault::PartitionWindow::Direction dir = window.direction;
  const bool hard = window.hard && sever != nullptr;
  calendar.ScheduleAt(window.at, [injector, node, dir, hard, sever] {
    injector->SetPartitioned(node, dir, true);
    if (hard) {
      sever();
    }
  });
  calendar.ScheduleAt(window.at + window.duration, [injector, node, dir] {
    injector->SetPartitioned(node, dir, false);
  });
}

void AddMetricCounters(const Metrics& metrics, RunResult* result) {
  result->commits += metrics.commits();
  result->aborts += metrics.aborts();
  result->deadlock_aborts += metrics.deadlock_aborts();
  result->stale_aborts += metrics.stale_aborts();
  result->cert_aborts += metrics.cert_aborts();
  result->attempts_started += metrics.attempts_started();
  result->rpc_retries += metrics.rpc_retries();
  result->rpc_timeouts += metrics.rpc_timeouts();
  result->timeout_aborts += metrics.timeout_aborts();
  result->crash_aborts += metrics.crash_aborts();
  result->lease_expirations += metrics.lease_expirations();
  result->duplicates_suppressed += metrics.duplicates_suppressed();
  result->gc_xacts += metrics.gc_xacts();
  result->client_crashes += metrics.client_crashes();
  result->server_crashes += metrics.server_crashes();
  result->recovery_seconds += sim::TicksToSeconds(metrics.recovery_ticks());
  result->transactions_lost += metrics.transactions_lost();
  result->unknown_outcomes += metrics.unknown_outcomes();
  result->shed_requests += metrics.shed_requests();
  result->retry_budget_exhaustions += metrics.retry_budget_exhaustions();
}

void HarvestServer(server::Server& server, RunResult* result) {
  result->deadlocks_detected = server.locks().deadlocks_detected();
  result->server_buffer_hit_ratio = server.pool().HitRatio();
  result->buffer_writebacks = server.pool().writebacks();
  result->log_forced_commits = server.log().commits_logged();
  result->undo_page_ios = server.log().undo_page_ios();
  result->ready_queue_high_water = server.ready_queue_high_water();
  result->log_torn_writes = server.log().torn_writes_detected();
  result->log_bit_flips = server.log().bit_flips_detected();
  result->log_rewrites = server.log().log_rewrites();
  result->log_records_truncated = server.log().records_truncated();
  result->final_lock_waiters = server.locks().waiter_count();
  result->final_locks_held = server.locks().held_count();
  result->final_active_xacts = server.active_transactions();
  result->final_xact_states = server.live_xact_states();
  result->final_ready_queue = server.ready_queue_length();
}

void AddNetworkCounters(const net::Network& network, RunResult* result) {
  result->messages += network.messages_sent();
  result->packets += network.packets_sent();
}

void AddInjectorCounters(const fault::FaultInjector& injector,
                         RunResult* result) {
  result->messages_dropped += injector.messages_dropped();
  result->messages_duplicated += injector.messages_duplicated();
  result->delay_spikes += injector.delay_spikes();
  result->down_drops += injector.down_drops();
  result->partition_drops += injector.partition_drops();
}

void HarvestOracle(check::Checker& checker, RunResult* result) {
  const check::Oracle& oracle = checker.oracle();
  result->oracle_enabled = true;
  result->oracle_commits = oracle.commits_observed();
  result->oracle_edges = oracle.edges();
  result->oracle_scc_checks = oracle.scc_checks();
  result->oracle_max_frontier = oracle.max_frontier();
  result->oracle_audits = checker.audits();
  result->oracle_client_audits = checker.client_audits();
  result->oracle_trusted_reads = oracle.trusted_reads();
  result->oracle_stale_commit_reads = oracle.stale_commit_reads();
  result->oracle_unknown_committed = oracle.unknown_resolved_committed();
  result->oracle_unknown_aborted = oracle.unknown_resolved_aborted();
}

void SetPercentiles(const LatencyHistogram& histogram, RunResult* result) {
  result->response_p50_s = histogram.Quantile(0.50);
  result->response_p90_s = histogram.Quantile(0.90);
  result->response_p99_s = histogram.Quantile(0.99);
}

}  // namespace ccsim::runner
