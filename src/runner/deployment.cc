#include "runner/deployment.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "fault/fault_injector.h"
#include "net/message.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::runner {
namespace {

/// Effectively-infinite loop horizon for the server node (it stops via
/// RealtimeSubstrate::Stop, not by running out of wall clock).
constexpr sim::Ticks kForever = std::numeric_limits<sim::Ticks>::max() / 4;

/// Bound on the final outbound drain at server shutdown.
constexpr double kDrainSeconds = 2.0;

/// Installs `transport` as `node`'s wire, flushed at each calendar-step
/// boundary. With wire faults in `plan` a WireFaultAdapter seeded `seed`
/// sits in front of it and filters inbound traffic; it is returned so the
/// caller can plan the fault windows. Fault-free nodes keep the bare
/// transport and the bare inbox sink (null return).
template <typename Node>
std::unique_ptr<substrate::WireFaultAdapter> InstallTransport(
    Node& node, net::Transport* transport, const fault::FaultPlan& plan,
    std::uint64_t seed) {
  if (!WireFaultsActive(plan)) {
    node.network().set_transport(transport);
    node.substrate().set_flush_hook([transport] { return transport->Flush(); });
    return nullptr;
  }
  auto adapter = std::make_unique<substrate::WireFaultAdapter>(
      plan, seed, &node.substrate(), transport);
  substrate::WireFaultAdapter* ad = adapter.get();
  node.network().set_transport(ad);
  node.substrate().set_flush_hook([ad] { return ad->Flush(); });
  node.InstallInboundFilter(
      [ad](const net::Message& msg) { return ad->AllowInbound(msg); });
  return adapter;
}

}  // namespace

Status ValidateRealConfig(const config::ExperimentConfig& config) {
  for (const config::FaultParams::CrashEvent& crash : config.fault.crashes) {
    if (crash.node != net::kServerNode) {
      return Status::InvalidArgument(
          "--crash=" + std::to_string(crash.node) +
          ":... crashes a client node, which is simulated-substrate-only: "
          "real client shards have no crash/restart hook — crash the "
          "server instead (--crash=-1:AT:DOWN) or rerun with "
          "--substrate=sim");
    }
  }
  return Status::OK();
}

Result<config::ExperimentConfig> PrepareRealConfig(
    config::ExperimentConfig config) {
  CCSIM_RETURN_NOT_OK(config.Validate());
  CCSIM_RETURN_NOT_OK(ValidateRealConfig(config));
  return substrate::RawSpeedConfig(std::move(config));
}

bool WireFaultsActive(const fault::FaultPlan& plan) {
  return plan.link.Any() || !plan.crashes.empty() || !plan.partitions.empty();
}

int ShardCount(int requested, int clients) {
  int shards = requested > 0 ? requested : std::max(2, (clients + 7) / 8);
  return std::min(shards, clients);
}

// --- ServerDeployment -----------------------------------------------------

ServerDeployment::ServerDeployment(const config::ExperimentConfig& config)
    : node_(config, config.control.seed) {}

Result<std::unique_ptr<ServerDeployment>> ServerDeployment::Start(
    const config::ExperimentConfig& config, int port,
    const std::string& bind_host) {
  std::unique_ptr<ServerDeployment> d(new ServerDeployment(config));
  substrate::ServerNode& node = d->node_;
  std::string error;
  d->transport_ = substrate::TcpServerTransport::Listen(
      port, substrate::MakeHello(config), &node.substrate(), &error,
      bind_host);
  if (d->transport_ == nullptr) {
    return Status::Internal("listen failed: " + error);
  }
  substrate::TcpServerTransport* t = d->transport_.get();
  const fault::FaultPlan plan = fault::MakePlan(config.fault);
  d->adapter_ = InstallTransport(node, t, plan, config.control.seed);
  if (d->adapter_ != nullptr) {
    sim::Simulator& calendar = node.substrate().sim();
    fault::FaultInjector* inj = &d->adapter_->injector();
    for (const fault::CrashWindow& crash : plan.crashes) {
      // A real crash takes the TCP endpoints with it: clients see RSTs and
      // ride their reconnect path.
      ScheduleServerCrash(calendar, inj, &node.server(), crash,
                          [t] { t->SeverAll(); });
    }
    for (const fault::PartitionWindow& part : plan.partitions) {
      SchedulePartition(calendar, inj, part,
                        [t, id = part.node] { t->SeverClient(id); });
    }
  }
  node.Start();
  ServerDeployment* self = d.get();
  d->loop_ = std::thread(
      [self] { self->events_ = self->node_.RunLoop(kForever); });
  return d;
}

ServerDeployment::~ServerDeployment() { Stop(); }

bool ServerDeployment::Stop() {
  if (!loop_.joinable()) {
    return drained_;
  }
  node_.substrate().Stop();
  loop_.join();
  drained_ = transport_->DrainOrPoison(kDrainSeconds);
  transport_->Close();
  node_.FinalizeChecker();
  return drained_;
}

void ServerDeployment::Harvest(RunResult* result) {
  result->events_processed += events_;
  AddMetricCounters(node_.metrics(), result);
  HarvestServer(node_.server(), result);
  const substrate::RealtimeSubstrate& loop = node_.substrate();
  result->server_loop_busy = loop.loop_busy();
  const std::uint64_t committed = node_.server().transactions_committed();
  result->server_wakeups_per_commit =
      committed > 0 ? static_cast<double>(loop.blocking_waits()) /
                          static_cast<double>(committed)
                    : 0.0;
  AddNetworkCounters(node_.network(), result);
  if (adapter_ != nullptr) {
    AddInjectorCounters(adapter_->injector(), result);
  }
  if (node_.checker() != nullptr) {
    HarvestOracle(*node_.checker(), result);
  }
}

// --- ClientDeployment -----------------------------------------------------

Result<std::unique_ptr<ClientDeployment>> ClientDeployment::Connect(
    const config::ExperimentConfig& config, const std::string& host,
    int port, int lo, int hi, int shards) {
  std::unique_ptr<ClientDeployment> d(new ClientDeployment());
  const std::uint64_t seed = config.control.seed;
  const fault::FaultPlan plan = fault::MakePlan(config.fault);
  const substrate::Hello base_hello = substrate::MakeHello(config);
  const int driven = hi - lo;
  const int n = ShardCount(shards, driven);
  d->shards_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    Shard& shard = d->shards_.emplace_back();
    const int shard_lo = lo + driven * s / n;
    const int shard_hi = lo + driven * (s + 1) / n;
    shard.node = std::make_unique<substrate::ClientShard>(config, seed,
                                                          shard_lo, shard_hi);
    substrate::ClientShard& node = *shard.node;
    substrate::Hello hello = base_hello;
    hello.client_lo = shard_lo;
    hello.client_hi = shard_hi;
    std::string error;
    shard.transport = substrate::TcpClientTransport::Connect(
        host, port, hello, &node.substrate(), &error);
    if (shard.transport == nullptr) {
      return Status::Internal("connect to " + host + ":" +
                              std::to_string(port) + " failed: " + error);
    }
    substrate::TcpClientTransport* t = shard.transport.get();
    if (config.fault.recovery_enabled) {
      t->EnableReconnect();
    }
    shard.adapter = InstallTransport(
        node, t, plan, seed + 1 + static_cast<std::uint64_t>(s));
    if (shard.adapter != nullptr) {
      // The partition windows of the clients this shard owns, on its own
      // calendar (its epoch starts a connection setup after the server's,
      // so windows land within scheduling noise of each other).
      for (const fault::PartitionWindow& part : plan.partitions) {
        if (part.node >= shard_lo && part.node < shard_hi) {
          SchedulePartition(node.substrate().sim(), &shard.adapter->injector(),
                            part, [t] { t->AbortConnection(); });
        }
      }
    }
    node.Start();
  }
  return d;
}

ClientDeployment::~ClientDeployment() = default;

void ClientDeployment::Run(double warmup_seconds, double duration_seconds) {
  const sim::Ticks warmup = sim::SecondsToTicks(warmup_seconds);
  const sim::Ticks duration = sim::SecondsToTicks(duration_seconds);
  std::vector<std::thread> loops;
  loops.reserve(shards_.size());
  for (Shard& shard : shards_) {
    loops.emplace_back([&shard, warmup, duration] {
      shard.events = shard.node->RunLoop(warmup, duration);
    });
  }
  for (std::thread& loop : loops) {
    loop.join();
  }
  // No more replies into the shard substrates from here on.
  for (Shard& shard : shards_) {
    shard.transport->Close();
  }
}

void ClientDeployment::Harvest(RunResult* result) const {
  std::uint64_t commits = 0;
  double response_weighted = 0.0;
  double attempts_weighted = 0.0;
  std::vector<std::pair<double, std::uint64_t>> per_type;
  LatencyHistogram histogram;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double busy_sum = 0.0;
  std::uint64_t waits = 0;
  for (const Shard& shard : shards_) {
    const Metrics& m = shard.node->metrics();
    busy_sum += shard.node->substrate().loop_busy();
    waits += shard.node->substrate().blocking_waits();
    result->events_processed += shard.events;
    AddMetricCounters(m, result);
    AddNetworkCounters(shard.node->network(), result);
    if (shard.adapter != nullptr) {
      AddInjectorCounters(shard.adapter->injector(), result);
    }
    commits += m.commits();
    histogram.Merge(m.response_histogram());
    response_weighted +=
        m.response_s().mean() * static_cast<double>(m.response_s().count());
    attempts_weighted += m.attempts_per_commit().mean() *
                         static_cast<double>(m.attempts_per_commit().count());
    const auto& types = m.per_type_response_s();
    if (types.size() > per_type.size()) {
      per_type.resize(types.size());
    }
    for (std::size_t i = 0; i < types.size(); ++i) {
      per_type[i].first +=
          types[i].mean() * static_cast<double>(types[i].count());
      per_type[i].second += types[i].count();
    }
    for (const auto& c : shard.node->clients()) {
      cache_hits += c->cache().hits();
      cache_misses += c->cache().misses();
    }
  }
  result->client_loop_busy = busy_sum / static_cast<double>(shards_.size());
  if (commits > 0) {
    result->client_wakeups_per_commit =
        static_cast<double>(waits) / static_cast<double>(commits);
    result->mean_response_s = response_weighted / static_cast<double>(commits);
    result->mean_attempts_per_commit =
        attempts_weighted / static_cast<double>(commits);
  }
  for (const auto& [weighted_mean, count] : per_type) {
    result->per_type_response.emplace_back(
        count > 0 ? weighted_mean / static_cast<double>(count) : 0.0, count);
  }
  SetPercentiles(histogram, result);
  result->client_hit_ratio =
      (cache_hits + cache_misses) == 0
          ? 0.0
          : static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses);
}

std::uint64_t ClientDeployment::reconnects() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.transport->reconnects();
  }
  return total;
}

std::uint64_t ClientDeployment::disconnected_drops() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.transport->disconnected_drops();
  }
  return total;
}

// --- RunRealExperiment ----------------------------------------------------

Result<RunResult> RunRealExperiment(config::ExperimentConfig config,
                                    const RealRunOptions& options) {
  const Result<config::ExperimentConfig> prepared =
      PrepareRealConfig(std::move(config));
  CCSIM_RETURN_NOT_OK(prepared.status());
  if (options.duration_seconds <= 0) {
    return Status::InvalidArgument("real run duration must be positive");
  }
  const config::ExperimentConfig& real = prepared.ValueOrDie();
  auto started = ServerDeployment::Start(real, /*port=*/0);
  CCSIM_RETURN_NOT_OK(started.status());
  ServerDeployment& server = *started.ValueOrDie();
  auto connected = ClientDeployment::Connect(
      real, "127.0.0.1", server.port(), 0, real.system.num_clients,
      options.shards);
  CCSIM_RETURN_NOT_OK(connected.status());
  ClientDeployment& clients = *connected.ValueOrDie();

  const auto wall_begin = std::chrono::steady_clock::now();
  clients.Run(options.warmup_seconds, options.duration_seconds);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  server.Stop();

  RunResult result;
  result.measured_seconds = options.duration_seconds;
  result.wall_seconds = wall_seconds;
  clients.Harvest(&result);
  server.Harvest(&result);
  result.throughput_tps =
      static_cast<double>(result.commits) / options.duration_seconds;
  result.events_per_second =
      wall_seconds > 0
          ? static_cast<double>(result.events_processed) / wall_seconds
          : 0.0;
  return result;
}

}  // namespace ccsim::runner
