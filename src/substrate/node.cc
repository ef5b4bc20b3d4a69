#include "substrate/node.h"

#include <string>
#include <utility>

#include "proto/factory.h"
#include "sim/random.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// RNG stream ids, identical to the DES runner's (runner/experiment.cc) so
/// a client's workload is the same variate sequence on either substrate.
constexpr std::uint64_t kNetworkStream = 0x7e7;
constexpr std::uint64_t kClientObjectStreamBase = 0x1000;
constexpr std::uint64_t kClientDelayStreamBase = 0x20000;
constexpr std::uint64_t kClientJitterStreamBase = 0x30000;
/// Storage-fault draws get their own stream (distinct from the wire-fault
/// adapter's kWireFaultStream) so log forces and message faults stay
/// deterministic independently of each other.
constexpr std::uint64_t kStorageFaultStream = 0xFA18;

/// Moves an inbound message (a drained ring slot) into the loop thread's
/// message pool: one move, after which it travels as a handle like any
/// message the model built itself.
net::MessagePtr Pooled(net::Message&& msg) {
  net::MessagePtr pooled = net::NewMessage();
  *pooled = std::move(msg);
  return pooled;
}

}  // namespace

config::ExperimentConfig RawSpeedConfig(config::ExperimentConfig config) {
  config.system.net_delay_ms = 0.0;
  config.system.msg_cost_instr = 0.0;
  config.system.seek_low_ms = 0.0;
  config.system.seek_high_ms = 0.0;
  config.system.disk_transfer_ms = 0.0;
  config.system.init_disk_cost_instr = 0.0;
  config.system.server_proc_page_instr = 0.0;
  config.system.client_proc_page_instr = 0.0;
  return config;
}

Hello MakeHello(const config::ExperimentConfig& config) {
  Hello hello;
  hello.algorithm = static_cast<std::uint8_t>(config.algorithm.algorithm);
  hello.caching = static_cast<std::uint8_t>(config.algorithm.caching);
  hello.total_pages = config.database.TotalPages();
  hello.num_clients = config.system.num_clients;
  hello.page_payload_bytes =
      static_cast<std::uint32_t>(config.system.page_size_bytes);
  return hello;
}

// --- ServerNode -----------------------------------------------------------

ServerNode::ServerNode(const config::ExperimentConfig& config,
                       std::uint64_t seed)
    : config_(config), substrate_(&sim_),
      layout_(config_.database, config_.system.num_data_disks),
      metrics_(&sim_),
      network_(&sim_, sim::MillisToTicks(config_.system.net_delay_ms),
               sim::Pcg32(seed, kNetworkStream)) {
  server_ = std::make_unique<server::Server>(&sim_, config_, &layout_,
                                             &network_, &metrics_, seed);
  server_->set_protocol(
      proto::MakeServerProtocol(config_.algorithm, server_.get()));
  if (config_.checker.enabled) {
    check::Checker::Options options;
    options.pipelined = config_.checker.pipelined;
    options.audit_epoch_commits = config_.checker.audit_epoch_commits;
    options.queue_capacity = config_.checker.queue_capacity;
    options.oracle.context =
        config::AlgorithmLabel(config_.algorithm.algorithm,
                               config_.algorithm.caching) +
        " (real substrate), seed " + std::to_string(seed);
    checker_ =
        std::make_unique<check::Checker>(&server_->versions(), options);
    // Server-side structural audits only: the clients live in other
    // processes (or other shards' loop threads), so the cross-node
    // retained-lock check of the DES harness is out of reach here.
    server::Server* srv = server_.get();
    checker_->set_audit_hook([srv] {
      srv->directory().AuditStructure();
      srv->pool().AuditConsistency([srv](std::uint64_t owner) {
        const server::XactState* state = srv->FindXact(owner);
        return state != nullptr && !state->done;
      });
    });
    metrics_.set_checker(checker_.get());
  }
  fault::FaultPlan plan = fault::MakePlan(config_.fault);
  if (plan.storage.Any()) {
    // Torn writes / bit flips happen inside log forces, which run on this
    // node's loop thread only — a plain injector is safe here.
    storage_injector_ = std::make_unique<fault::FaultInjector>(
        std::move(plan), sim::Pcg32(seed, kStorageFaultStream));
    server_->log().set_fault_injector(storage_injector_.get());
  }
  server::Server* srv = server_.get();
  substrate_.set_message_sink([srv](net::Message&& msg) {
    srv->inbox().Push(Pooled(std::move(msg)));
  });
}

ServerNode::~ServerNode() {
  // Destroy still-suspended coroutine frames while the model objects they
  // reference are alive (same discipline as the DES harness).
  sim_.Shutdown();
}

void ServerNode::Start() { server_->Start(); }

std::uint64_t ServerNode::RunLoop(sim::Ticks horizon) {
  return substrate_.Run(horizon);
}

void ServerNode::InstallInboundFilter(
    std::function<bool(const net::Message&)> filter) {
  server::Server* srv = server_.get();
  substrate_.set_message_sink(
      [srv, filter = std::move(filter)](net::Message&& msg) {
        if (!filter(msg)) {
          return;
        }
        srv->inbox().Push(Pooled(std::move(msg)));
      });
}

bool ServerNode::FinalizeChecker() {
  if (checker_ == nullptr) {
    return false;
  }
  checker_->Finish();
  checker_->oracle().Finalize(metrics_.unknown_outcomes());
  return true;
}

// --- ClientShard ----------------------------------------------------------

ClientShard::ClientShard(const config::ExperimentConfig& config,
                         std::uint64_t seed, int client_lo, int client_hi)
    : config_(config), client_lo_(client_lo), client_hi_(client_hi),
      substrate_(&sim_),
      layout_(config_.database, config_.system.num_data_disks),
      metrics_(&sim_),
      network_(&sim_, sim::MillisToTicks(config_.system.net_delay_ms),
               sim::Pcg32(seed, kNetworkStream)) {
  CCSIM_CHECK(client_lo >= 0 && client_lo < client_hi &&
              client_hi <= config_.system.num_clients);
  clients_.reserve(static_cast<std::size_t>(client_hi - client_lo));
  for (int id = client_lo; id < client_hi; ++id) {
    auto c = std::make_unique<client::Client>(
        &sim_, id, config_, &layout_, &network_, &metrics_,
        sim::Pcg32(seed,
                   kClientObjectStreamBase + static_cast<std::uint64_t>(id)),
        sim::Pcg32(seed,
                   kClientDelayStreamBase + static_cast<std::uint64_t>(id)),
        sim::Pcg32(seed, kClientJitterStreamBase +
                             static_cast<std::uint64_t>(id)));
    c->set_protocol(proto::MakeClientProtocol(config_.algorithm, c.get()));
    clients_.push_back(std::move(c));
  }
  auto* clients = &clients_;
  const int lo = client_lo;
  const int hi = client_hi;
  substrate_.set_message_sink([clients, lo, hi](net::Message&& msg) {
    if (msg.dst < lo || msg.dst >= hi) {
      return;  // not ours (stray frame from a confused peer)
    }
    (*clients)[static_cast<std::size_t>(msg.dst - lo)]->inbox().Push(
        Pooled(std::move(msg)));
  });
}

ClientShard::~ClientShard() { sim_.Shutdown(); }

void ClientShard::Start() {
  for (auto& c : clients_) {
    c->Start();
  }
}

void ClientShard::InstallInboundFilter(
    std::function<bool(const net::Message&)> filter) {
  auto* clients = &clients_;
  const int lo = client_lo_;
  const int hi = client_hi_;
  substrate_.set_message_sink(
      [clients, lo, hi, filter = std::move(filter)](net::Message&& msg) {
        if (msg.dst < lo || msg.dst >= hi || !filter(msg)) {
          return;
        }
        (*clients)[static_cast<std::size_t>(msg.dst - lo)]->inbox().Push(
            Pooled(std::move(msg)));
      });
}

std::uint64_t ClientShard::RunLoop(sim::Ticks warmup, sim::Ticks duration) {
  if (warmup > 0) {
    runner::Metrics* metrics = &metrics_;
    sim::Simulator* sim = &sim_;
    sim_.ScheduleAt(warmup, [metrics, sim] {
      metrics->ResetWindow(sim->Now());
    });
  }
  return substrate_.Run(warmup + duration);
}

}  // namespace ccsim::substrate
