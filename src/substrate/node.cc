#include "substrate/node.h"

#include <chrono>
#include <utility>

#include "proto/factory.h"
#include "sim/random.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// Uid sequence base of a client session: wall-clock microseconds. A
/// ccserve outlives its ccload sessions and takes a uid not above the
/// highest it finished for that client id as stale. Each attempt costs a
/// round trip, so no client starts one per microsecond: every session's
/// uids exceed every earlier session's. (Below Client's 2^53 until 2255.)
std::uint64_t SessionXactSeqBase() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
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

Node::Node(const config::ExperimentConfig& config, std::uint64_t seed)
    : config_(config), substrate_(&sim_),
      layout_(config_.database, config_.system.num_data_disks),
      metrics_(&sim_),
      network_(&sim_, sim::MillisToTicks(config_.system.net_delay_ms),
               sim::Pcg32(seed, sim::kNetworkStream)) {}

// --- ServerNode -----------------------------------------------------------

ServerNode::ServerNode(const config::ExperimentConfig& config,
                       std::uint64_t seed)
    : Node(config, seed) {
  server_ =
      proto::MakeServer(&sim_, config_, &layout_, &network_, &metrics_, seed);
  // The clients live in other processes (or other shards' loop threads),
  // so the DES harness's cross-node retained-lock audit is out of reach
  // here: the server audits itself only.
  checker_ = proto::MakeChecker(config_, seed, " (real substrate)",
                                server_.get(), &metrics_);
  fault::FaultPlan plan = fault::MakePlan(config_.fault);
  if (plan.storage.Any()) {
    // Torn writes / bit flips happen inside log forces, which run on this
    // node's loop thread only — a plain injector is safe here.
    storage_injector_ = std::make_unique<fault::FaultInjector>(
        std::move(plan), sim::Pcg32(seed, sim::kStorageFaultStream));
    server_->log().set_fault_injector(storage_injector_.get());
  }
  substrate_.set_message_sink([this](net::MessagePtr msg) {
    if (Admit(*msg)) {
      server_->inbox().Push(std::move(msg));
    }
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

void ServerNode::FinalizeChecker() {
  if (checker_ != nullptr) {
    checker_->Finish();
    checker_->oracle().Finalize(metrics_.unknown_outcomes());
  }
}

// --- ClientShard ----------------------------------------------------------

ClientShard::ClientShard(const config::ExperimentConfig& config,
                         std::uint64_t seed, int client_lo, int client_hi)
    : Node(config, seed), client_lo_(client_lo), client_hi_(client_hi) {
  CCSIM_CHECK(client_lo >= 0 && client_lo < client_hi &&
              client_hi <= config_.system.num_clients);
  const std::uint64_t xact_seq_base = SessionXactSeqBase();
  clients_.reserve(static_cast<std::size_t>(client_hi - client_lo));
  for (int id = client_lo; id < client_hi; ++id) {
    clients_.push_back(proto::MakeClient(&sim_, id, config_, &layout_,
                                         &network_, &metrics_, seed,
                                         xact_seq_base));
  }
  substrate_.set_message_sink([this](net::MessagePtr msg) {
    // Frames for other clients come from a confused peer: not ours.
    if (msg->dst < client_lo_ || msg->dst >= client_hi_ || !Admit(*msg)) {
      return;
    }
    clients_[static_cast<std::size_t>(msg->dst - client_lo_)]->inbox().Push(
        std::move(msg));
  });
}

ClientShard::~ClientShard() { sim_.Shutdown(); }

void ClientShard::Start() {
  for (auto& c : clients_) {
    c->Start();
  }
}

std::uint64_t ClientShard::RunLoop(sim::Ticks warmup, sim::Ticks duration) {
  if (warmup > 0) {
    runner::Metrics* metrics = &metrics_;
    RealtimeSubstrate* loop = &substrate_;
    sim_.ScheduleAt(warmup, [metrics, loop] {
      metrics->ResetWindow();
      loop->ResetLoopStats();
    });
  }
  return substrate_.Run(warmup + duration);
}

}  // namespace ccsim::substrate
