// Substrate parity: the same workload configuration, run once on the
// deterministic DES substrate and once on the real substrate (threads +
// TCP loopback), must satisfy the same structural invariants:
//
//   - attempt conservation: every started attempt ends in exactly one
//     commit or abort, with at most num_clients attempts in flight when
//     the run stops, and zero transactions lost;
//   - oracle-clean: with the consistency checker on, both runs survive
//     serializability checking and the commit-time structural audits
//     (a violation aborts the process, so surviving IS the assertion);
//   - liveness: both substrates actually commit work.
//
// The real runs are wall-clock paced, so this file is the slow kind of
// test (~2 s per protocol); it is also the one that must stay clean under
// ASan and TSan — it exercises every cross-thread path in the substrate.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/params.h"
#include "net/message.h"
#include "runner/experiment.h"
#include "runner/deployment.h"
#include "sim/simulator.h"
#include "substrate/realtime.h"
#include "substrate/tcp.h"
#include "util/status.h"

namespace ccsim {
namespace {

using config::Algorithm;
using config::CachingMode;
using config::ExperimentConfig;
using runner::RunResult;

ExperimentConfig ParityConfig(Algorithm algorithm, CachingMode caching) {
  ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = algorithm;
  cfg.algorithm.caching = caching;
  cfg.system.num_clients = 6;
  cfg.control.seed = 11;
  cfg.checker.enabled = true;
  // Keep the clients busy: parity is about message interleavings, not
  // think-time realism, and short real runs need enough commits to bite.
  cfg.transaction.update_delay_s = 0.0;
  cfg.transaction.internal_delay_s = 0.0;
  cfg.transaction.external_delay_s = 0.05;
  return cfg;
}

void CheckInvariants(const RunResult& r, int num_clients, const char* which) {
  SCOPED_TRACE(which);
  EXPECT_GT(r.commits, 0u);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_FALSE(r.stalled);
  // Conservation over the measurement window:
  //   started + in_flight(window start) == finished + in_flight(window end)
  // and each client drives one attempt at a time, so both in-flight terms
  // are bounded by the population: |started - finished| <= num_clients.
  const std::uint64_t finished = r.commits + r.aborts;
  const std::uint64_t slack = static_cast<std::uint64_t>(num_clients);
  EXPECT_LE(r.attempts_started, finished + slack);
  EXPECT_LE(finished, r.attempts_started + slack);
  EXPECT_TRUE(r.oracle_enabled);
  EXPECT_GE(r.oracle_commits, r.commits);
}

class SubstrateParityTest
    : public ::testing::TestWithParam<std::pair<Algorithm, CachingMode>> {};

TEST_P(SubstrateParityTest, ConservationAndOracleOnBothSubstrates) {
  const auto [algorithm, caching] = GetParam();
  ExperimentConfig cfg = ParityConfig(algorithm, caching);

  // DES substrate: commit-target driven, virtual time.
  cfg.control.warmup_seconds = 2;
  cfg.control.target_commits = 200;
  cfg.control.max_measure_seconds = 300;
  const Result<RunResult> sim = runner::RunExperiment(cfg);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  CheckInvariants(sim.ValueOrDie(), cfg.system.num_clients, "sim");

  // Real substrate: the same config, wall-clock paced over TCP loopback.
  runner::RealRunOptions options;
  options.warmup_seconds = 0.3;
  options.duration_seconds = 1.2;
  const Result<RunResult> real = runner::RunRealExperiment(cfg, options);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  CheckInvariants(real.ValueOrDie(), cfg.system.num_clients, "real");
}

// The acceptance cocktail from ISSUE/DESIGN §5c on real threads + TCP:
// frame drop + duplicate + delay spikes, one hard partition (the carrying
// TCP connection is killed and redialed), one server crash + log-replay
// restart, and torn log writes — for every protocol, no transaction may
// be lost, conservation must hold, and the oracle must stay clean.
TEST_P(SubstrateParityTest, RealChaosCocktailSurvives) {
  const auto [algorithm, caching] = GetParam();
  ExperimentConfig cfg = ParityConfig(algorithm, caching);
  cfg.fault.recovery_enabled = true;
  cfg.fault.drop_probability = 0.02;
  cfg.fault.duplicate_probability = 0.01;
  cfg.fault.delay_spike_probability = 0.05;
  cfg.fault.delay_spike_ms = 5.0;
  cfg.fault.torn_write_probability = 0.2;
  config::FaultParams::PartitionEvent part;
  part.node = 0;
  part.at_s = 0.8;
  part.duration_s = 0.4;
  part.hard = true;  // the TCP connection dies with the window
  cfg.fault.partitions.push_back(part);
  config::FaultParams::CrashEvent crash;
  crash.node = net::kServerNode;
  crash.at_s = 1.4;
  crash.downtime_s = 0.25;
  cfg.fault.crashes.push_back(crash);

  runner::RealRunOptions options;
  options.warmup_seconds = 0.3;
  options.duration_seconds = 2.2;  // covers both windows plus recovery
  const Result<RunResult> real = runner::RunRealExperiment(cfg, options);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  const RunResult& r = real.ValueOrDie();
  CheckInvariants(r, cfg.system.num_clients, "real-chaos");
  EXPECT_EQ(r.server_crashes, 1u);
  EXPECT_GT(r.recovery_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SubstrateParityTest,
    ::testing::Values(
        std::pair{Algorithm::kTwoPhaseLocking,
                  CachingMode::kInterTransaction},
        std::pair{Algorithm::kCertification, CachingMode::kInterTransaction},
        std::pair{Algorithm::kCallbackLocking,
                  CachingMode::kInterTransaction},
        std::pair{Algorithm::kNoWaitLocking, CachingMode::kInterTransaction},
        std::pair{Algorithm::kNoWaitNotify, CachingMode::kInterTransaction}),
    [](const auto& info) {
      switch (info.param.first) {
        case Algorithm::kTwoPhaseLocking:
          return "TwoPhaseLocking";
        case Algorithm::kCertification:
          return "Certification";
        case Algorithm::kCallbackLocking:
          return "CallbackLocking";
        case Algorithm::kNoWaitLocking:
          return "NoWaitLocking";
        case Algorithm::kNoWaitNotify:
          return "NoWaitNotify";
      }
      return "Unknown";
    });

// ccserve --crash + ccload --recovery, in one process: the server's config
// carries the crash window, the clients' config only the recovery layer
// (so no wire faults and no adapter on their side). The shards must still
// redial after the crash severs them, and commits must resume.
TEST(SplitDeploymentTest, ClientsWithOnlyRecoveryRideOutAServerCrash) {
  ExperimentConfig server_cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                             CachingMode::kInterTransaction);
  server_cfg.fault.recovery_enabled = true;
  server_cfg.fault.crashes.push_back(
      {/*node=*/net::kServerNode, /*at_s=*/0.3, /*downtime_s=*/0.2});
  ExperimentConfig client_cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                             CachingMode::kInterTransaction);
  client_cfg.fault.recovery_enabled = true;
  const Result<ExperimentConfig> server_real =
      runner::PrepareRealConfig(server_cfg);
  const Result<ExperimentConfig> client_real =
      runner::PrepareRealConfig(client_cfg);
  ASSERT_TRUE(server_real.ok()) << server_real.status().ToString();
  ASSERT_TRUE(client_real.ok()) << client_real.status().ToString();

  auto server = runner::ServerDeployment::Start(server_real.ValueOrDie(),
                                                /*port=*/0, "127.0.0.1");
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(server.ValueOrDie()->wire_faults());
  auto clients = runner::ClientDeployment::Connect(
      client_real.ValueOrDie(), "127.0.0.1", server.ValueOrDie()->port(),
      0, client_cfg.system.num_clients, /*shards=*/2);
  ASSERT_TRUE(clients.ok()) << clients.status().ToString();
  EXPECT_FALSE(clients.ValueOrDie()->wire_faults());
  // The stats window opens after the crash window has closed, so every
  // commit it counts happened after the restart.
  clients.ValueOrDie()->Run(/*warmup_seconds=*/1.2,
                            /*duration_seconds=*/1.0);
  server.ValueOrDie()->Stop();

  RunResult r;
  clients.ValueOrDie()->Harvest(&r);
  server.ValueOrDie()->Harvest(&r);
  EXPECT_EQ(r.server_crashes, 1u);
  EXPECT_GE(clients.ValueOrDie()->reconnects(), 2u);  // one per shard
  EXPECT_GT(r.commits, 0u);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_TRUE(r.oracle_enabled);
}

// A long-lived ccserve serves one ccload session after another. Each
// session's transaction uids must be new to the server, or it takes the
// session's first attempts for stale ones and aborts them. One client has
// no lock conflicts, so the second session commits without an abort.
// Recovery mode lets the server reap an attempt the first session left
// open when it stopped.
TEST(SplitDeploymentTest, SecondSessionAgainstOneServerRunsWithoutAborts) {
  ExperimentConfig cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                      CachingMode::kInterTransaction);
  cfg.system.num_clients = 1;
  cfg.fault.recovery_enabled = true;
  const Result<ExperimentConfig> real = runner::PrepareRealConfig(cfg);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  auto server = runner::ServerDeployment::Start(real.ValueOrDie(),
                                                /*port=*/0, "127.0.0.1");
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RunResult sessions[2];
  for (RunResult& r : sessions) {
    auto clients = runner::ClientDeployment::Connect(
        real.ValueOrDie(), "127.0.0.1", server.ValueOrDie()->port(), 0, 1,
        /*shards=*/1);
    ASSERT_TRUE(clients.ok()) << clients.status().ToString();
    clients.ValueOrDie()->Run(/*warmup_seconds=*/0, /*duration_seconds=*/0.5);
    clients.ValueOrDie()->Harvest(&r);
  }
  server.ValueOrDie()->Stop();
  EXPECT_GT(sessions[0].commits, 0u);
  EXPECT_GT(sessions[1].commits, 0u);
  EXPECT_EQ(sessions[1].aborts, 0u);
}

TEST(SplitDeploymentTest, ShardCountHonoursAnExplicitCount) {
  EXPECT_EQ(runner::ShardCount(1, 8), 1);  // ccload --threads=1
  EXPECT_EQ(runner::ShardCount(3, 8), 3);
  EXPECT_EQ(runner::ShardCount(16, 8), 8);  // never more than clients
  // The default: one shard per 8 clients, at least 2.
  EXPECT_EQ(runner::ShardCount(0, 8), 2);
  EXPECT_EQ(runner::ShardCount(0, 6), 2);
  EXPECT_EQ(runner::ShardCount(0, 1), 1);
  EXPECT_EQ(runner::ShardCount(0, 17), 3);
  EXPECT_EQ(runner::ShardCount(-1, 40), 5);
}

// ---------------------------------------------------------------------------
// Batched-I/O ordering: the DESIGN.md §5e contract at the transport level
// ---------------------------------------------------------------------------

substrate::Hello OrderingHello(int num_clients) {
  substrate::Hello hello;
  hello.algorithm = 0;
  hello.caching = 0;
  hello.total_pages = 1000;
  hello.num_clients = num_clients;
  hello.page_payload_bytes = 0;  // control frames only: ordering, not bulk
  return hello;
}

// Per-connection FIFO must survive the whole batched path: many frames
// per sendmsg on the sender, many frames per recv and per readiness event
// on the receiving loop thread. Two connections send
// interleaved seq-stamped bursts; the server-side sink must observe every
// sender's sequence gapless and in order.
TEST(BatchedOrderingTest, PerConnectionFifoUnderBatchDrain) {
  constexpr int kClients = 4;        // ids 0,1 on conn A; 2,3 on conn B
  constexpr std::uint64_t kPerSender = 2000;
  constexpr int kBurst = 32;         // frames batched into one flush

  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  std::map<int, std::uint64_t> next_seq;   // loop thread only
  std::atomic<std::uint64_t> received{0};
  bool order_ok = true;                    // loop thread only
  server_sub.set_message_sink([&](net::MessagePtr msg) {
    if (msg->seq != next_seq[msg->src]++) {
      order_ok = false;
    }
    received.fetch_add(1, std::memory_order_relaxed);
  });

  const substrate::Hello hello = OrderingHello(kClients);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  substrate::TcpServerTransport* st = server.get();
  server_sub.set_flush_hook([st] { return st->Flush(); });
  std::thread loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  // One sender thread per connection: the single-writer contract is per
  // connection, and each thread plays that connection's loop thread.
  std::vector<std::unique_ptr<sim::Simulator>> client_sims;
  std::vector<std::unique_ptr<substrate::RealtimeSubstrate>> client_subs;
  std::vector<std::unique_ptr<substrate::TcpClientTransport>> clients;
  for (int c = 0; c < 2; ++c) {
    client_sims.push_back(std::make_unique<sim::Simulator>());
    client_subs.push_back(std::make_unique<substrate::RealtimeSubstrate>(
        client_sims.back().get()));
    substrate::Hello ch = hello;
    ch.client_lo = 2 * c;
    ch.client_hi = 2 * c + 2;
    auto client = substrate::TcpClientTransport::Connect(
        "127.0.0.1", server->port(), ch, client_subs.back().get(), &error);
    ASSERT_NE(client, nullptr) << error;
    clients.push_back(std::move(client));
  }
  std::vector<std::thread> senders;
  for (int c = 0; c < 2; ++c) {
    substrate::TcpClientTransport* transport = clients[
        static_cast<std::size_t>(c)].get();
    senders.emplace_back([transport, c] {
      net::Message msg;
      msg.type = net::MsgType::kNoWaitLock;
      msg.dst = net::kServerNode;
      msg.pages.push_back(1);
      for (int id = 2 * c; id < 2 * c + 2; ++id) {
        msg.src = id;
        for (std::uint64_t i = 0; i < kPerSender; ++i) {
          msg.seq = i;
          transport->Deliver(msg);
          if ((i + 1) % kBurst == 0) {
            while (!transport->Flush()) {
              std::this_thread::yield();
            }
          }
        }
        while (!transport->Flush()) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : senders) {
    t.join();
  }

  constexpr std::uint64_t kTotal = kClients * kPerSender;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load(std::memory_order_relaxed) < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server_sub.Stop();
  loop.join();
  for (auto& client : clients) {
    client->Close();
  }
  server->Close();

  EXPECT_EQ(received.load(), kTotal);
  EXPECT_TRUE(order_ok) << "a sender's sequence arrived reordered or gapped";
  for (int id = 0; id < kClients; ++id) {
    EXPECT_EQ(next_seq[id], kPerSender) << "client " << id;
  }
  EXPECT_EQ(server->unroutable_drops(), 0u);
}

// A connection that departs (a finished or killed ccload run) must not
// wedge the server: messages routed to it are counted and dropped, like
// mail to a crashed workstation.
TEST(BatchedOrderingTest, DepartedPeerDropsAreCounted) {
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  server_sub.set_message_sink([](net::MessagePtr) {});

  const substrate::Hello hello = OrderingHello(2);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  substrate::TcpServerTransport* st = server.get();
  server_sub.set_flush_hook([st] { return st->Flush(); });
  std::thread loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  substrate::Hello ch = hello;
  ch.client_lo = 0;
  ch.client_hi = 2;
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server->port(), ch, &client_sub, &error);
  ASSERT_NE(client, nullptr) << error;
  client->Close();  // the peer departs

  // Keep delivering (on the loop thread, as the protocol would) until the
  // departure is observed; whichever way the race lands — route already
  // deregistered, or queued bytes erroring the next flush — the message
  // must die counted, never silently.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server->unroutable_drops() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    server_sub.PostControl([st] {
      net::Message msg;
      msg.type = net::MsgType::kAbortNotice;
      msg.src = net::kServerNode;
      msg.dst = 0;
      st->Deliver(msg);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server_sub.Stop();
  loop.join();
  server->Close();
  EXPECT_GT(server->unroutable_drops(), 0u);
}

// When Connect() returns the client is routable: the server loop may send
// to it at once and nothing may die unroutable. (Routes are published
// before the Hello reply; replying first left a window in which frames
// sent right after Connect() were dropped, which a loaded host hit.)
TEST(BatchedOrderingTest, ClientIsRoutableWhenConnectReturns) {
  constexpr int kRounds = 64;  // one fresh client id per round
  constexpr int kPerRound = 32;

  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  server_sub.set_message_sink([](net::MessagePtr) {});
  const substrate::Hello hello = OrderingHello(kRounds);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  substrate::TcpServerTransport* st = server.get();
  server_sub.set_flush_hook([st] { return st->Flush(); });
  std::thread loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  for (int round = 0; round < kRounds; ++round) {
    sim::Simulator client_sim;
    substrate::RealtimeSubstrate client_sub(&client_sim);
    std::atomic<int> received{0};
    client_sub.set_message_sink([&received](net::MessagePtr) {
      received.fetch_add(1, std::memory_order_relaxed);
    });
    substrate::Hello ch = hello;
    ch.client_lo = round;
    ch.client_hi = round + 1;
    auto client = substrate::TcpClientTransport::Connect(
        "127.0.0.1", server->port(), ch, &client_sub, &error);
    EXPECT_NE(client, nullptr) << error;
    if (client == nullptr) {
      break;
    }
    // Send from the server loop the moment Connect() has returned.
    server_sub.PostControl([st, round] {
      net::Message msg;
      msg.type = net::MsgType::kAbortNotice;
      msg.src = net::kServerNode;
      msg.dst = round;
      for (int i = 0; i < kPerRound; ++i) {
        msg.seq = static_cast<std::uint64_t>(i);
        st->Deliver(msg);
      }
    });
    std::thread client_loop([&client_sub] {
      client_sub.Run(60 * sim::kTicksPerSecond);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (received.load(std::memory_order_relaxed) < kPerRound &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client_sub.Stop();
    client_loop.join();
    client->Close();
    EXPECT_EQ(received.load(), kPerRound) << "round " << round;
  }
  server_sub.Stop();
  loop.join();
  server->Close();
  EXPECT_EQ(server->unroutable_drops(), 0u);
}

// Wire faults now run on the real substrate (WireFaultAdapter at the
// Transport seam): the full cocktail must validate.
TEST(RealConfigValidationTest, AcceptsWireFaultPlans) {
  ExperimentConfig cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                      CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  cfg.fault.drop_probability = 0.02;
  cfg.fault.duplicate_probability = 0.01;
  cfg.fault.delay_spike_probability = 0.05;
  cfg.fault.delay_spike_ms = 5.0;
  cfg.fault.torn_write_probability = 0.2;
  config::FaultParams::PartitionEvent part;
  part.node = 0;
  part.at_s = 1.0;
  part.duration_s = 0.5;
  part.hard = true;
  cfg.fault.partitions.push_back(part);
  config::FaultParams::CrashEvent crash;
  crash.node = net::kServerNode;
  crash.at_s = 2.0;
  crash.downtime_s = 0.3;
  cfg.fault.crashes.push_back(crash);
  const Status status = runner::ValidateRealConfig(cfg);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// The remaining sim-only options must be rejected up front, not silently
// ignored — and the error must name the offending flag so the operator
// knows what to change.
TEST(RealConfigValidationTest, RejectsClientCrashWindowsNamingTheFlag) {
  ExperimentConfig cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                      CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  config::FaultParams::CrashEvent crash;
  crash.node = 2;  // a client node: shards have no crash/restart hook
  crash.at_s = 1.0;
  crash.downtime_s = 0.3;
  cfg.fault.crashes.push_back(crash);
  const Status status = runner::ValidateRealConfig(cfg);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--crash"), std::string::npos)
      << status.ToString();
}

TEST(RealConfigValidationTest, AcceptsCleanConfig) {
  const ExperimentConfig cfg = ParityConfig(
      Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction);
  EXPECT_TRUE(runner::ValidateRealConfig(cfg).ok());
}

}  // namespace
}  // namespace ccsim
