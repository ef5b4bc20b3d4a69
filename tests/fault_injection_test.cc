// Chaos tests (ctest label "chaos"): run every consistency algorithm on a
// lossy, duplicating, delay-spiking network — plus scheduled client and
// server crashes — with a fixed seed, and assert the recovery layer keeps
// the system live and serializable. The serializability oracle and the
// log's version-chain audit (both on with checker.enabled) make any
// protocol bug fatal.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "config/params.h"
#include "fault/fault_plan.h"
#include "net/message.h"
#include "runner/experiment.h"

namespace ccsim {
namespace {

using config::Algorithm;
using config::CachingMode;
using config::ExperimentConfig;
using runner::RunExperiment;
using runner::RunResult;

/// A contended 8-client workload, sized so each run finishes in seconds.
ExperimentConfig ChaosBaseConfig(Algorithm algorithm, CachingMode mode) {
  ExperimentConfig cfg = config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.transaction.prob_write = 0.2;
  cfg.transaction.inter_xact_loc = 0.25;
  cfg.algorithm.algorithm = algorithm;
  cfg.algorithm.caching = mode;
  cfg.control.seed = 7;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 300;
  cfg.control.max_measure_seconds = 300;
  cfg.checker.enabled = true;
  return cfg;
}

/// Adds the message-level fault cocktail and switches the recovery layer on.
void AddLossyNetwork(ExperimentConfig& cfg) {
  cfg.fault.drop_probability = 0.05;
  cfg.fault.duplicate_probability = 0.02;
  cfg.fault.delay_spike_probability = 0.05;
  cfg.fault.delay_spike_ms = 20.0;
  cfg.fault.recovery_enabled = true;
}

/// The log audit asserted at every commit that each page's versions form a
/// dense chain, even with faults injected: recovery must never let a lost
/// message skip or repeat a version. The run must have logged writes for
/// that to mean anything.
void ExpectDenseVersionChains(const RunResult& r) {
  EXPECT_TRUE(r.oracle_enabled);
  EXPECT_GT(r.log_forced_commits, 0u);
}

class ChaosSweep
    : public ::testing::TestWithParam<std::tuple<Algorithm, CachingMode>> {};

TEST_P(ChaosSweep, SurvivesLossyNetworkSerializably) {
  const auto [algorithm, mode] = GetParam();
  ExperimentConfig cfg = ChaosBaseConfig(algorithm, mode);
  AddLossyNetwork(cfg);
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  // Liveness: 5% drop must not hang any protocol.
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  // The recovery contract: every transaction spec is retried to commit.
  EXPECT_EQ(r.transactions_lost, 0u);
  // The faults really happened and the survival machinery really ran.
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_GT(r.messages_duplicated, 0u);
  EXPECT_GT(r.rpc_retries, 0u);
  ExpectDenseVersionChains(r);
}

std::string ChaosName(
    const ::testing::TestParamInfo<ChaosSweep::ParamType>& info) {
  const auto [algorithm, mode] = info.param;
  std::string name = config::AlgorithmLabel(algorithm, mode);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ChaosSweep,
    ::testing::Values(
        std::make_tuple(Algorithm::kTwoPhaseLocking,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kCertification,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kCallbackLocking,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kNoWaitLocking,
                        CachingMode::kInterTransaction),
        std::make_tuple(Algorithm::kNoWaitNotify,
                        CachingMode::kInterTransaction)),
    ChaosName);

TEST(FaultInjectionTest, DeterministicUnderFaults) {
  // The whole fault sequence is drawn from a dedicated seeded stream, so a
  // faulty run replays exactly.
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kCallbackLocking,
                                         CachingMode::kInterTransaction);
  AddLossyNetwork(cfg);
  const RunResult a = RunExperiment(cfg).ValueOrDie();
  const RunResult b = RunExperiment(cfg).ValueOrDie();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.rpc_retries, b.rpc_retries);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
}

TEST(FaultInjectionTest, FaultFreeRunReportsZeroFaultMetrics) {
  // With a default FaultParams no injector is attached at all, and every
  // robustness counter stays zero.
  const ExperimentConfig cfg = ChaosBaseConfig(
      Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction);
  const RunResult r = RunExperiment(cfg).ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_EQ(r.messages_dropped, 0u);
  EXPECT_EQ(r.messages_duplicated, 0u);
  EXPECT_EQ(r.delay_spikes, 0u);
  EXPECT_EQ(r.down_drops, 0u);
  EXPECT_EQ(r.rpc_retries, 0u);
  EXPECT_EQ(r.rpc_timeouts, 0u);
  EXPECT_EQ(r.timeout_aborts, 0u);
  EXPECT_EQ(r.crash_aborts, 0u);
  EXPECT_EQ(r.lease_expirations, 0u);
  EXPECT_EQ(r.duplicates_suppressed, 0u);
  EXPECT_EQ(r.gc_xacts, 0u);
  EXPECT_EQ(r.client_crashes, 0u);
  EXPECT_EQ(r.server_crashes, 0u);
  EXPECT_EQ(r.recovery_seconds, 0.0);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_EQ(r.unknown_outcomes, 0u);
  EXPECT_EQ(r.partition_drops, 0u);
  EXPECT_EQ(r.shed_requests, 0u);
  EXPECT_EQ(r.retry_budget_exhaustions, 0u);
  EXPECT_EQ(r.log_torn_writes, 0u);
  EXPECT_EQ(r.log_bit_flips, 0u);
  EXPECT_EQ(r.log_rewrites, 0u);
  EXPECT_EQ(r.log_records_truncated, 0u);
  EXPECT_EQ(r.stuck_clients, 0);
}

TEST(FaultInjectionTest, DefaultFaultPlanIsInert) {
  // The null-hook fast path hinges on these: a default plan must report no
  // faults, so no injector is constructed and fault-free runs stay
  // byte-identical to a build without the fault subsystem.
  EXPECT_FALSE(fault::FaultPlan{}.Any());
  EXPECT_FALSE(config::FaultParams{}.AnyFaults());
}

TEST(FaultInjectionTest, ClientCrashesAreSurvived) {
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kTwoPhaseLocking,
                                         CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  cfg.fault.crashes.push_back({/*node=*/3, /*at_s=*/10.0, /*downtime_s=*/2.0});
  cfg.fault.crashes.push_back({/*node=*/5, /*at_s=*/18.0, /*downtime_s=*/3.0});
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_EQ(r.client_crashes, 2u);
  EXPECT_EQ(r.server_crashes, 0u);
  EXPECT_EQ(r.transactions_lost, 0u);
  ExpectDenseVersionChains(r);
}

TEST(FaultInjectionTest, SymmetricPartitionIsSurvived) {
  // Client 2 loses both halves of its link to the server for 4 s: its
  // leases expire, its in-flight work resolves via timeouts and
  // unknown-outcome reconciliation, and after the heal it rejoins and the
  // run completes with nothing lost and nobody wedged.
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kCallbackLocking,
                                         CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  cfg.fault.partitions.push_back(
      {/*node=*/2, /*at_s=*/10.0, /*duration_s=*/4.0, /*direction=*/0});
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_GT(r.partition_drops, 0u);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_EQ(r.stuck_clients, 0);
  ExpectDenseVersionChains(r);
}

TEST(FaultInjectionTest, AsymmetricPartitionsAreSurvived) {
  // One client loses only its outbound half (requests vanish, replies would
  // arrive), another only its inbound half (requests arrive, replies
  // vanish). The reply-loss case is the nastier one: the server executes
  // work the client never learns about, exercising duplicate suppression
  // and commit revalidation on the retry path.
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kTwoPhaseLocking,
                                         CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  cfg.fault.partitions.push_back(
      {/*node=*/1, /*at_s=*/10.0, /*duration_s=*/3.0, /*direction=*/1});
  cfg.fault.partitions.push_back(
      {/*node=*/4, /*at_s=*/15.0, /*duration_s=*/3.0, /*direction=*/2});
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_GT(r.partition_drops, 0u);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_EQ(r.stuck_clients, 0);
  ExpectDenseVersionChains(r);
}

TEST(FaultInjectionTest, ServerCrashInterruptingLogForceIsRecovered) {
  // A crash at t=10.024 s lands inside a commit's log force for this exact
  // workload (verified by scanning crash times at 2 ms steps), so the tail
  // record is torn: restart recovery truncates it and re-forces from the
  // durable version table. The interrupted commit was never acknowledged —
  // its client times out and retries — so nothing is lost.
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kTwoPhaseLocking,
                                         CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  cfg.fault.crashes.push_back(
      {/*node=*/net::kServerNode, /*at_s=*/10.024, /*downtime_s=*/1.0});
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_EQ(r.server_crashes, 1u);
  EXPECT_GE(r.log_records_truncated, 1u);
  EXPECT_EQ(r.transactions_lost, 0u);
  ExpectDenseVersionChains(r);
}

TEST(FaultInjectionTest, StorageFaultsAreDetectedAndRepaired) {
  // Every force read-verifies: injected torn writes and bit flips are
  // caught at write time and repaired with a rewrite, so the durable log
  // never holds a bad record and the run completes untouched.
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kCertification,
                                         CachingMode::kInterTransaction);
  cfg.fault.torn_write_probability = 0.2;
  cfg.fault.bit_flip_probability = 0.1;
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_GT(r.log_torn_writes, 0u);
  EXPECT_GT(r.log_bit_flips, 0u);
  EXPECT_EQ(r.log_rewrites, r.log_torn_writes + r.log_bit_flips);
  EXPECT_EQ(r.transactions_lost, 0u);
  ExpectDenseVersionChains(r);
}

TEST(FaultInjectionTest, OverloadShedsButStaysLive) {
  // Squeeze the server: MPL 1 with a 2-deep ready queue forces admission
  // control to shed bursts. Shed requests bounce as aborts, clients back
  // off with jittered timeouts and retry within budget, and the run still
  // completes with nothing lost.
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kTwoPhaseLocking,
                                         CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  cfg.fault.server_queue_limit = 2;
  cfg.fault.retry_budget = 40;
  cfg.fault.retry_jitter = 0.3;
  cfg.system.mpl = 1;
  cfg.control.target_commits = 100;
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_GT(r.shed_requests, 0u);
  EXPECT_LE(r.ready_queue_high_water, 2u);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_EQ(r.stuck_clients, 0);
  ExpectDenseVersionChains(r);
}

TEST(FaultInjectionTest, ServerCrashIsRecovered) {
  // Callback locking carries the most server-side volatile state (retained
  // locks, the copy directory), making it the strongest restart test.
  ExperimentConfig cfg = ChaosBaseConfig(Algorithm::kCallbackLocking,
                                         CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  cfg.fault.crashes.push_back(
      {/*node=*/net::kServerNode, /*at_s=*/10.0, /*downtime_s=*/1.0});
  Result<RunResult> result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& r = result.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GE(r.commits, cfg.control.target_commits);
  EXPECT_EQ(r.server_crashes, 1u);
  EXPECT_GT(r.recovery_seconds, 0.0);
  EXPECT_EQ(r.transactions_lost, 0u);
  ExpectDenseVersionChains(r);
}

}  // namespace
}  // namespace ccsim
