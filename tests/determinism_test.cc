// Golden determinism tests for the event kernel and the parallel sweep
// runner: the simulation must be a pure function of (config, seed).
//
// Every metric is serialized with hex-float formatting (%a), so the
// comparison is byte-exact — not within-epsilon. A single reordered event
// anywhere in a run perturbs the RNG consumption sequence and shows up
// here. This is the acceptance gate for kernel changes: any calendar or
// payload rework must keep these green.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "config/params.h"
#include "runner/experiment.h"
#include "runner/sweep.h"

namespace ccsim {
namespace {

struct NamedAlgorithm {
  config::Algorithm algorithm;
  const char* label;
};

// All five consistency algorithms: each exercises a different mix of
// kernel primitives (callbacks fan out events; certification batches
// validation; no-wait piggybacks checks on fetches).
const NamedAlgorithm kAllAlgorithms[] = {
    {config::Algorithm::kTwoPhaseLocking, "2PL"},
    {config::Algorithm::kCertification, "certification"},
    {config::Algorithm::kCallbackLocking, "callback"},
    {config::Algorithm::kNoWaitLocking, "no-wait"},
    {config::Algorithm::kNoWaitNotify, "no-wait+notify"},
};

config::ExperimentConfig SmallConfig(config::Algorithm algorithm,
                                     int num_clients) {
  config::ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = algorithm;
  cfg.algorithm.caching = config::CachingMode::kInterTransaction;
  cfg.system.num_clients = num_clients;
  cfg.control.seed = 12345;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 200;
  cfg.control.max_measure_seconds = 120;
  return cfg;
}

void Append(std::string& out, const char* name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%a\n", name, v);
  out += buf;
}

void Append(std::string& out, const char* name, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%llu\n", name,
                static_cast<unsigned long long>(v));
  out += buf;
}

// Byte-exact serialization of every scalar metric in a RunResult.
std::string Serialize(const runner::RunResult& r) {
  std::string out;
  Append(out, "measured_seconds", r.measured_seconds);
  Append(out, "commits", r.commits);
  Append(out, "aborts", r.aborts);
  Append(out, "deadlock_aborts", r.deadlock_aborts);
  Append(out, "stale_aborts", r.stale_aborts);
  Append(out, "cert_aborts", r.cert_aborts);
  Append(out, "deadlocks_detected", r.deadlocks_detected);
  Append(out, "mean_response_s", r.mean_response_s);
  Append(out, "response_ci_s", r.response_ci_s);
  Append(out, "throughput_tps", r.throughput_tps);
  Append(out, "mean_attempts_per_commit", r.mean_attempts_per_commit);
  Append(out, "server_cpu_util", r.server_cpu_util);
  Append(out, "client_cpu_util", r.client_cpu_util);
  Append(out, "network_util", r.network_util);
  Append(out, "data_disk_util", r.data_disk_util);
  Append(out, "log_disk_util", r.log_disk_util);
  Append(out, "messages", r.messages);
  Append(out, "packets", r.packets);
  Append(out, "client_hit_ratio", r.client_hit_ratio);
  Append(out, "server_buffer_hit_ratio", r.server_buffer_hit_ratio);
  Append(out, "buffer_writebacks", r.buffer_writebacks);
  Append(out, "log_forced_commits", r.log_forced_commits);
  Append(out, "undo_page_ios", r.undo_page_ios);
  Append(out, "partition_drops", r.partition_drops);
  Append(out, "shed_requests", r.shed_requests);
  Append(out, "retry_budget_exhaustions", r.retry_budget_exhaustions);
  Append(out, "ready_queue_high_water",
         static_cast<std::uint64_t>(r.ready_queue_high_water));
  Append(out, "log_records_truncated", r.log_records_truncated);
  Append(out, "stuck_clients", static_cast<std::uint64_t>(r.stuck_clients));
  for (std::size_t i = 0; i < r.per_type_response.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "type%zu_response", i);
    Append(out, name, r.per_type_response[i].first);
    std::snprintf(name, sizeof(name), "type%zu_commits", i);
    Append(out, name, r.per_type_response[i].second);
  }
  Append(out, "stalled", static_cast<std::uint64_t>(r.stalled ? 1 : 0));
  return out;
}

// Fault and recovery counters, appended for the lossy-network config so a
// change in retransmission, duplicate suppression or reply-cache replay
// shows up in its digest.
std::string SerializeWithFaults(const runner::RunResult& r) {
  std::string out = Serialize(r);
  Append(out, "messages_dropped", r.messages_dropped);
  Append(out, "messages_duplicated", r.messages_duplicated);
  Append(out, "delay_spikes", r.delay_spikes);
  Append(out, "rpc_retries", r.rpc_retries);
  Append(out, "rpc_timeouts", r.rpc_timeouts);
  Append(out, "timeout_aborts", r.timeout_aborts);
  Append(out, "lease_expirations", r.lease_expirations);
  Append(out, "duplicates_suppressed", r.duplicates_suppressed);
  Append(out, "gc_xacts", r.gc_xacts);
  Append(out, "unknown_outcomes", r.unknown_outcomes);
  return out;
}

/// 64-bit FNV-1a of a serialization, as 16 hex digits.
std::string Digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

// Pinned model digests. The tests above compare a run only with itself;
// these compare it with the model as recorded, so a change that was meant
// to leave behaviour alone (a refactor, a perf change) fails here if it
// moved a single event.
//
// The kernel event count and the message count of each run are pinned
// beside its digest. The digest leaves the event count out on purpose (a
// change may remove events and keep the model), so a change that adds or
// removes events or messages without moving the model fails here too.
//
// When a change alters the model, or its event count, on purpose,
// re-record: run
//   ctest --test-dir build -R 'DeterminismTest.PinnedModelDigests'
// --output-on-failure, check that the change explains every moved digest
// and count (and nothing else moved), copy the values printed as
// "Which is" into the tables below, and say in the change description
// which ones moved and why.
struct PinnedDigest {
  const char* label;
  const char* digest;
  std::uint64_t events;
  std::uint64_t messages;
};

const PinnedDigest kFaultFreeDigests[] = {
    {"2PL", "11d66714334fae85", 34039, 3991},
    {"certification", "382ace059fe23a4b", 30084, 3404},
    {"callback", "0b614e06d8068fb0", 31101, 3490},
    {"no-wait", "8e4a9f772c5405b0", 29958, 3366},
    {"no-wait+notify", "3c448061c769f5a3", 30305, 3429},
};

/// Recovery mode under message loss and duplication: exercises the
/// retransmit copies, the server's reply cache and the injector's
/// duplicate deliveries.
config::ExperimentConfig LossyRecoveryConfig() {
  config::ExperimentConfig cfg =
      SmallConfig(config::Algorithm::kCallbackLocking, 10);
  cfg.fault.drop_probability = 0.05;
  cfg.fault.duplicate_probability = 0.02;
  cfg.fault.recovery_enabled = true;
  return cfg;
}

const PinnedDigest kLossyRecovery = {"lossy callback", "74bf26b69d5ab6e3",
                                     37521, 4283};

TEST(DeterminismTest, PinnedModelDigests) {
  for (std::size_t i = 0; i < std::size(kAllAlgorithms); ++i) {
    const NamedAlgorithm& alg = kAllAlgorithms[i];
    auto result = runner::RunExperiment(SmallConfig(alg.algorithm, 10));
    ASSERT_TRUE(result.ok()) << alg.label;
    ASSERT_STREQ(kFaultFreeDigests[i].label, alg.label);
    const runner::RunResult& r = result.ValueOrDie();
    EXPECT_EQ(Digest(Serialize(r)), kFaultFreeDigests[i].digest)
        << alg.label << " fault-free model moved";
    EXPECT_EQ(r.events_processed, kFaultFreeDigests[i].events)
        << alg.label << " event count moved";
    EXPECT_EQ(r.messages, kFaultFreeDigests[i].messages)
        << alg.label << " message count moved";
  }
  auto lossy = runner::RunExperiment(LossyRecoveryConfig());
  ASSERT_TRUE(lossy.ok());
  const runner::RunResult& r = lossy.ValueOrDie();
  EXPECT_FALSE(r.stalled);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_GT(r.messages_duplicated, 0u);
  EXPECT_GT(r.duplicates_suppressed, 0u);
  EXPECT_EQ(Digest(SerializeWithFaults(r)), kLossyRecovery.digest)
      << "recovery-mode model moved";
  EXPECT_EQ(r.events_processed, kLossyRecovery.events)
      << "recovery-mode event count moved";
  EXPECT_EQ(r.messages, kLossyRecovery.messages)
      << "recovery-mode message count moved";
}

TEST(DeterminismTest, SameSeedTwiceIsByteIdentical) {
  for (const NamedAlgorithm& alg : kAllAlgorithms) {
    const config::ExperimentConfig cfg = SmallConfig(alg.algorithm, 10);
    auto first = runner::RunExperiment(cfg);
    auto second = runner::RunExperiment(cfg);
    ASSERT_TRUE(first.ok()) << alg.label;
    ASSERT_TRUE(second.ok()) << alg.label;
    EXPECT_FALSE(first.ValueOrDie().stalled) << alg.label;
    EXPECT_EQ(Serialize(first.ValueOrDie()), Serialize(second.ValueOrDie()))
        << alg.label;
  }
}

TEST(DeterminismTest, SerialAndParallelSweepsAreByteIdentical) {
  // One sweep mixing all five algorithms at two client counts, run once
  // on the calling thread and once fanned across 8 workers. Results must
  // come back in submission order with byte-identical metrics.
  std::vector<config::ExperimentConfig> configs;
  for (const NamedAlgorithm& alg : kAllAlgorithms) {
    for (int clients : {5, 10}) {
      configs.push_back(SmallConfig(alg.algorithm, clients));
    }
  }
  auto serial = runner::RunExperiments(configs, 1);
  auto parallel = runner::RunExperiments(configs, 8);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << "config " << i;
    ASSERT_TRUE(parallel[i].ok()) << "config " << i;
    EXPECT_EQ(Serialize(serial[i].ValueOrDie()),
              Serialize(parallel[i].ValueOrDie()))
        << "config " << i;
  }
}

}  // namespace
}  // namespace ccsim
