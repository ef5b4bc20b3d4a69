// Unit tests for configuration presets, validation, and the command-line
// parser shared by ccsim_run, ccserve and ccload.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/flags.h"
#include "config/params.h"

namespace ccsim::config {
namespace {

TEST(ConfigTest, BaseConfigMatchesTable5) {
  const ExperimentConfig cfg = BaseConfig();
  EXPECT_EQ(cfg.database.num_classes, 40);
  EXPECT_EQ(cfg.database.PagesInClass(0), 50);
  EXPECT_EQ(cfg.database.TotalPages(), 2000);
  EXPECT_DOUBLE_EQ(cfg.database.cluster_factor, 1.0);
  EXPECT_EQ(cfg.transaction.min_xact_size, 4);
  EXPECT_EQ(cfg.transaction.max_xact_size, 12);
  EXPECT_DOUBLE_EQ(cfg.transaction.external_delay_s, 1.0);
  EXPECT_EQ(cfg.transaction.inter_xact_set_size, 20);
  EXPECT_DOUBLE_EQ(cfg.system.net_delay_ms, 2.0);
  EXPECT_EQ(cfg.system.packet_size_bytes, 4096);
  EXPECT_DOUBLE_EQ(cfg.system.msg_cost_instr, 5000);
  EXPECT_DOUBLE_EQ(cfg.system.server_mips, 2.0);
  EXPECT_DOUBLE_EQ(cfg.system.client_mips, 1.0);
  EXPECT_EQ(cfg.system.num_data_disks, 2);
  EXPECT_EQ(cfg.system.num_log_disks, 1);
  EXPECT_EQ(cfg.system.client_cache_pages, 100);
  EXPECT_EQ(cfg.system.server_buffer_pages, 400);
  EXPECT_DOUBLE_EQ(cfg.system.seek_high_ms, 44.0);
  EXPECT_DOUBLE_EQ(cfg.system.disk_transfer_ms, 2.0);
  EXPECT_DOUBLE_EQ(cfg.system.server_proc_page_instr, 10000);
  EXPECT_DOUBLE_EQ(cfg.system.client_proc_page_instr, 20000);
  EXPECT_EQ(cfg.system.mpl, 50);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, AclConfigMatchesTable4) {
  const ExperimentConfig cfg = AclVerificationConfig();
  EXPECT_EQ(cfg.database.num_classes, 2);
  EXPECT_EQ(cfg.database.PagesInClass(0), 500);
  EXPECT_DOUBLE_EQ(cfg.transaction.prob_write, 0.25);
  EXPECT_EQ(cfg.system.num_clients, 200);
  EXPECT_DOUBLE_EQ(cfg.system.server_mips, 1.0);
  EXPECT_EQ(cfg.system.client_cache_pages, 12);
  EXPECT_EQ(cfg.system.server_buffer_pages, 1);
  EXPECT_DOUBLE_EQ(cfg.system.seek_low_ms, 35.0);
  EXPECT_DOUBLE_EQ(cfg.system.seek_high_ms, 35.0);
  EXPECT_DOUBLE_EQ(cfg.system.server_proc_page_instr, 15000);
  EXPECT_FALSE(cfg.algorithm.enable_log_manager);
  EXPECT_EQ(cfg.algorithm.caching, CachingMode::kIntraTransaction);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ValidationCatchesBadRanges) {
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.transaction.prob_write = -0.1;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.transaction.min_xact_size = 10;
    cfg.transaction.max_xact_size = 4;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.system.num_clients = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.system.seek_low_ms = 10;
    cfg.system.seek_high_ms = 5;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.database.cluster_factor = 1.5;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.system.mpl = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
}

TEST(ConfigTest, ValidationCatchesBadFaultConfig) {
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.torn_write_probability = 1.0;  // certain faults can't converge
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.bit_flip_probability = -0.1;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // A crash window sticking out past the end of the run would leave the
    // node down at harvest time.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.control.warmup_seconds = 5;
    cfg.control.max_measure_seconds = 60;
    cfg.fault.crashes.push_back({-1, 60.0, 10.0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Overlapping crash windows on the same node.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.crashes.push_back({-1, 10.0, 5.0});
    cfg.fault.crashes.push_back({-1, 12.0, 5.0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Partition node must be a client; the server cannot partition from
    // itself.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.partitions.push_back({-1, 10.0, 1.0, 0});
    EXPECT_FALSE(cfg.Validate().ok());
    cfg.fault.partitions.back().node = cfg.system.num_clients;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.partitions.push_back({0, 10.0, 1.0, 3});  // bad direction
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Overlapping partition windows on the same node.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.partitions.push_back({2, 10.0, 5.0, 0});
    cfg.fault.partitions.push_back({2, 14.0, 5.0, 1});
    EXPECT_FALSE(cfg.Validate().ok());
    // Disjoint windows on the same node are fine.
    cfg.fault.partitions.back().at_s = 15.0;
    EXPECT_TRUE(cfg.Validate().ok());
  }
  {
    // A partition window past the run end never heals.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.control.warmup_seconds = 5;
    cfg.control.max_measure_seconds = 60;
    cfg.fault.partitions.push_back({0, 60.0, 10.0, 0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    // Partitions (and the overload knobs) need the recovery layer: without
    // timeouts a cut-off client would hang forever.
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.partitions.push_back({0, 10.0, 1.0, 0});
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.server_queue_limit = 16;
    EXPECT_FALSE(cfg.Validate().ok());
    cfg.fault.recovery_enabled = true;
    EXPECT_TRUE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.retry_jitter = 1.5;
    EXPECT_FALSE(cfg.Validate().ok());
    cfg.fault.retry_jitter = 0.25;
    EXPECT_TRUE(cfg.Validate().ok());
  }
  {
    ExperimentConfig cfg = BaseConfig();
    cfg.fault.recovery_enabled = true;
    cfg.fault.retry_budget = -1;
    EXPECT_FALSE(cfg.Validate().ok());
  }
}

TEST(ConfigTest, CacheMustHoldWorkingSet) {
  ExperimentConfig cfg = BaseConfig();
  cfg.system.client_cache_pages = 5;  // < MaxXactSize
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, LocalityNeedsInterXactSet) {
  ExperimentConfig cfg = BaseConfig();
  cfg.transaction.inter_xact_set_size = 0;
  cfg.transaction.inter_xact_loc = 0.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.transaction.inter_xact_loc = 0.0;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ObjectSizeBounds) {
  ExperimentConfig cfg = BaseConfig();
  cfg.database.object_size = {0};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.database.object_size = {51};  // > pages per class
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.database.object_size = {12};
  cfg.system.client_cache_pages = 400;  // working set grows with objects
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, AlgorithmLabels) {
  EXPECT_EQ(AlgorithmLabel(Algorithm::kTwoPhaseLocking,
                           CachingMode::kInterTransaction),
            "2PL-inter");
  EXPECT_EQ(AlgorithmLabel(Algorithm::kTwoPhaseLocking,
                           CachingMode::kIntraTransaction),
            "2PL-intra");
  EXPECT_EQ(AlgorithmLabel(Algorithm::kCallbackLocking,
                           CachingMode::kInterTransaction),
            "callback");
  EXPECT_EQ(AlgorithmLabel(Algorithm::kNoWaitNotify,
                           CachingMode::kInterTransaction),
            "no-wait+notify");
  EXPECT_STREQ(AlgorithmName(Algorithm::kCertification), "certification");
  EXPECT_STREQ(CachingModeName(CachingMode::kIntraTransaction), "intra");
}

TEST(ConfigTest, IntraModeOnlyForTwoPhaseAndCertification) {
  ExperimentConfig cfg = BaseConfig();
  cfg.algorithm.caching = CachingMode::kIntraTransaction;
  for (Algorithm algorithm :
       {Algorithm::kCallbackLocking, Algorithm::kNoWaitLocking,
        Algorithm::kNoWaitNotify}) {
    cfg.algorithm.algorithm = algorithm;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  cfg.algorithm.algorithm = Algorithm::kCertification;
  EXPECT_TRUE(cfg.Validate().ok());
}

// --- shared command-line parser -------------------------------------------

// Each binary's own (non-config) flags, as its main() takes them.
OwnFlags OwnFlagsOf(Tool tool) {
  std::vector<const char*> names;
  switch (tool) {
    case Tool::kSimRun:
      names = {"--warmup", "--substrate", "--duration", "--shards",
               "--chaos-soak", "--jobs", "--sweep-clients"};
      break;
    case Tool::kServe:
      names = {"--port", "--bind", "--port-file", "--duration"};
      break;
    case Tool::kLoad:
      names = {"--host", "--port", "--port-file", "--lo", "--hi",
               "--threads", "--duration", "--warmup"};
      break;
  }
  return [tool, names](const char* arg, std::string*) {
    std::string value;
    if (tool == Tool::kSimRun && std::string(arg) == "--list") {
      return FlagResult::kStop;
    }
    if (tool == Tool::kSimRun && std::string(arg) == "--csv") {
      return FlagResult::kTaken;
    }
    for (const char* name : names) {
      if (ParseValue(arg, name, &value)) {
        return FlagResult::kTaken;
      }
    }
    return FlagResult::kNotMine;
  };
}

Status Parse(Tool tool, const std::vector<const char*>& args,
             CommandLine* out) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ParseCommandLine(tool, static_cast<int>(argv.size()), argv.data(),
                          OwnFlagsOf(tool), out);
}

struct FlagCase {
  const char* name;
  Tool tool;
  std::vector<const char*> args;
  /// What the per-binary parsers this one replaced made of `args`,
  /// written as edits to the tools' shared defaults.
  std::function<void(ExperimentConfig*)> expect;
};

FaultParams::CrashEvent Crash(int node, double at_s, double downtime_s) {
  FaultParams::CrashEvent crash;
  crash.node = node;
  crash.at_s = at_s;
  crash.downtime_s = downtime_s;
  return crash;
}

FaultParams::PartitionEvent Partition(int node, double at_s,
                                      double duration_s, int direction,
                                      bool hard) {
  FaultParams::PartitionEvent part;
  part.node = node;
  part.at_s = at_s;
  part.duration_s = duration_s;
  part.direction = direction;
  part.hard = hard;
  return part;
}

void SetAlgo(ExperimentConfig* c, Algorithm algorithm, CachingMode caching) {
  c->algorithm.algorithm = algorithm;
  c->algorithm.caching = caching;
}

// Every command line spelled out in README.md, tools/ci.sh and the verify
// notes, plus each fault flag's recovery implication per binary.
std::vector<FlagCase> DocumentedCommandLines() {
  return {
      {"readme_ccserve_loopback", Tool::kServe,
       {"--algorithm=callback", "--clients=16", "--port=0",
        "--port-file=/tmp/ccport", "--check"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kCallbackLocking,
                 CachingMode::kInterTransaction);
         c->system.num_clients = 16;
         c->checker.enabled = true;
       }},
      {"readme_ccload_loopback", Tool::kLoad,
       {"--port-file=/tmp/ccport", "--algorithm=callback", "--clients=16",
        "--duration=30"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kCallbackLocking,
                 CachingMode::kInterTransaction);
         c->system.num_clients = 16;
       }},
      {"readme_ccserve_two_host", Tool::kServe,
       {"--algorithm=2pl", "--clients=16", "--port=7411", "--bind=0.0.0.0",
        "--check"},
       [](ExperimentConfig* c) {
         c->system.num_clients = 16;
         c->checker.enabled = true;
       }},
      {"readme_ccload_two_host", Tool::kLoad,
       {"--host=server.example.org", "--port=7411", "--algorithm=2pl",
        "--clients=16", "--duration=30", "--lo=0", "--hi=8"},
       [](ExperimentConfig* c) { c->system.num_clients = 16; }},
      {"readme_fault_table", Tool::kSimRun,
       {"--drop=0.05", "--dup=0.02", "--spike=0.05:20", "--crash=3:20:2",
        "--partition=1:35:5:in", "--torn-write=0.1", "--bit-flip=0.05",
        "--queue-limit=16", "--retry-budget=20", "--retry-jitter=0.3",
        "--chaos-soak=1", "--seed=9", "--jobs=8", "--check"},
       [](ExperimentConfig* c) {
         FaultParams& f = c->fault;
         f.drop_probability = 0.05;
         f.duplicate_probability = 0.02;
         f.delay_spike_probability = 0.05;
         f.delay_spike_ms = 20;
         f.crashes = {Crash(3, 20, 2)};
         f.partitions = {Partition(1, 35, 5, 1, false)};
         f.torn_write_probability = 0.1;
         f.bit_flip_probability = 0.05;
         f.server_queue_limit = 16;
         f.retry_budget = 20;
         f.retry_jitter = 0.3;
         f.recovery_enabled = true;
         c->control.seed = 9;
         c->checker.enabled = true;
       }},
      {"readme_real_substrate", Tool::kSimRun,
       {"--substrate=real", "--duration=4", "--shards=2",
        "--sweep-clients=2,10"},
       [](ExperimentConfig*) {}},
      {"ci_ccserve_smoke", Tool::kServe,
       {"--algorithm=no-wait-notify", "--clients=8", "--port=0",
        "--port-file=/tmp/p", "--check", "--duration=65"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kNoWaitNotify, CachingMode::kInterTransaction);
         c->system.num_clients = 8;
         c->checker.enabled = true;
       }},
      {"ci_ccload_smoke", Tool::kLoad,
       {"--port-file=/tmp/p", "--algorithm=no-wait", "--clients=8",
        "--duration=5", "--warmup=1"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kNoWaitLocking, CachingMode::kInterTransaction);
         c->system.num_clients = 8;
       }},
      {"ci_real_chaos_cocktail", Tool::kSimRun,
       {"--substrate=real", "--algorithm=cert", "--clients=8",
        "--duration=4", "--check", "--drop=0.02", "--dup=0.01",
        "--spike=0.05:5", "--partition=0:1.5:0.5:hard",
        "--crash=-1:2.5:0.3"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kCertification,
                 CachingMode::kInterTransaction);
         c->system.num_clients = 8;
         c->checker.enabled = true;
         FaultParams& f = c->fault;
         f.drop_probability = 0.02;
         f.duplicate_probability = 0.01;
         f.delay_spike_probability = 0.05;
         f.delay_spike_ms = 5;
         f.partitions = {Partition(0, 1.5, 0.5, 0, true)};
         f.crashes = {Crash(-1, 2.5, 0.3)};
         f.recovery_enabled = true;
       }},
      {"ci_throughput_probe", Tool::kSimRun,
       {"--substrate=real", "--algorithm=2pl", "--clients=16", "--shards=1",
        "--duration=3", "--update-delay=0", "--internal-delay=0",
        "--external-delay=0", "--csv"},
       [](ExperimentConfig* c) {
         c->system.num_clients = 16;
         c->transaction.update_delay_s = 0;
         c->transaction.internal_delay_s = 0;
         c->transaction.external_delay_s = 0;
       }},
      {"ci_chaos_soak", Tool::kSimRun,
       {"--chaos-soak=3", "--seed=1", "--jobs=4", "--check"},
       [](ExperimentConfig* c) { c->checker.enabled = true; }},
      {"ci_split_crash_server", Tool::kServe,
       {"--algorithm=2pl", "--clients=8", "--port=0", "--port-file=/tmp/p",
        "--crash=2:0.3", "--check", "--duration=65"},
       [](ExperimentConfig* c) {
         c->system.num_clients = 8;
         c->checker.enabled = true;
         c->fault.crashes = {Crash(-1, 2, 0.3)};
         c->fault.recovery_enabled = true;
       }},
      {"ci_split_crash_load", Tool::kLoad,
       {"--port-file=/tmp/p", "--algorithm=2pl", "--clients=8",
        "--recovery", "--duration=5", "--warmup=1"},
       [](ExperimentConfig* c) {
         c->system.num_clients = 8;
         c->fault.recovery_enabled = true;
       }},
      {"skill_basic", Tool::kSimRun,
       {"--algorithm=2pl", "--clients=10", "--seed=42", "--commits=300"},
       [](ExperimentConfig* c) {
         c->control.seed = 42;
         c->control.target_commits = 300;
       }},
      {"skill_lossy", Tool::kSimRun,
       {"--algorithm=callback", "--drop=0.05", "--dup=0.02",
        "--spike=0.05:20", "--seed=7", "--commits=300"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kCallbackLocking,
                 CachingMode::kInterTransaction);
         c->fault.drop_probability = 0.05;
         c->fault.duplicate_probability = 0.02;
         c->fault.delay_spike_probability = 0.05;
         c->fault.delay_spike_ms = 20;
         c->fault.recovery_enabled = true;
         c->control.seed = 7;
         c->control.target_commits = 300;
       }},
      {"skill_client_crash", Tool::kSimRun,
       {"--algorithm=2pl", "--recovery", "--crash=3:20:2"},
       [](ExperimentConfig* c) {
         c->fault.crashes = {Crash(3, 20, 2)};
         c->fault.recovery_enabled = true;
       }},
      {"skill_server_crash", Tool::kSimRun,
       {"--algorithm=no-wait-notify", "--crash=-1:30:1"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kNoWaitNotify, CachingMode::kInterTransaction);
         c->fault.crashes = {Crash(-1, 30, 1)};
         c->fault.recovery_enabled = true;
       }},
      {"skill_sweep", Tool::kSimRun,
       {"--algorithm=2pl-intra", "--sweep-clients=2,10,30", "--jobs=4",
        "--csv"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kTwoPhaseLocking,
                 CachingMode::kIntraTransaction);
       }},
      {"sim_workload_and_hardware", Tool::kSimRun,
       {"--algorithm=cert-intra", "--locality=0.6", "--prob-write=0.1",
        "--xact-size=2:6", "--object-size=3", "--cluster-factor=0.5",
        "--server-mips=4", "--client-mips=2", "--net-delay-ms=1",
        "--msg-cost=100", "--data-disks=3", "--log-disks=2",
        "--cache-pages=50", "--buffer-pages=200", "--mpl=10",
        "--warmup=3", "--max-seconds=60", "--rpc-timeout-ms=50",
        "--lease-ms=500", "--idle-timeout-ms=1000"},
       [](ExperimentConfig* c) {
         SetAlgo(c, Algorithm::kCertification,
                 CachingMode::kIntraTransaction);
         c->transaction.inter_xact_loc = 0.6;
         c->transaction.prob_write = 0.1;
         c->transaction.min_xact_size = 2;
         c->transaction.max_xact_size = 6;
         c->database.object_size = {3};
         c->database.cluster_factor = 0.5;
         c->system.server_mips = 4;
         c->system.client_mips = 2;
         c->system.net_delay_ms = 1;
         c->system.msg_cost_instr = 100;
         c->system.num_data_disks = 3;
         c->system.num_log_disks = 2;
         c->system.client_cache_pages = 50;
         c->system.server_buffer_pages = 200;
         c->system.mpl = 10;
         c->control.max_measure_seconds = 60;
         c->fault.rpc_timeout_ms = 50;
         c->fault.lease_ms = 500;
         c->fault.xact_idle_timeout_ms = 1000;
       }},
      // ccsim_run leaves spikes and storage faults to --recovery ...
      {"sim_spike_and_storage_alone", Tool::kSimRun,
       {"--spike=0.1:5", "--torn-write=0.2", "--bit-flip=0.1"},
       [](ExperimentConfig* c) {
         c->fault.delay_spike_probability = 0.1;
         c->fault.delay_spike_ms = 5;
         c->fault.torn_write_probability = 0.2;
         c->fault.bit_flip_probability = 0.1;
       }},
      // ... while on the wire every fault flag turns it on.
      {"serve_every_fault_implies_recovery", Tool::kServe,
       {"--torn-write=0.2", "--bit-flip=0.1", "--buffer-pages=100",
        "--mpl=5", "--seed=3"},
       [](ExperimentConfig* c) {
         c->fault.torn_write_probability = 0.2;
         c->fault.bit_flip_probability = 0.1;
         c->fault.recovery_enabled = true;
         c->system.server_buffer_pages = 100;
         c->system.mpl = 5;
         c->control.seed = 3;
       }},
      {"load_spike_implies_recovery", Tool::kLoad,
       {"--spike=0.1:5", "--locality=0.4", "--prob-write=0.3",
        "--partition=2:1:0.5:out:hard", "--threads=1"},
       [](ExperimentConfig* c) {
         c->fault.delay_spike_probability = 0.1;
         c->fault.delay_spike_ms = 5;
         c->fault.partitions = {Partition(2, 1, 0.5, 2, true)};
         c->fault.recovery_enabled = true;
         c->transaction.inter_xact_loc = 0.4;
         c->transaction.prob_write = 0.3;
       }},
      {"serve_drop_dup_partition", Tool::kServe,
       {"--drop=0.02", "--dup=0.01", "--spike=0.05:5",
        "--partition=0:1.5:0.5:both", "--crash=2.5:0.3", "--crash=4:1"},
       [](ExperimentConfig* c) {
         FaultParams& f = c->fault;
         f.drop_probability = 0.02;
         f.duplicate_probability = 0.01;
         f.delay_spike_probability = 0.05;
         f.delay_spike_ms = 5;
         f.partitions = {Partition(0, 1.5, 0.5, 0, false)};
         f.crashes = {Crash(-1, 2.5, 0.3), Crash(-1, 4, 1)};
         f.recovery_enabled = true;
       }},
  };
}

TEST(FlagParserTest, DocumentedCommandLinesYieldTheSameConfig) {
  for (const FlagCase& test : DocumentedCommandLines()) {
    SCOPED_TRACE(test.name);
    CommandLine cl;
    const Status status = Parse(test.tool, test.args, &cl);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_FALSE(cl.help);
    ExperimentConfig expected = ToolConfig();
    test.expect(&expected);
    EXPECT_TRUE(cl.config == expected);
    EXPECT_TRUE(cl.config.fault == expected.fault);
    EXPECT_TRUE(cl.config.system == expected.system);
    EXPECT_TRUE(cl.config.transaction == expected.transaction);
  }
}

TEST(FlagParserTest, ToolDefaultsAreTable5WithTenClients) {
  ExperimentConfig expected = BaseConfig();
  expected.system.num_clients = 10;
  EXPECT_TRUE(ToolConfig() == expected);
  for (Tool tool : {Tool::kSimRun, Tool::kServe, Tool::kLoad}) {
    CommandLine cl;
    ASSERT_TRUE(Parse(tool, {}, &cl).ok());
    EXPECT_TRUE(cl.config == expected);
    EXPECT_EQ(cl.algorithm, "2pl");
  }
}

TEST(FlagParserTest, EveryAlgorithmNameParses) {
  ASSERT_EQ(Algorithms().size(), 7u);
  for (const AlgorithmChoice& choice : Algorithms()) {
    CommandLine cl;
    const std::string flag = std::string("--algorithm=") + choice.name;
    ASSERT_TRUE(Parse(Tool::kLoad, {flag.c_str()}, &cl).ok()) << flag;
    EXPECT_EQ(cl.config.algorithm.algorithm, choice.algorithm) << flag;
    EXPECT_EQ(cl.config.algorithm.caching, choice.caching) << flag;
  }
}

struct ErrorCase {
  Tool tool;
  std::vector<const char*> args;
  const char* message;
};

TEST(FlagParserTest, MalformedAndForeignFlagsAreRejected) {
  const ErrorCase cases[] = {
      {Tool::kSimRun, {"--spike=0.1"}, "--spike wants P:MS"},
      {Tool::kServe, {"--spike=0.1"}, "--spike wants P:MS"},
      {Tool::kLoad, {"--spike=0.1"}, "--spike wants P:MS"},
      {Tool::kSimRun, {"--crash=1:2"}, "--crash wants NODE:AT:DOWN"},
      {Tool::kServe, {"--crash=1"}, "--crash wants AT:DOWN"},
      {Tool::kSimRun, {"--partition=1:2"},
       "--partition wants NODE:AT:DUR[:DIR][:hard]"},
      {Tool::kLoad, {"--partition=1"},
       "--partition wants NODE:AT:DUR[:DIR][:hard]"},
      {Tool::kServe, {"--partition=1:2:3:up"},
       "--partition DIR wants both|in|out (optionally followed by :hard)"},
      {Tool::kSimRun, {"--partition=1:2:3:in:soft"},
       "--partition DIR wants both|in|out (optionally followed by :hard)"},
      {Tool::kLoad, {"--partition=1:2:3:"},
       "--partition DIR wants both|in|out (optionally followed by :hard)"},
      {Tool::kSimRun, {"--xact-size=4"}, "--xact-size wants MIN:MAX"},
      {Tool::kSimRun, {"--algorithm=3pl"},
       "unknown algorithm '3pl' (see --list)"},
      {Tool::kServe, {"--algorithm=3pl"}, "unknown algorithm '3pl'"},
      {Tool::kLoad, {"--algorithm=callback-intra"},
       "unknown algorithm 'callback-intra'"},
      // Flags a binary does not take.
      {Tool::kLoad, {"--torn-write=0.1"},
       "unknown flag: --torn-write=0.1 (try --help)"},
      {Tool::kLoad, {"--check"}, "unknown flag: --check (try --help)"},
      {Tool::kLoad, {"--crash=1:2"}, "unknown flag: --crash=1:2 (try --help)"},
      {Tool::kLoad, {"--buffer-pages=5"},
       "unknown flag: --buffer-pages=5 (try --help)"},
      {Tool::kServe, {"--locality=0.5"},
       "unknown flag: --locality=0.5 (try --help)"},
      {Tool::kServe, {"--commits=5"}, "unknown flag: --commits=5 (try --help)"},
      {Tool::kServe, {"--threads=2"}, "unknown flag: --threads=2 (try --help)"},
      {Tool::kSimRun, {"--port=1"}, "unknown flag: --port=1 (try --help)"},
      {Tool::kSimRun, {"--record-history"},
       "unknown flag: --record-history (try --help)"},
      {Tool::kSimRun, {"--check=1"}, "unknown flag: --check=1 (try --help)"},
      {Tool::kSimRun, {"--seed"}, "unknown flag: --seed (try --help)"},
      // The first bad argument wins.
      {Tool::kServe, {"--bogus", "--spike=1"},
       "unknown flag: --bogus (try --help)"},
  };
  for (const ErrorCase& test : cases) {
    SCOPED_TRACE(test.args.front());
    CommandLine cl;
    const Status status = Parse(test.tool, test.args, &cl);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), test.message);
  }
}

TEST(FlagParserTest, HelpAndListStopParsing) {
  CommandLine help;
  ASSERT_TRUE(Parse(Tool::kServe, {"--help", "--bogus"}, &help).ok());
  EXPECT_TRUE(help.help);
  CommandLine late;
  EXPECT_FALSE(Parse(Tool::kServe, {"--bogus", "--help"}, &late).ok());
  // --list ends parsing before the algorithm is resolved.
  CommandLine list;
  ASSERT_TRUE(
      Parse(Tool::kSimRun, {"--algorithm=3pl", "--list", "--bogus"}, &list)
          .ok());
  EXPECT_FALSE(list.help);
}

}  // namespace
}  // namespace ccsim::config
