// ccsim_run — command-line driver for one-off simulation experiments.
//
//   $ ccsim_run --algorithm=callback --clients=30 --locality=0.6
//               --prob-write=0.1 --server-mips=2 --seed=3
//   $ ccsim_run --algorithm=2pl-intra --net-delay-ms=0 --csv
//   $ ccsim_run --list
//
// Every knob of the paper's Tables 1–3 is exposed; unset flags keep the
// Table 5 base values. `--csv` prints one machine-readable line (with a
// header) for scripting sweeps.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "config/flags.h"
#include "config/params.h"
#include "runner/deployment.h"
#include "runner/experiment.h"
#include "runner/report.h"
#include "runner/sweep.h"
#include "sim/random.h"

namespace {

using ccsim::config::ExperimentConfig;
using ccsim::config::FlagResult;
using ccsim::config::ParseValue;
using ccsim::runner::RunResult;

void PrintUsage() {
  std::printf(
      "ccsim_run — run one client/server cache-consistency simulation\n\n"
      "  --algorithm=NAME        2pl | 2pl-intra | cert | cert-intra |\n"
      "                          callback | no-wait | no-wait-notify\n"
      "  --clients=N             number of client workstations\n"
      "  --locality=P            InterXactLoc in [0,1]\n"
      "  --prob-write=P          ProbWrite in [0,1]\n"
      "  --xact-size=MIN:MAX     ReadObject operations per transaction\n"
      "  --object-size=N         atoms per object\n"
      "  --cluster-factor=P      sequential-placement probability\n"
      "  --update-delay=S --internal-delay=S --external-delay=S\n"
      "  --server-mips=M --client-mips=M\n"
      "  --net-delay-ms=D --msg-cost=INSTR\n"
      "  --data-disks=N --log-disks=N\n"
      "  --cache-pages=N --buffer-pages=N --mpl=N\n"
      "  --seed=N --warmup=S --commits=N --max-seconds=S\n"
      "  --drop=P                message drop probability (enables recovery)\n"
      "  --dup=P                 message duplication probability\n"
      "  --spike=P:MS            delay-spike probability and size\n"
      "  --crash=NODE:AT:DOWN    crash NODE (-1 = server) at AT s for DOWN s\n"
      "                          (repeatable)\n"
      "  --partition=NODE:AT:DUR[:DIR][:hard]\n"
      "                          cut client NODE's link at AT s for DUR s;\n"
      "                          DIR = both | in | out (default both;\n"
      "                          in = client->server only). 'hard' also\n"
      "                          kills the TCP connection at window start\n"
      "                          (real substrate; no-op on sim).\n"
      "                          Repeatable; enables recovery\n"
      "  --torn-write=P          per-log-force torn-write probability\n"
      "  --bit-flip=P            per-log-force bit-flip probability\n"
      "  --queue-limit=N         bound the server ready queue (shed beyond)\n"
      "  --retry-budget=N        per-attempt retransmission budget\n"
      "  --retry-jitter=P        randomize RPC timeouts by +/- P/2\n"
      "  --chaos-soak=N          run N seeded compound-fault cocktails\n"
      "                          (seeds --seed .. --seed+N-1) across all\n"
      "                          five protocols with the oracle on; exits\n"
      "                          non-zero and prints the failing seed's\n"
      "                          plan on any violation. With\n"
      "                          --substrate=real the cocktails run on the\n"
      "                          wire (sequentially; use a smaller N)\n"
      "  --recovery              enable the recovery layer without faults\n"
      "  --check                 enable the consistency oracle (serializa-\n"
      "                          bility + coherence audits; aborts with a\n"
      "                          cycle dump on a violation)\n"
      "  --rpc-timeout-ms=D --lease-ms=D --idle-timeout-ms=D\n"
      "  --substrate=NAME        sim (default: deterministic discrete-event\n"
      "                          simulation) | real (threads + TCP loopback,\n"
      "                          wall-clock paced; fault plans run on the\n"
      "                          wire — only client crashes, which are\n"
      "                          sim-only, are rejected)\n"
      "  --duration=S            real-substrate measurement window in wall\n"
      "                          seconds (default 5)\n"
      "  --shards=N              real-substrate load-generator threads\n"
      "                          (default: 1 per 8 clients, at least 2)\n"
      "  --sweep-clients=LIST    run once per client count (e.g. 2,10,30,50)\n"
      "                          and print one CSV row per run\n"
      "  --jobs=N                worker threads for --sweep-clients\n"
      "                          (default: CCSIM_JOBS, else all cores)\n"
      "  --csv                   one-line machine-readable output\n"
      "  --list                  list algorithm names and exit\n"
      "  --help                  this text\n");
}

void PrintCsvHeader() {
  std::printf(
      "algorithm,clients,locality,prob_write,resp_s,resp_ci_s,tput,"
      "commits,aborts,deadlocks,stale,cert,srv_cpu,net,disk,client_cpu,"
      "cache_hit,buffer_hit,messages,packets,stalled,"
      "dropped,duplicated,spikes,down_drops,retries,timeouts,"
      "timeout_aborts,crash_aborts,lease_exp,dup_suppressed,gc_xacts,"
      "client_crashes,server_crashes,recovery_s,lost,unknown,"
      "partition_drops,shed,budget_exhausted,queue_hwm,"
      "torn_writes,bit_flips,log_rewrites,log_truncated,stuck\n");
}

void PrintCsvRow(const std::string& algorithm_name,
                 const ExperimentConfig& cfg, const RunResult& r) {
  std::printf(
      "%s,%d,%.3f,%.3f,%.6f,%.6f,%.4f,%llu,%llu,%llu,%llu,%llu,%.4f,"
      "%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%llu,%d,"
      "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
      "%.4f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%d\n",
      algorithm_name.c_str(), cfg.system.num_clients,
      cfg.transaction.inter_xact_loc, cfg.transaction.prob_write,
      r.mean_response_s, r.response_ci_s, r.throughput_tps,
      static_cast<unsigned long long>(r.commits),
      static_cast<unsigned long long>(r.aborts),
      static_cast<unsigned long long>(r.deadlock_aborts),
      static_cast<unsigned long long>(r.stale_aborts),
      static_cast<unsigned long long>(r.cert_aborts), r.server_cpu_util,
      r.network_util, r.data_disk_util, r.client_cpu_util,
      r.client_hit_ratio, r.server_buffer_hit_ratio,
      static_cast<unsigned long long>(r.messages),
      static_cast<unsigned long long>(r.packets),
      static_cast<int>(r.stalled),
      static_cast<unsigned long long>(r.messages_dropped),
      static_cast<unsigned long long>(r.messages_duplicated),
      static_cast<unsigned long long>(r.delay_spikes),
      static_cast<unsigned long long>(r.down_drops),
      static_cast<unsigned long long>(r.rpc_retries),
      static_cast<unsigned long long>(r.rpc_timeouts),
      static_cast<unsigned long long>(r.timeout_aborts),
      static_cast<unsigned long long>(r.crash_aborts),
      static_cast<unsigned long long>(r.lease_expirations),
      static_cast<unsigned long long>(r.duplicates_suppressed),
      static_cast<unsigned long long>(r.gc_xacts),
      static_cast<unsigned long long>(r.client_crashes),
      static_cast<unsigned long long>(r.server_crashes), r.recovery_seconds,
      static_cast<unsigned long long>(r.transactions_lost),
      static_cast<unsigned long long>(r.unknown_outcomes),
      static_cast<unsigned long long>(r.partition_drops),
      static_cast<unsigned long long>(r.shed_requests),
      static_cast<unsigned long long>(r.retry_budget_exhaustions),
      static_cast<unsigned long long>(r.ready_queue_high_water),
      static_cast<unsigned long long>(r.log_torn_writes),
      static_cast<unsigned long long>(r.log_bit_flips),
      static_cast<unsigned long long>(r.log_rewrites),
      static_cast<unsigned long long>(r.log_records_truncated),
      r.stuck_clients);
}

// --- chaos soak -----------------------------------------------------------

/// The five consistency protocols, inter-transaction caching variants.
const char* const kSoakAlgorithms[] = {"2pl", "cert", "callback", "no-wait",
                                       "no-wait-notify"};
constexpr int kSoakAlgorithmCount = 5;

/// Deterministically derives a compound-fault cocktail from `seed`: lossy
/// links, crash windows, a partition, storage faults, and overload knobs,
/// each present with some probability. The same seed always yields the
/// same plan, so a failure reproduces from the seed alone.
ExperimentConfig MakeChaosConfig(std::uint64_t seed, std::string* plan) {
  ccsim::sim::Pcg32 rng(seed, /*stream=*/0xC0C7);
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.control.seed = seed;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 150;
  cfg.control.max_measure_seconds = 120;
  cfg.fault.recovery_enabled = true;
  cfg.checker.enabled = true;
  ccsim::config::FaultParams& f = cfg.fault;
  f.drop_probability = rng.UniformReal(0.0, 0.08);
  f.duplicate_probability = rng.UniformReal(0.0, 0.04);
  f.delay_spike_probability = rng.UniformReal(0.0, 0.08);
  f.delay_spike_ms = rng.UniformReal(5.0, 40.0);
  char buf[512];
  std::snprintf(buf, sizeof(buf), "drop=%.3f dup=%.3f spike=%.3f:%.0fms",
                f.drop_probability, f.duplicate_probability,
                f.delay_spike_probability, f.delay_spike_ms);
  *plan = buf;
  if (rng.Bernoulli(0.5)) {
    ccsim::config::FaultParams::CrashEvent crash;
    crash.node = -1;  // the server
    crash.at_s = rng.UniformReal(10.0, 40.0);
    crash.downtime_s = rng.UniformReal(0.5, 3.0);
    f.crashes.push_back(crash);
    std::snprintf(buf, sizeof(buf), " crash=-1:%.1f:%.1f", crash.at_s,
                  crash.downtime_s);
    *plan += buf;
  }
  if (rng.Bernoulli(0.6)) {
    ccsim::config::FaultParams::CrashEvent crash;
    crash.node = static_cast<int>(
        rng.UniformInt(0, cfg.system.num_clients - 1));
    crash.at_s = rng.UniformReal(10.0, 40.0);
    crash.downtime_s = rng.UniformReal(0.5, 3.0);
    f.crashes.push_back(crash);
    std::snprintf(buf, sizeof(buf), " crash=%d:%.1f:%.1f", crash.node,
                  crash.at_s, crash.downtime_s);
    *plan += buf;
  }
  if (rng.Bernoulli(0.7)) {
    ccsim::config::FaultParams::PartitionEvent part;
    part.node = static_cast<int>(
        rng.UniformInt(0, cfg.system.num_clients - 1));
    part.at_s = rng.UniformReal(10.0, 40.0);
    part.duration_s = rng.UniformReal(1.0, 10.0);
    part.direction = static_cast<int>(rng.UniformInt(0, 2));
    f.partitions.push_back(part);
    static const char* const kDirNames[] = {"both", "in", "out"};
    std::snprintf(buf, sizeof(buf), " partition=%d:%.1f:%.1f:%s", part.node,
                  part.at_s, part.duration_s, kDirNames[part.direction]);
    *plan += buf;
  }
  if (rng.Bernoulli(0.5)) {
    f.torn_write_probability = rng.UniformReal(0.02, 0.3);
    std::snprintf(buf, sizeof(buf), " torn=%.3f", f.torn_write_probability);
    *plan += buf;
  }
  if (rng.Bernoulli(0.5)) {
    f.bit_flip_probability = rng.UniformReal(0.02, 0.2);
    std::snprintf(buf, sizeof(buf), " flip=%.3f", f.bit_flip_probability);
    *plan += buf;
  }
  if (rng.Bernoulli(0.5)) {
    f.server_queue_limit = static_cast<int>(rng.UniformInt(8, 32));
    std::snprintf(buf, sizeof(buf), " qlimit=%d", f.server_queue_limit);
    *plan += buf;
  }
  if (rng.Bernoulli(0.5)) {
    f.retry_budget = static_cast<int>(rng.UniformInt(8, 40));
    std::snprintf(buf, sizeof(buf), " budget=%d", f.retry_budget);
    *plan += buf;
  }
  if (rng.Bernoulli(0.5)) {
    f.retry_jitter = rng.UniformReal(0.1, 0.5);
    std::snprintf(buf, sizeof(buf), " jitter=%.2f", f.retry_jitter);
    *plan += buf;
  }
  return cfg;
}

/// Runs `n` seeded chaos cocktails (seeds base..base+n-1) across all five
/// protocols with the consistency oracle on. Plans are printed before the
/// runs start so a fatal oracle abort is attributable to its seed; any
/// surviving failure prints the seed and a one-flag reproduction command.
int RunChaosSoak(int n, std::uint64_t base_seed, int jobs) {
  std::vector<std::string> plans(static_cast<std::size_t>(n));
  std::vector<ExperimentConfig> configs;
  configs.reserve(static_cast<std::size_t>(n) * kSoakAlgorithmCount);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    ExperimentConfig cfg =
        MakeChaosConfig(seed, &plans[static_cast<std::size_t>(i)]);
    std::printf("chaos seed %llu: %s\n",
                static_cast<unsigned long long>(seed),
                plans[static_cast<std::size_t>(i)].c_str());
    for (const char* name : kSoakAlgorithms) {
      ccsim::config::SetAlgorithm(name, &cfg);
      configs.push_back(cfg);
    }
  }
  std::fflush(stdout);
  const auto results = ccsim::runner::RunExperiments(
      configs, jobs > 0 ? jobs : ccsim::runner::DefaultJobs());
  int failures = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    std::uint64_t commits = 0, lost = 0, unknown = 0, part_drops = 0;
    std::uint64_t shed = 0, truncated = 0;
    int stuck = 0;
    std::string verdict;
    for (int a = 0; a < kSoakAlgorithmCount; ++a) {
      const std::size_t idx =
          static_cast<std::size_t>(i) * kSoakAlgorithmCount +
          static_cast<std::size_t>(a);
      if (!results[idx].ok()) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": " +
                   results[idx].status().ToString();
        continue;
      }
      const RunResult& r = results[idx].ValueOrDie();
      commits += r.commits;
      lost += r.transactions_lost;
      unknown += r.unknown_outcomes;
      part_drops += r.partition_drops;
      shed += r.shed_requests;
      truncated += r.log_records_truncated;
      stuck += r.stuck_clients;
      if (r.stalled) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": STALLED";
      }
      if (r.transactions_lost > 0) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": LOST";
      }
      if (r.stuck_clients > 0) {
        verdict += std::string(" ") + kSoakAlgorithms[a] + ": STUCK";
      }
    }
    if (verdict.empty()) {
      std::printf("chaos seed %llu: ok (commits %llu, unknown %llu, "
                  "part-drops %llu, shed %llu, log-truncated %llu)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(commits),
                  static_cast<unsigned long long>(unknown),
                  static_cast<unsigned long long>(part_drops),
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(truncated));
    } else {
      ++failures;
      std::printf("chaos seed %llu: FAILED —%s\n",
                  static_cast<unsigned long long>(seed), verdict.c_str());
      std::printf("  plan : %s\n", plans[static_cast<std::size_t>(i)].c_str());
      std::printf("  repro: ccsim_run --chaos-soak=1 --seed=%llu\n",
                  static_cast<unsigned long long>(seed));
      (void)stuck;
    }
  }
  if (failures == 0) {
    std::printf("chaos soak: %d seeds x %d protocols, all clean\n", n,
                kSoakAlgorithmCount);
  } else {
    std::printf("chaos soak: %d of %d seeds FAILED\n", failures, n);
  }
  return failures == 0 ? 0 : 1;
}

/// Derives a wire-level fault cocktail that fits a short wall-clock run:
/// lossy links, usually one server crash+restart, usually one partition
/// window (sometimes hard). Windows land inside warmup(1s)+duration(3s).
ExperimentConfig MakeRealChaosConfig(std::uint64_t seed, std::string* plan) {
  ccsim::sim::Pcg32 rng(seed, /*stream=*/0xC0C8);
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.control.seed = seed;
  cfg.control.warmup_seconds = 1;
  cfg.control.max_measure_seconds = 30;
  cfg.fault.recovery_enabled = true;
  cfg.checker.enabled = true;
  ccsim::config::FaultParams& f = cfg.fault;
  f.drop_probability = rng.UniformReal(0.01, 0.04);
  f.duplicate_probability = rng.UniformReal(0.0, 0.02);
  f.delay_spike_probability = rng.UniformReal(0.0, 0.05);
  f.delay_spike_ms = rng.UniformReal(2.0, 10.0);
  char buf[512];
  std::snprintf(buf, sizeof(buf), "drop=%.3f dup=%.3f spike=%.3f:%.0fms",
                f.drop_probability, f.duplicate_probability,
                f.delay_spike_probability, f.delay_spike_ms);
  *plan = buf;
  if (rng.Bernoulli(0.7)) {
    ccsim::config::FaultParams::CrashEvent crash;
    crash.node = -1;  // the server
    crash.at_s = rng.UniformReal(1.5, 2.2);
    crash.downtime_s = rng.UniformReal(0.2, 0.4);
    f.crashes.push_back(crash);
    std::snprintf(buf, sizeof(buf), " crash=-1:%.1f:%.1f", crash.at_s,
                  crash.downtime_s);
    *plan += buf;
  }
  if (rng.Bernoulli(0.7)) {
    ccsim::config::FaultParams::PartitionEvent part;
    part.node = static_cast<int>(
        rng.UniformInt(0, cfg.system.num_clients - 1));
    part.at_s = rng.UniformReal(1.0, 2.0);
    part.duration_s = rng.UniformReal(0.3, 0.8);
    part.direction = static_cast<int>(rng.UniformInt(0, 2));
    part.hard = rng.Bernoulli(0.5);
    f.partitions.push_back(part);
    static const char* const kDirNames[] = {"both", "in", "out"};
    std::snprintf(buf, sizeof(buf), " partition=%d:%.1f:%.1f:%s%s",
                  part.node, part.at_s, part.duration_s,
                  kDirNames[part.direction], part.hard ? ":hard" : "");
    *plan += buf;
  }
  if (rng.Bernoulli(0.4)) {
    f.torn_write_probability = rng.UniformReal(0.02, 0.2);
    std::snprintf(buf, sizeof(buf), " torn=%.3f", f.torn_write_probability);
    *plan += buf;
  }
  return cfg;
}

/// Real-substrate chaos soak: `n` seeded wire cocktails across all five
/// protocols, each on the threads+TCP substrate with the oracle on. Runs
/// are sequential — one real run already spreads across every core via
/// its shard threads — so wall clock is ~(4s + teardown) x 5 x n; use a
/// smaller seed count than the DES soak.
int RunRealChaosSoak(int n, std::uint64_t base_seed) {
  int failures = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    std::string plan;
    ExperimentConfig cfg = MakeRealChaosConfig(seed, &plan);
    std::printf("real chaos seed %llu: %s\n",
                static_cast<unsigned long long>(seed), plan.c_str());
    std::fflush(stdout);
    for (const char* name : kSoakAlgorithms) {
      ccsim::config::SetAlgorithm(name, &cfg);
      ccsim::runner::RealRunOptions opts;
      opts.warmup_seconds = 1.0;
      opts.duration_seconds = 3.0;
      const ccsim::Result<RunResult> result =
          ccsim::runner::RunRealExperiment(cfg, opts);
      std::string verdict;
      if (!result.ok()) {
        verdict = result.status().ToString();
      } else {
        const RunResult& r = result.ValueOrDie();
        if (r.commits == 0) {
          verdict = "ZERO COMMITS";
        } else if (r.transactions_lost > 0) {
          verdict = "LOST TRANSACTIONS";
        } else {
          std::printf(
              "  %s: ok (commits %llu, dropped %llu, part-drops %llu, "
              "crashes %llu, retries %llu)\n",
              name, static_cast<unsigned long long>(r.commits),
              static_cast<unsigned long long>(r.messages_dropped),
              static_cast<unsigned long long>(r.partition_drops),
              static_cast<unsigned long long>(r.server_crashes),
              static_cast<unsigned long long>(r.rpc_retries));
        }
      }
      if (!verdict.empty()) {
        ++failures;
        std::printf("  %s: FAILED — %s\n", name, verdict.c_str());
        std::printf("  repro: ccsim_run --substrate=real --chaos-soak=1 "
                    "--seed=%llu\n",
                    static_cast<unsigned long long>(seed));
      }
      std::fflush(stdout);
    }
  }
  if (failures == 0) {
    std::printf("real chaos soak: %d seeds x %d protocols, all clean\n", n,
                kSoakAlgorithmCount);
  } else {
    std::printf("real chaos soak: %d runs FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ccsim::config::CommandLine cl;
  ExperimentConfig& cfg = cl.config;
  cfg.control.warmup_seconds = 30;
  cfg.control.target_commits = 3000;
  cfg.control.max_measure_seconds = 600;
  bool csv = false;
  bool list = false;
  int jobs = 0;  // 0 = DefaultJobs()
  int chaos_soak = 0;
  std::vector<int> sweep_clients;
  std::string substrate_name = "sim";
  bool warmup_flag = false;
  ccsim::runner::RealRunOptions real_options;

  const ccsim::Status parsed = ccsim::config::ParseCommandLine(
      ccsim::config::Tool::kSimRun, argc, argv,
      [&](const char* arg, std::string* error) {
        std::string value;
        if (std::strcmp(arg, "--list") == 0) {
          list = true;
          return FlagResult::kStop;
        }
        if (std::strcmp(arg, "--csv") == 0) {
          csv = true;
        } else if (ParseValue(arg, "--warmup", &value)) {
          cfg.control.warmup_seconds = std::atof(value.c_str());
          warmup_flag = true;
        } else if (ParseValue(arg, "--substrate", &value)) {
          substrate_name = value;
          if (substrate_name != "sim" && substrate_name != "real") {
            *error = "--substrate wants sim or real";
            return FlagResult::kError;
          }
        } else if (ParseValue(arg, "--duration", &value)) {
          real_options.duration_seconds = std::atof(value.c_str());
        } else if (ParseValue(arg, "--shards", &value)) {
          real_options.shards = std::atoi(value.c_str());
        } else if (ParseValue(arg, "--chaos-soak", &value)) {
          chaos_soak = std::atoi(value.c_str());
          if (chaos_soak < 1) {
            *error = "--chaos-soak wants a positive seed count";
            return FlagResult::kError;
          }
        } else if (ParseValue(arg, "--jobs", &value)) {
          jobs = std::atoi(value.c_str());
          if (jobs < 1) {
            *error = "--jobs wants a positive integer";
            return FlagResult::kError;
          }
        } else if (ParseValue(arg, "--sweep-clients", &value)) {
          for (std::size_t pos = 0; pos < value.size();) {
            const std::size_t comma = value.find(',', pos);
            const std::string item = value.substr(
                pos, comma == std::string::npos ? std::string::npos
                                                : comma - pos);
            const int clients = std::atoi(item.c_str());
            if (clients < 1) {
              *error = "--sweep-clients wants e.g. 2,10,30,50";
              return FlagResult::kError;
            }
            sweep_clients.push_back(clients);
            pos = comma == std::string::npos ? value.size() : comma + 1;
          }
          if (sweep_clients.empty()) {
            *error = "--sweep-clients wants e.g. 2,10,30,50";
            return FlagResult::kError;
          }
        } else {
          return FlagResult::kNotMine;
        }
        return FlagResult::kTaken;
      },
      &cl);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  if (cl.help) {
    PrintUsage();
    return 0;
  }
  if (list) {
    for (const ccsim::config::AlgorithmChoice& choice :
         ccsim::config::Algorithms()) {
      std::printf("%s\n", choice.name);
    }
    return 0;
  }
  const std::string& algorithm_name = cl.algorithm;

  const bool real_substrate = substrate_name == "real";
  if (real_substrate) {
    if (!sweep_clients.empty()) {
      std::fprintf(stderr,
                   "--substrate=real runs one experiment at a time (no "
                   "--sweep-clients)\n");
      return 2;
    }
    // The sim default of 30 warmup seconds is simulated time; at wall-clock
    // pace it would just be a long wait. Default to 1 s unless asked.
    real_options.warmup_seconds = warmup_flag ? cfg.control.warmup_seconds
                                              : 1.0;
    if (chaos_soak > 0) {
      return RunRealChaosSoak(chaos_soak, cfg.control.seed);
    }
  }

  if (chaos_soak > 0) {
    return RunChaosSoak(chaos_soak, cfg.control.seed, jobs);
  }

  if (!sweep_clients.empty()) {
    // One run per client count, fanned across worker threads. Rows print
    // in sweep order (results are merged in submission order), so the
    // output is byte-identical regardless of --jobs.
    std::vector<ExperimentConfig> configs;
    configs.reserve(sweep_clients.size());
    for (int clients : sweep_clients) {
      cfg.system.num_clients = clients;
      configs.push_back(cfg);
    }
    const auto results = ccsim::runner::RunExperiments(
        configs, jobs > 0 ? jobs : ccsim::runner::DefaultJobs());
    PrintCsvHeader();
    bool any_stalled = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        std::fprintf(stderr, "invalid configuration (clients=%d): %s\n",
                     sweep_clients[i],
                     results[i].status().ToString().c_str());
        return 1;
      }
      const RunResult& r = results[i].ValueOrDie();
      PrintCsvRow(algorithm_name, configs[i], r);
      any_stalled = any_stalled || r.stalled;
    }
    return any_stalled ? 3 : 0;
  }

  const ccsim::Result<RunResult> result =
      real_substrate ? ccsim::runner::RunRealExperiment(cfg, real_options)
                     : ccsim::runner::RunExperiment(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const RunResult& r = result.ValueOrDie();
  // Exit contract: stalls are 3; a real-substrate run that lost a driven
  // transaction (conservation break) is 4 even when it otherwise finished.
  const int exit_code =
      r.stalled ? 3
                : (real_substrate && r.transactions_lost > 0 ? 4 : 0);

  if (csv) {
    PrintCsvHeader();
    PrintCsvRow(algorithm_name, cfg, r);
    return exit_code;
  }

  std::printf("algorithm          : %s\n", algorithm_name.c_str());
  std::printf("substrate          : %s\n",
              real_substrate ? "real (threads + TCP loopback)"
                             : "sim (discrete-event)");
  std::printf("clients            : %d\n", cfg.system.num_clients);
  std::printf("measured           : %.1f %s-seconds%s\n", r.measured_seconds,
              real_substrate ? "wall" : "sim",
              r.stalled ? "  [STALLED]" : "");
  std::printf("wall clock         : %.2f s (%llu events, %.2fM events/s)\n",
              r.wall_seconds,
              static_cast<unsigned long long>(r.events_processed),
              r.events_per_second / 1e6);
  if (r.commits > 0) {
    // The ratios perfbench reports as sim.events_per_commit and
    // net.messages_per_commit: kernel events of the whole run (warm-up
    // included) and messages of the measured window, per measured commit.
    const double commits = static_cast<double>(r.commits);
    std::printf("per commit         : %.2f events, %.2f messages\n",
                static_cast<double>(r.events_processed) / commits,
                static_cast<double>(r.messages) / commits);
  }
  std::printf("mean response      : %.3f s (+/- %.3f)\n", r.mean_response_s,
              r.response_ci_s);
  std::printf("percentiles        : p50 %.4f s, p90 %.4f s, p99 %.4f s\n",
              r.response_p50_s, r.response_p90_s, r.response_p99_s);
  std::printf("throughput         : %.2f commits/s\n", r.throughput_tps);
  std::printf("commits / aborts   : %llu / %llu (deadlock %llu, stale "
              "%llu, cert %llu)\n",
              static_cast<unsigned long long>(r.commits),
              static_cast<unsigned long long>(r.aborts),
              static_cast<unsigned long long>(r.deadlock_aborts),
              static_cast<unsigned long long>(r.stale_aborts),
              static_cast<unsigned long long>(r.cert_aborts));
  if (real_substrate) {
    const std::uint64_t finished = r.commits + r.aborts;
    std::printf("conservation       : %llu attempts started, %llu in flight "
                "at stop, %llu lost\n",
                static_cast<unsigned long long>(r.attempts_started),
                static_cast<unsigned long long>(
                    r.attempts_started > finished ? r.attempts_started -
                                                        finished
                                                  : 0),
                static_cast<unsigned long long>(r.transactions_lost));
  }
  if (real_substrate) {
    // The modeled resources cost nothing on real hardware; the loop
    // threads are what is busy.
    std::printf("loops              : server busy %.2f (%.2f wakeups/commit), "
                "clients busy %.2f (%.2f wakeups/commit)\n",
                r.server_loop_busy, r.server_wakeups_per_commit,
                r.client_loop_busy, r.client_wakeups_per_commit);
  } else {
    std::printf("utilization        : server %.2f, net %.2f, disks %.2f, "
                "clients %.2f\n",
                r.server_cpu_util, r.network_util, r.data_disk_util,
                r.client_cpu_util);
  }
  std::printf("hit ratios         : client cache %.2f, server buffer %.2f\n",
              r.client_hit_ratio, r.server_buffer_hit_ratio);
  std::printf("messages (packets) : %llu (%llu)\n",
              static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.packets));
  if (cfg.fault.recovery_enabled) {
    std::printf("faults             : dropped %llu, duplicated %llu, "
                "spikes %llu, down-drops %llu\n",
                static_cast<unsigned long long>(r.messages_dropped),
                static_cast<unsigned long long>(r.messages_duplicated),
                static_cast<unsigned long long>(r.delay_spikes),
                static_cast<unsigned long long>(r.down_drops));
    std::printf("recovery           : retries %llu, timeouts %llu "
                "(aborts %llu), crash aborts %llu, lease exp %llu\n",
                static_cast<unsigned long long>(r.rpc_retries),
                static_cast<unsigned long long>(r.rpc_timeouts),
                static_cast<unsigned long long>(r.timeout_aborts),
                static_cast<unsigned long long>(r.crash_aborts),
                static_cast<unsigned long long>(r.lease_expirations));
    std::printf("                   : dup-suppressed %llu, gc %llu, "
                "crashes %llu+%llu, recovery %.3f s, lost %llu, "
                "unknown %llu\n",
                static_cast<unsigned long long>(r.duplicates_suppressed),
                static_cast<unsigned long long>(r.gc_xacts),
                static_cast<unsigned long long>(r.client_crashes),
                static_cast<unsigned long long>(r.server_crashes),
                r.recovery_seconds,
                static_cast<unsigned long long>(r.transactions_lost),
                static_cast<unsigned long long>(r.unknown_outcomes));
    std::printf("degradation        : part-drops %llu, shed %llu, "
                "budget-exhausted %llu, queue-hwm %llu, stuck %d\n",
                static_cast<unsigned long long>(r.partition_drops),
                static_cast<unsigned long long>(r.shed_requests),
                static_cast<unsigned long long>(r.retry_budget_exhaustions),
                static_cast<unsigned long long>(r.ready_queue_high_water),
                r.stuck_clients);
  }
  if (cfg.fault.torn_write_probability > 0 ||
      cfg.fault.bit_flip_probability > 0 || r.log_records_truncated > 0) {
    std::printf("storage faults     : torn %llu, bit-flips %llu, rewrites "
                "%llu, truncated %llu\n",
                static_cast<unsigned long long>(r.log_torn_writes),
                static_cast<unsigned long long>(r.log_bit_flips),
                static_cast<unsigned long long>(r.log_rewrites),
                static_cast<unsigned long long>(r.log_records_truncated));
  }
  if (r.oracle_enabled) {
    std::printf("oracle             : %s\n",
                ccsim::runner::OracleSummary(r).c_str());
  }
  return exit_code;
}
