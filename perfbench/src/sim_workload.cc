// The DES workloads. One round runs the five paper protocols (all with
// inter-transaction caching) through runner::RunExperiment, each to a
// fixed commit target under the Table 5 base configuration with 20
// clients and ProbWrite 0.2:
//   sim-contended       InterXactLoc 0.25 (Fig. 12(a)), checker off;
//   sim-cached-checked  InterXactLoc 0.75 (Fig. 12(b)), pipelined oracle on.
// Rounds repeat until the wall budget is spent. Every round uses the same
// seed, so every round must reproduce the first one's model outputs
// exactly; that, liveness and attempt conservation are the gate.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "config/params.h"
#include "runner/experiment.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccsim::config::Algorithm;
using ccsim::config::CachingMode;
using ccsim::config::ExperimentConfig;
using ccsim::runner::RunResult;

struct Protocol {
  Algorithm algorithm;
  const char* label;
};

constexpr Protocol kProtocols[] = {
    {Algorithm::kTwoPhaseLocking, "2pl"},
    {Algorithm::kCertification, "cert"},
    {Algorithm::kCallbackLocking, "callback"},
    {Algorithm::kNoWaitLocking, "no-wait"},
    {Algorithm::kNoWaitNotify, "no-wait-notify"},
};
constexpr int kNumProtocols = sizeof(kProtocols) / sizeof(kProtocols[0]);

constexpr int kClients = 20;
/// Measured-window commits per protocol run (the warmup is BaseConfig's
/// 30 simulated seconds).
constexpr std::uint64_t kCommitsPerRun = 2000;
/// Warmup-only repetitions behind setup_s (median reported).
constexpr int kSetupTrials = 5;

struct SimSpec {
  double locality = 0.25;
  bool checker = false;
};

ExperimentConfig MakeConfig(const SimSpec& spec, const Protocol& protocol,
                            const Options& options, bool checker) {
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = kClients;
  cfg.transaction.prob_write = 0.2;
  cfg.transaction.inter_xact_loc = spec.locality;
  cfg.algorithm.algorithm = protocol.algorithm;
  cfg.algorithm.caching = CachingMode::kInterTransaction;
  cfg.algorithm.test_skip_validation =
      options.breakage == Breakage::kSkipValidation;
  cfg.control.seed = options.seed;
  cfg.control.target_commits = kCommitsPerRun;
  cfg.checker.enabled = checker;
  cfg.checker.pipelined = true;
  return cfg;
}

/// The model outputs every repetition of a (config, seed) must reproduce.
/// Event counts are left out on purpose: work that removes events keeps
/// the model identical.
std::string ModelDigest(const RunResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "c=%" PRIu64 " a=%" PRIu64 " dl=%" PRIu64 " st=%" PRIu64
                " ce=%" PRIu64 " att=%" PRIu64 " tps=%.17g resp=%.17g"
                " p50=%.17g p99=%.17g msg=%" PRIu64 " pkt=%" PRIu64,
                r.commits, r.aborts, r.deadlock_aborts, r.stale_aborts,
                r.cert_aborts, r.attempts_started, r.throughput_tps,
                r.mean_response_s, r.response_p50_s, r.response_p99_s,
                r.messages, r.packets);
  return buf;
}

/// Liveness, loss and conservation checks on one measured run. Returns
/// false (after recording why) when the run is not correct.
bool GateRun(const RunResult& r, const ExperimentConfig& cfg,
             const std::string& label, Report* report) {
  bool ok = true;
  auto fail = [&](const std::string& why) {
    report->Fail(label + ": " + why);
    ok = false;
  };
  if (r.stalled) {
    fail("event calendar stalled");
  }
  if (r.stuck_clients != 0) {
    fail("stuck clients");
  }
  if (r.transactions_lost != 0 || r.unknown_outcomes != 0) {
    fail("lost " + std::to_string(r.transactions_lost) + ", unknown " +
         std::to_string(r.unknown_outcomes));
  }
  if (r.commits != cfg.control.target_commits) {
    fail("commit target not reached (" + std::to_string(r.commits) + ")");
  }
  const std::uint64_t finished = r.commits + r.aborts;
  const std::uint64_t slack = static_cast<std::uint64_t>(kClients);
  if (r.attempts_started > finished + slack ||
      finished > r.attempts_started + slack) {
    fail("attempt conservation: started " +
         std::to_string(r.attempts_started) + ", finished " +
         std::to_string(finished));
  }
  if (r.oracle_enabled != cfg.checker.enabled) {
    fail("oracle attachment does not match the config");
  }
  if (cfg.checker.enabled &&
      (r.oracle_commits < r.commits || r.oracle_stale_commit_reads != 0 ||
       r.oracle_unknown_committed + r.oracle_unknown_aborted !=
           r.unknown_outcomes)) {
    fail("oracle not clean: " + std::to_string(r.oracle_commits) +
         " commits observed, " + std::to_string(r.oracle_stale_commit_reads) +
         " stale commit reads");
  }
  return ok;
}

/// Sums over the measured runs, for the per-layer ratios.
struct Totals {
  double wall_s = 0;
  double thread_cpu_s = 0;
  double process_cpu_s = 0;
  AllocSnapshot alloc;
  std::uint64_t commits = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t packets = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t attempts = 0;
  std::uint64_t deadlock_aborts = 0;
  std::uint64_t stale_aborts = 0;
  std::uint64_t cert_aborts = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t log_forces = 0;
  /// Hit ratios of round 0's runs only: every round repeats them, and a
  /// floating-point sum over a varying number of rounds would not.
  double buffer_hit_sum = 0;
  double cache_hit_sum = 0;
  int hit_runs = 0;
  std::uint64_t ready_queue_hwm = 0;
  std::uint64_t oracle_commits = 0;
  std::uint64_t oracle_edges = 0;
  std::uint64_t oracle_scc_checks = 0;
  std::uint64_t oracle_trusted_reads = 0;
  std::uint64_t oracle_audits = 0;

  void Add(const RunResult& r) {
    commits += r.commits;
    events += r.events_processed;
    messages += r.messages;
    packets += r.packets;
    deadlocks += r.deadlocks_detected;
    attempts += r.attempts_started;
    deadlock_aborts += r.deadlock_aborts;
    stale_aborts += r.stale_aborts;
    cert_aborts += r.cert_aborts;
    writebacks += r.buffer_writebacks;
    log_forces += r.log_forced_commits;
    if (hit_runs < kNumProtocols) {
      buffer_hit_sum += r.server_buffer_hit_ratio;
      cache_hit_sum += r.client_hit_ratio;
      ++hit_runs;
    }
    ready_queue_hwm = std::max(ready_queue_hwm, r.ready_queue_high_water);
    oracle_commits += r.oracle_commits;
    oracle_edges += r.oracle_edges;
    oracle_scc_checks += r.oracle_scc_checks;
    oracle_trusted_reads += r.oracle_trusted_reads;
    oracle_audits += r.oracle_audits + r.oracle_client_audits;
  }
};

double PerUnit(double numerator, std::uint64_t denominator) {
  return denominator == 0 ? 0.0
                          : numerator / static_cast<double>(denominator);
}

void AddLayerMetrics(const Totals& t, Report* report) {
  const double c = static_cast<double>(t.commits);
  report->Add("sim.events_per_commit", PerUnit(t.events, t.commits), "count");
  report->Add("sim.events_per_s", t.events / t.wall_s, "1/s");
  report->Add("sim.main_cpu_us_per_commit", t.thread_cpu_s * 1e6 / c, "us");
  report->Add("net.messages_per_commit", PerUnit(t.messages, t.commits),
              "count");
  report->Add("net.packets_per_commit", PerUnit(t.packets, t.commits),
              "count");
  report->Add("lock.deadlocks_per_commit", PerUnit(t.deadlocks, t.commits),
              "count");
  report->Add("proto.attempts_per_commit", PerUnit(t.attempts, t.commits),
              "count");
  report->Add("proto.aborts_per_commit.deadlock",
              PerUnit(t.deadlock_aborts, t.commits), "count");
  report->Add("proto.aborts_per_commit.stale",
              PerUnit(t.stale_aborts, t.commits), "count");
  report->Add("proto.aborts_per_commit.cert",
              PerUnit(t.cert_aborts, t.commits), "count");
  report->Add("storage.buffer_hit_ratio", t.buffer_hit_sum / t.hit_runs,
              "ratio");
  report->Add("storage.writebacks_per_commit",
              PerUnit(t.writebacks, t.commits), "count");
  report->Add("storage.log_forces_per_commit",
              PerUnit(t.log_forces, t.commits), "count");
  report->Add("client.cache_hit_ratio", t.cache_hit_sum / t.hit_runs, "ratio");
  report->Add("server.ready_queue_hwm", static_cast<double>(t.ready_queue_hwm),
              "count");
  // Process CPU beyond the simulating thread: the pipelined verifier.
  report->Add("check.verifier_cpu_us_per_commit",
              std::max(0.0, t.process_cpu_s - t.thread_cpu_s) * 1e6 / c, "us");
  report->Add("check.edges_per_commit",
              PerUnit(t.oracle_edges, t.oracle_commits), "count");
  report->Add("check.scc_checks_per_commit",
              PerUnit(t.oracle_scc_checks, t.oracle_commits), "count");
  report->Add("check.trusted_reads_per_commit",
              PerUnit(t.oracle_trusted_reads, t.oracle_commits), "count");
  report->Add("check.audits_per_commit",
              PerUnit(t.oracle_audits, t.oracle_commits), "count");
  report->Add("alloc.news_per_commit", PerUnit(t.alloc.news, t.commits),
              "count");
  report->Add("alloc.bytes_per_commit", PerUnit(t.alloc.bytes, t.commits),
              "B");
}

}  // namespace

void RunSimWorkload(const Options& options, Report* report) {
  SimSpec spec;
  if (options.workload == "sim-contended") {
    spec = {0.25, false};
  } else {
    spec = {0.75, true};
  }

  // --- set-up: warmup-only calls of the same configs (construction plus
  // BaseConfig's 30 simulated seconds, no measurement window) ---
  std::vector<double> setup_trials;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    const auto start = Clock::now();
    for (const Protocol& protocol : kProtocols) {
      ExperimentConfig cfg = MakeConfig(spec, protocol, options, spec.checker);
      cfg.control.max_measure_seconds = 1e-3;
      const auto result = ccsim::runner::RunExperiment(cfg);
      if (!result.ok() || result.ValueOrDie().stalled) {
        report->Fail(std::string(protocol.label) + ": warmup-only run failed");
      }
    }
    setup_trials.push_back(SecondsSince(start));
  }

  // --- measured window ---
  // The companion mode alternates the workload's checker setting with the
  // opposite one, pairing rounds for check.overhead_pct; the oracle is an
  // observer, so both kinds of round must give the same model outputs.
  const bool companion = options.mode == Mode::kCompanion;
  const bool traced = options.mode == Mode::kTraced;
  std::vector<std::string> digests(kNumProtocols);
  std::vector<double> rates;  // rounds with the workload's checker setting
  std::vector<double> walls_on;
  std::vector<double> walls_off;
  std::vector<std::vector<double>> ms_per_commit(kNumProtocols);
  Totals totals;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool ok = report->correct();
  const auto window_start = Clock::now();
  for (int round = 0;
       ok && (round < (companion ? 2 : 1) ||
              SecondsSince(window_start) < options.seconds);
       ++round) {
    const bool flipped = companion && round % 2 == 1;
    const bool checker = flipped ? !spec.checker : spec.checker;
    double round_wall = 0;
    std::uint64_t round_commits = 0;
    for (int p = 0; p < kNumProtocols && ok; ++p) {
      const Protocol& protocol = kProtocols[p];
      const ExperimentConfig cfg =
          MakeConfig(spec, protocol, options, checker);
      const AllocSnapshot alloc0 = AllocNow();
      const double thread0 = traced ? ThreadCpuSeconds() : 0;
      const double process0 = traced ? ProcessCpuSeconds() : 0;
      const auto start = Clock::now();
      const auto result = ccsim::runner::RunExperiment(cfg);
      const double wall = SecondsSince(start);
      if (!result.ok()) {
        report->Fail(std::string(protocol.label) + ": " +
                     result.status().ToString());
        ok = false;
        break;
      }
      const RunResult& r = result.ValueOrDie();
      if (traced) {
        totals.thread_cpu_s += ThreadCpuSeconds() - thread0;
        totals.process_cpu_s += ProcessCpuSeconds() - process0;
        const AllocSnapshot alloc1 = AllocNow();
        totals.alloc.news += alloc1.news - alloc0.news;
        totals.alloc.bytes += alloc1.bytes - alloc0.bytes;
        totals.wall_s += wall;
        totals.Add(r);
      }
      const std::string label = std::string(protocol.label) + " round " +
                                std::to_string(round);
      ok = GateRun(r, cfg, label, report) && ok;
      const std::string digest = ModelDigest(r);
      if (digests[p].empty()) {
        digests[p] = digest;
      } else if (digest != digests[p]) {
        report->Fail(label + ": model outputs differ from round 0 (" +
                     digest + " vs " + digests[p] + ")");
        ok = false;
      }
      attempted += r.attempts_started;
      failed += r.transactions_lost + r.unknown_outcomes;
      round_wall += wall;
      round_commits += r.commits;
      if (!flipped) {
        ms_per_commit[p].push_back(wall * 1e3 /
                                   static_cast<double>(r.commits));
      }
    }
    (checker ? walls_on : walls_off).push_back(round_wall);
    if (!flipped) {
      rates.push_back(static_cast<double>(round_commits) / round_wall);
    }
  }
  report->set_attempts(attempted, failed);
  std::uint64_t digest = Fnv1a(options.workload);
  for (const std::string& d : digests) {
    digest = Fnv1a(d, digest);
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  report->set_digest(hex);
  if (!ok || rates.empty()) {
    return;
  }

  // Per-protocol wall cost of a commit: median over rounds, then the
  // median protocol (p50) and the costliest protocol (p99).
  std::vector<double> per_protocol;
  for (const std::vector<double>& samples : ms_per_commit) {
    per_protocol.push_back(Median(samples));
  }
  report->Note("rounds " + std::to_string(rates.size()) + " of " +
               std::to_string(kNumProtocols) + " protocol runs x " +
               std::to_string(kCommitsPerRun) +
               " commits; round rates min " +
               std::to_string(Quantile(rates, 0)) + " max " +
               std::to_string(Quantile(rates, 1)) + " commits/s");
  report->Add("commits_per_s", Median(rates), "1/s");
  if (options.mode == Mode::kTimed) {
    report->Add("commit_p50_ms", Median(per_protocol), "ms");
    report->Add("commit_p99_ms", Quantile(per_protocol, 1.0), "ms");
    report->Add("setup_s", Median(setup_trials), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
  } else if (companion) {
    report->Add("check.overhead_pct",
                (Median(walls_on) / Median(walls_off) - 1.0) * 100.0, "%");
  } else {
    AddLayerMetrics(totals, report);
  }
}

}  // namespace perfbench
