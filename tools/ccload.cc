// ccload — multi-threaded load generator for ccserve. Drives a slice of
// the client population (the same client::Client + workload code the DES
// runs) against a real page server over TCP, then reports wall-clock
// throughput, latency percentiles, and the attempt-conservation check.
//
//   $ ccload --port=7411 --algorithm=callback --clients=16 --duration=30
//   $ ccload --port-file=/tmp/port --algorithm=cert --clients=8
//            --lo=0 --hi=4 --threads=2   # half the population, 2 shards
//
// Exits non-zero if any transaction was lost, the conservation invariant
// (started == commits + aborts + in-flight, in-flight <= clients) fails,
// or nothing committed at all.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "config/flags.h"
#include "runner/deployment.h"

namespace {

using ccsim::config::FlagResult;
using ccsim::config::ParseValue;

void PrintUsage() {
  std::printf(
      "ccload — TCP load generator for ccserve\n\n"
      "  --host=H              server hostname or IPv4 address\n"
      "                        (default 127.0.0.1; see README for a\n"
      "                        two-host run)\n"
      "  --port=N              server port\n"
      "  --port-file=PATH      read the port from PATH (ccserve wrote it)\n"
      "  --algorithm=NAME      must match the server\n"
      "  --clients=N           total client population (must match server)\n"
      "  --lo=N --hi=N         global client-id slice this process drives\n"
      "                        (default the whole population)\n"
      "  --threads=N           event-loop shards (default: 1 per 8 clients,\n"
      "                        at least 2)\n"
      "  --duration=S          measured wall seconds (default 10)\n"
      "  --warmup=S            warmup before the stats window (default 1)\n"
      "  --locality=P --prob-write=P   workload shape\n"
      "  --seed=N              RNG seed (must match the server)\n"
      "  --drop=P --dup=P      per-frame drop/duplicate probability on this\n"
      "                        side of the wire\n"
      "  --spike=P:MS          per-frame delay-spike probability and size\n"
      "  --partition=NODE:AT:DUR[:DIR][:hard]\n"
      "                        blackhole client NODE's frames at AT s for\n"
      "                        DUR s; DIR = both | in | out; 'hard' also\n"
      "                        kills the owning shard's TCP connection\n"
      "  --recovery            run the client recovery layer (timeouts,\n"
      "                        retries, leases) without injecting faults;\n"
      "                        any fault flag implies it. The server must\n"
      "                        be started with matching fault flags so both\n"
      "                        sides agree on recovery mode.\n"
      "  --help                this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port_file;
  int port = 0;
  int lo = 0;
  int hi = -1;  // default: num_clients
  int threads = 0;
  double duration_s = 10.0;
  double warmup_s = 1.0;
  ccsim::config::CommandLine cl;
  const ccsim::Status parsed = ccsim::config::ParseCommandLine(
      ccsim::config::Tool::kLoad, argc, argv,
      [&](const char* arg, std::string*) {
        std::string value;
        if (ParseValue(arg, "--host", &value)) {
          host = value;
        } else if (ParseValue(arg, "--port", &value)) {
          port = std::atoi(value.c_str());
        } else if (ParseValue(arg, "--port-file", &value)) {
          port_file = value;
        } else if (ParseValue(arg, "--lo", &value)) {
          lo = std::atoi(value.c_str());
        } else if (ParseValue(arg, "--hi", &value)) {
          hi = std::atoi(value.c_str());
        } else if (ParseValue(arg, "--threads", &value)) {
          threads = std::atoi(value.c_str());
        } else if (ParseValue(arg, "--duration", &value)) {
          duration_s = std::atof(value.c_str());
        } else if (ParseValue(arg, "--warmup", &value)) {
          warmup_s = std::atof(value.c_str());
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
  ccsim::Result<ccsim::config::ExperimentConfig> cfg =
      ccsim::runner::PrepareRealConfig(cl.config);
  if (!cfg.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 cfg.status().ToString().c_str());
    return 2;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f == nullptr || std::fscanf(f, "%d", &port) != 1) {
      std::fprintf(stderr, "cannot read port from %s\n", port_file.c_str());
      if (f != nullptr) {
        std::fclose(f);
      }
      return 2;
    }
    std::fclose(f);
  }
  if (port <= 0) {
    std::fprintf(stderr, "need --port or --port-file\n");
    return 2;
  }
  const int num_clients = cl.config.system.num_clients;
  if (hi < 0) {
    hi = num_clients;
  }
  if (lo < 0 || lo >= hi || hi > num_clients) {
    std::fprintf(stderr, "bad client slice [%d, %d) of %d\n", lo, hi,
                 num_clients);
    return 2;
  }
  if (duration_s <= 0) {
    std::fprintf(stderr, "--duration must be positive\n");
    return 2;
  }

  auto connected = ccsim::runner::ClientDeployment::Connect(
      cfg.ValueOrDie(), host, port, lo, hi, threads);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().message().c_str());
    return 1;
  }
  ccsim::runner::ClientDeployment& clients = *connected.ValueOrDie();
  std::printf("ccload: %s, clients [%d, %d) of %d, %d shards -> %s:%d\n",
              cl.algorithm.c_str(), lo, hi, num_clients, clients.shards(),
              host.c_str(), port);
  std::fflush(stdout);
  clients.Run(warmup_s, duration_s);

  ccsim::runner::RunResult r;
  clients.Harvest(&r);
  const std::uint64_t finished = r.commits + r.aborts;
  const std::uint64_t in_flight =
      r.attempts_started > finished ? r.attempts_started - finished : 0;
  std::printf("throughput  : %.1f commits/s over %.1f s\n",
              static_cast<double>(r.commits) / duration_s, duration_s);
  std::printf("commits     : %" PRIu64 " (aborts %" PRIu64
              ", attempts started %" PRIu64 ", in flight at stop %" PRIu64
              ")\n",
              r.commits, r.aborts, r.attempts_started, in_flight);
  std::printf("latency     : mean %.4f s, p50 %.4f, p90 %.4f, p99 %.4f\n",
              r.mean_response_s, r.response_p50_s, r.response_p90_s,
              r.response_p99_s);
  std::printf("messages    : %" PRIu64 " sent\n", r.messages);
  std::printf("loops       : busy %.2f, %.2f wakeups per commit\n",
              r.client_loop_busy, r.client_wakeups_per_commit);
  if (cl.config.fault.recovery_enabled) {
    std::printf("recovery    : retries %" PRIu64 ", timeouts %" PRIu64
                ", lease expirations %" PRIu64 ", dup suppressed %" PRIu64
                ", unknown outcomes %" PRIu64 "\n",
                r.rpc_retries, r.rpc_timeouts, r.lease_expirations,
                r.duplicates_suppressed, r.unknown_outcomes);
    std::printf("recovery    : timeout aborts %" PRIu64
                ", crash aborts %" PRIu64 ", retry budget exhausted %" PRIu64
                ", reconnects %" PRIu64 ", disconnected drops %" PRIu64 "\n",
                r.timeout_aborts, r.crash_aborts, r.retry_budget_exhaustions,
                clients.reconnects(), clients.disconnected_drops());
  }
  if (clients.wire_faults()) {
    std::printf("wire faults : dropped %" PRIu64 ", duplicated %" PRIu64
                ", spikes %" PRIu64 ", down-drops %" PRIu64
                ", partition-drops %" PRIu64 "\n",
                r.messages_dropped, r.messages_duplicated, r.delay_spikes,
                r.down_drops, r.partition_drops);
  }

  bool ok = true;
  if (r.commits == 0) {
    std::printf("FAIL: no transactions committed\n");
    ok = false;
  }
  if (r.transactions_lost != 0) {
    std::printf("FAIL: %" PRIu64 " transactions lost\n", r.transactions_lost);
    ok = false;
  }
  // Window conservation: started + in_flight(start) == finished +
  // in_flight(end), both in-flight terms bounded by the driven population
  // (the warmup reset can leave the window's start imbalance non-zero).
  // This bound holds under wire faults too: each client drives exactly one
  // transaction at a time, and every faulted attempt resolves to a commit,
  // an abort, or a still-in-flight retry — never a silent disappearance
  // (that would be transactions_lost, checked above).
  const int driven = hi - lo;
  const std::uint64_t slack = static_cast<std::uint64_t>(driven);
  if (r.attempts_started > finished + slack ||
      finished > r.attempts_started + slack) {
    std::printf("FAIL: conservation violated (started %" PRIu64
                ", finished %" PRIu64 ", clients %d)\n",
                r.attempts_started, finished, driven);
    ok = false;
  }
  return ok ? 0 : 1;
}
