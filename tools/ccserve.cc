// ccserve — a real page server: the simulator's server::Server (buffer
// pool, lock manager, log, page directory, and any of the five consistency
// protocols) hosted on real threads, serving the wire protocol over TCP.
//
//   $ ccserve --algorithm=callback --clients=16 --port=7411
//   $ ccserve --algorithm=cert --clients=8 --port=0 --port-file=/tmp/port
//
// Clients are ccload processes (or in-process shards). The server runs
// until SIGINT/SIGTERM or --duration elapses, then prints a summary and
// exits 0 on a clean shutdown.

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "config/flags.h"
#include "runner/deployment.h"

namespace {

using ccsim::config::FlagResult;
using ccsim::config::ParseValue;

void PrintUsage() {
  std::printf(
      "ccserve — real TCP page server for the five consistency protocols\n\n"
      "  --algorithm=NAME      2pl | 2pl-intra | cert | cert-intra |\n"
      "                        callback | no-wait | no-wait-notify\n"
      "  --clients=N           total client population the load generators\n"
      "                        will present (must match ccload --clients)\n"
      "  --port=N              TCP port (0 = ephemeral; printed at start)\n"
      "  --bind=HOST           bind address (default: all interfaces)\n"
      "  --port-file=PATH      write the bound port to PATH (scripting)\n"
      "  --buffer-pages=N      server buffer pool size\n"
      "  --mpl=N               server multiprogramming level\n"
      "  --seed=N              RNG seed (must match ccload --seed)\n"
      "  --duration=S          exit after S wall seconds (default: run\n"
      "                        until SIGINT/SIGTERM)\n"
      "  --check               run the consistency oracle on every commit\n"
      "  --crash=AT:DOWN       self-crash at AT s for DOWN s, then replay\n"
      "                        the log and resume (repeatable); live TCP\n"
      "                        connections are severed at the crash\n"
      "  --drop=P --dup=P      per-frame drop/duplicate probability\n"
      "  --spike=P:MS          per-frame delay-spike probability and size\n"
      "  --partition=NODE:AT:DUR[:DIR][:hard]\n"
      "                        blackhole client NODE's frames at AT s for\n"
      "                        DUR s; DIR = both | in | out; 'hard' also\n"
      "                        kills the carrying TCP connection\n"
      "  --torn-write=P --bit-flip=P\n"
      "                        per-log-force storage-fault probabilities\n"
      "  --recovery            enable the recovery layer without faults\n"
      "                        (any fault flag enables it implicitly;\n"
      "                        ccload must be started with matching fault\n"
      "                        flags so both sides run recovery mode)\n"
      "  --help                this text\n");
}

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  std::string port_file;
  std::string bind_host;
  int port = 0;
  double duration_s = 0.0;  // 0 = until signal
  ccsim::config::CommandLine cl;
  const ccsim::Status parsed = ccsim::config::ParseCommandLine(
      ccsim::config::Tool::kServe, argc, argv,
      [&](const char* arg, std::string*) {
        std::string value;
        if (ParseValue(arg, "--port", &value)) {
          port = std::atoi(value.c_str());
        } else if (ParseValue(arg, "--bind", &value)) {
          bind_host = value;
        } else if (ParseValue(arg, "--port-file", &value)) {
          port_file = value;
        } else if (ParseValue(arg, "--duration", &value)) {
          duration_s = std::atof(value.c_str());
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

  auto started = ccsim::runner::ServerDeployment::Start(cfg.ValueOrDie(),
                                                        port, bind_host);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().message().c_str());
    return 1;
  }
  ccsim::runner::ServerDeployment& server = *started.ValueOrDie();
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }
  std::printf("ccserve: %s, %d clients, port %d%s\n", cl.algorithm.c_str(),
              cl.config.system.num_clients, server.port(),
              cl.config.checker.enabled ? ", oracle on" : "");
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Signal handlers cannot call into the substrate, so the main thread
  // polls the flag (and the optional wall deadline) at 50 ms.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(duration_s));
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_signal != 0 ||
        (duration_s > 0 && std::chrono::steady_clock::now() >= deadline)) {
      break;
    }
  }
  if (!server.Stop()) {
    std::printf("ccserve: shutdown flush timed out — poisoned dirty "
                "connections (peers see RST, not a torn frame)\n");
  }

  ccsim::runner::RunResult r;
  server.Harvest(&r);
  const ccsim::substrate::TcpServerTransport& t = server.transport();
  std::printf("ccserve: clean shutdown — %" PRIu64 " events, %" PRIu64
              " frames in, %" PRIu64 " connections, %" PRIu64
              " unroutable drops\n",
              r.events_processed, t.frames_received(),
              t.connections_accepted(), t.unroutable_drops());
  std::printf("ccserve: loop busy %.2f, %.2f wakeups per commit, %zu live "
              "transaction states\n",
              r.server_loop_busy, r.server_wakeups_per_commit,
              r.final_xact_states);
  std::printf("ccserve: commits logged %" PRIu64 ", buffer hit %.2f, "
              "writebacks %" PRIu64 ", deadlocks %" PRIu64 ", shed %" PRIu64
              "\n",
              r.log_forced_commits, r.server_buffer_hit_ratio,
              r.buffer_writebacks, r.deadlocks_detected, r.shed_requests);
  if (server.wire_faults()) {
    std::printf("ccserve: wire faults — dropped %" PRIu64
                ", duplicated %" PRIu64 ", spikes %" PRIu64
                ", down-drops %" PRIu64 ", partition-drops %" PRIu64 "\n",
                r.messages_dropped, r.messages_duplicated, r.delay_spikes,
                r.down_drops, r.partition_drops);
    std::printf("ccserve: crashes %" PRIu64 " (recovery %.3f s), torn writes %"
                PRIu64 ", bit flips %" PRIu64 ", log rewrites %" PRIu64
                ", records truncated %" PRIu64 "\n",
                r.server_crashes, r.recovery_seconds, r.log_torn_writes,
                r.log_bit_flips, r.log_rewrites, r.log_records_truncated);
  }
  if (r.oracle_enabled) {
    std::printf("ccserve: oracle clean — %" PRIu64 " commits checked, %" PRIu64
                " edges\n",
                r.oracle_commits, r.oracle_edges);
  }
  return 0;
}
