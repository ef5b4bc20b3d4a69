// The real-2pl workload: one substrate::ServerNode and one
// substrate::ClientShard in this process, connected over TCP loopback
// (TcpServerTransport / TcpClientTransport), each on its own loop thread.
// 2PL with inter-transaction caching, 16 clients, think times zeroed, raw
// speed (no modeled hardware costs), checker off: every access is a
// server round trip, so the wire codec, transport, loop wakeups and server
// dispatch carry the work.
//
// All of the process's threads share one CPU (see PinToOneCpu). Everything
// is observed at the public seams: an inbound filter on the shard
// (commit-reply latency samples, window control, RTT matching), a
// net::Transport decorator on both ends (traced mode), and the loop
// threads' own clocks.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "config/params.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/time.h"
#include "substrate/node.h"
#include "substrate/tcp.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccsim::config::ExperimentConfig;
using ccsim::net::Message;
using ccsim::net::MsgType;

constexpr int kClients = 16;
/// Commits before the measured window opens (caches and buffer pool warm,
/// every client past its first transaction).
constexpr std::uint64_t kWarmupCommits = 2000;
/// Set-up repetitions behind setup_s (median reported); the last one
/// continues into the measured window.
constexpr int kSetupTrials = 5;
/// Wall seconds a trial may take to reach kWarmupCommits.
constexpr double kSetupCapSeconds = 30.0;
/// The window is cut into slices of this many wall seconds; every
/// end-to-end figure is the median over slices, so a transient slow phase
/// of a shared host moves it less than a pooled figure.
constexpr double kSliceSeconds = 1.0;
constexpr ccsim::sim::Ticks kForever =
    std::numeric_limits<ccsim::sim::Ticks>::max() / 4;

ExperimentConfig MakeConfig(const Options& options) {
  ExperimentConfig cfg = ccsim::config::BaseConfig();
  cfg.system.num_clients = kClients;
  cfg.algorithm.algorithm = ccsim::config::Algorithm::kTwoPhaseLocking;
  cfg.algorithm.caching = ccsim::config::CachingMode::kInterTransaction;
  cfg.transaction.update_delay_s = 0;
  cfg.transaction.internal_delay_s = 0;
  cfg.transaction.external_delay_s = 0;
  cfg.control.seed = options.seed;
  return ccsim::substrate::RawSpeedConfig(cfg);
}

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Request/reply matching by (client, request_id) at the shard seam. A
/// client has at most one synchronous request outstanding, so one slot per
/// client suffices (and matching allocates nothing). Shard loop thread
/// only: the transport's Deliver and the inbound filter both run there.
class RttMatcher {
 public:
  RttMatcher() : pending_(kClients) {}

  void OnRequest(const Message& msg, Clock::time_point at) {
    if (msg.request_id != 0 && (msg.type == MsgType::kReadRequest ||
                                msg.type == MsgType::kCommitRequest)) {
      pending_[static_cast<std::size_t>(msg.src)] = {msg.request_id, at};
    }
  }
  void OnReply(const Message& msg, Clock::time_point at) {
    if (msg.type != MsgType::kReadReply && msg.type != MsgType::kCommitReply) {
      return;
    }
    Pending& slot = pending_[static_cast<std::size_t>(msg.dst)];
    if (slot.request_id != msg.request_id) {
      return;
    }
    (msg.type == MsgType::kReadReply ? read_us : commit_us)
        .push_back(MicrosBetween(slot.sent, at));
    slot.request_id = 0;
  }

  std::vector<double> read_us;
  std::vector<double> commit_us;

 private:
  struct Pending {
    std::uint64_t request_id = 0;
    Clock::time_point sent{};
  };
  std::vector<Pending> pending_;
};

/// Times every Deliver and every Flush that carries messages, then
/// forwards to the real transport. Owning loop thread only.
class TimingTransport : public ccsim::net::Transport {
 public:
  TimingTransport(ccsim::net::Transport* inner, RttMatcher* rtt)
      : inner_(inner), rtt_(rtt) {}

  void Deliver(const Message& msg) override {
    const auto start = Clock::now();
    inner_->Deliver(msg);
    deliver_ns_ += std::chrono::duration<double, std::nano>(Clock::now() -
                                                            start)
                       .count();
    ++messages_;
    ++unflushed_;
    if (rtt_ != nullptr) {
      rtt_->OnRequest(msg, start);
    }
  }

  bool Flush() override {
    if (unflushed_ == 0) {
      return inner_->Flush();
    }
    const auto start = Clock::now();
    const bool drained = inner_->Flush();
    flush_us_ += MicrosBetween(start, Clock::now());
    ++flushes_;
    unflushed_ = 0;
    return drained;
  }

  double deliver_ns_per_msg() const {
    return messages_ == 0 ? 0 : deliver_ns_ / static_cast<double>(messages_);
  }
  double flush_us_per_call() const {
    return flushes_ == 0 ? 0 : flush_us_ / static_cast<double>(flushes_);
  }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  ccsim::net::Transport* inner_;
  RttMatcher* rtt_;
  double deliver_ns_ = 0;
  double flush_us_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t unflushed_ = 0;
};

/// The shard's inbound filter: counts successful commit replies, opens the
/// measured window after kWarmupCommits, samples each client's interval
/// between successive commits (its response time, think times being
/// zero), and stops the shard loop when the window closes. Shard loop
/// thread only.
class ShardObserver {
 public:
  ShardObserver(const Options& options, Clock::time_point trial_start,
                bool setup_only, ccsim::substrate::RealtimeSubstrate* loop,
                RttMatcher* rtt)
      : options_(options), trial_start_(trial_start),
        setup_only_(setup_only), loop_(loop), rtt_(rtt),
        last_commit_(kClients), window_commits_by_client_(kClients, 0),
        slices_(static_cast<std::size_t>(
            std::max(1.0, std::round(options.seconds / kSliceSeconds)))) {
    for (Slice& slice : slices_) {
      slice.samples_us.reserve(1 << 15);
    }
  }

  bool OnInbound(const Message& msg) {
    if (msg.type != MsgType::kCommitReply || msg.aborted) {
      if (rtt_ != nullptr) {
        rtt_->OnReply(msg, Clock::now());
      }
      return !DropForBreakage();
    }
    const auto now = Clock::now();
    if (rtt_ != nullptr) {
      rtt_->OnReply(msg, now);
    }
    ++commits_seen_;
    const std::size_t client = static_cast<std::size_t>(msg.dst);
    if (window_open_) {
      if (now >= deadline_) {
        window_done_ = true;
        window_open_ = false;
        window_alloc_end_ = AllocNow();
        loop_->Stop();
      } else {
        const double at = std::chrono::duration<double>(now - window_start_)
                              .count();
        Slice& slice = slices_[std::min(
            slices_.size() - 1,
            static_cast<std::size_t>(at / options_.seconds *
                                     static_cast<double>(slices_.size())))];
        ++slice.commits;
        if (last_commit_[client] != Clock::time_point{}) {
          slice.samples_us.push_back(MicrosBetween(last_commit_[client], now));
        }
        ++window_commits_;
        ++window_commits_by_client_[client];
      }
    } else if (commits_seen_ == kWarmupCommits) {
      setup_s_ = std::chrono::duration<double>(now - trial_start_).count();
      if (setup_only_) {
        loop_->Stop();
      } else {
        window_open_ = true;
        window_start_ = now;
        deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(options_.seconds));
        window_alloc_start_ = AllocNow();
        window_open_rss_mb_ = PeakRssMb();
      }
    }
    last_commit_[client] = now;
    return !DropForBreakage();
  }

  double setup_s() const { return setup_s_; }
  /// Peak RSS when the window opened: a fixed amount of work (set-up
  /// trials plus warmup), unlike the window, whose commit count follows
  /// throughput. The loopback pair's RSS grows with every commit.
  double window_open_rss_mb() const { return window_open_rss_mb_; }
  bool window_done() const { return window_done_; }
  std::uint64_t commits_seen() const { return commits_seen_; }
  std::uint64_t window_commits() const { return window_commits_; }
  const std::vector<std::uint64_t>& window_commits_by_client() const {
    return window_commits_by_client_;
  }
  /// One slice of the measured window: its commits and their response
  /// time samples (µs).
  struct Slice {
    std::uint64_t commits = 0;
    std::vector<double> samples_us;
  };
  const std::vector<Slice>& slices() const { return slices_; }
  AllocSnapshot window_allocs() const {
    return {window_alloc_end_.news - window_alloc_start_.news,
            window_alloc_end_.bytes - window_alloc_start_.bytes};
  }

 private:
  bool DropForBreakage() {
    return options_.breakage == Breakage::kDropReplies && window_open_ &&
           ++inbound_in_window_ % 1000 == 0;
  }

  const Options& options_;
  Clock::time_point trial_start_;
  bool setup_only_;
  ccsim::substrate::RealtimeSubstrate* loop_;
  RttMatcher* rtt_;
  std::vector<Clock::time_point> last_commit_;
  std::vector<std::uint64_t> window_commits_by_client_;
  std::vector<Slice> slices_;
  std::uint64_t commits_seen_ = 0;
  std::uint64_t window_commits_ = 0;
  std::uint64_t inbound_in_window_ = 0;
  double setup_s_ = 0;
  bool window_open_ = false;
  bool window_done_ = false;
  Clock::time_point window_start_{};
  Clock::time_point deadline_{};
  AllocSnapshot window_alloc_start_;
  AllocSnapshot window_alloc_end_;
  double window_open_rss_mb_ = 0;
};

/// Clocks of one loop thread over its RunLoop.
struct LoopStats {
  double cpu_s = 0;
  double wall_s = 0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t events = 0;
};

template <typename RunFn>
LoopStats MeasureLoop(RunFn run) {
  const auto start = Clock::now();
  const double cpu0 = ThreadCpuSeconds();
  const std::uint64_t switches0 = ThreadVoluntarySwitches();
  LoopStats stats;
  stats.events = run();
  stats.cpu_s = ThreadCpuSeconds() - cpu0;
  stats.voluntary_switches = ThreadVoluntarySwitches() - switches0;
  stats.wall_s = SecondsSince(start);
  return stats;
}

/// Confines the calling thread — and so every thread it creates later —
/// to the highest-numbered CPU it may run on. On a virtual machine a
/// wakeup that crosses vCPUs can wait for a halted vCPU to be rescheduled
/// by the host; unpinned, the loopback pair swung between 2k and 8k
/// commits/s with the host's load. On one CPU a run measures the
/// program's own cost per commit, its wakeups and context switches
/// included.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return false;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0;
    }
  }
  return false;
}

/// One set-up trial: build both nodes, connect, run to kWarmupCommits and
/// — unless `setup_only` — on through the measured window. Returns the
/// trial's set-up seconds (0 on failure).
double RunTrial(const ExperimentConfig& cfg, const Options& options,
                bool setup_only, Report* report) {
  namespace sub = ccsim::substrate;
  const bool traced = options.mode == Mode::kTraced;
  const auto trial_start = Clock::now();

  sub::ServerNode server(cfg, options.seed);
  const sub::Hello hello = sub::MakeHello(cfg);
  std::string error;
  auto server_wire =
      sub::TcpServerTransport::Listen(0, hello, &server.substrate(), &error);
  if (server_wire == nullptr) {
    report->Fail("listen: " + error);
    return 0;
  }
  TimingTransport server_timing(server_wire.get(), nullptr);
  ccsim::net::Transport* server_transport =
      traced ? static_cast<ccsim::net::Transport*>(&server_timing)
             : server_wire.get();
  server.network().set_transport(server_transport);
  server.substrate().set_flush_hook(
      [server_transport] { return server_transport->Flush(); });
  server.Start();
  LoopStats server_loop;
  std::thread server_thread([&server, &server_loop] {
    server_loop =
        MeasureLoop([&server] { return server.RunLoop(kForever); });
  });

  sub::ClientShard shard(cfg, options.seed, 0, kClients);
  sub::Hello shard_hello = hello;
  shard_hello.client_lo = 0;
  shard_hello.client_hi = kClients;
  auto client_wire = sub::TcpClientTransport::Connect(
      "127.0.0.1", server_wire->port(), shard_hello, &shard.substrate(),
      &error);
  if (client_wire == nullptr) {
    server.substrate().Stop();
    server_thread.join();
    server_wire->Close();
    report->Fail("connect: " + error);
    return 0;
  }
  RttMatcher rtt;
  TimingTransport client_timing(client_wire.get(), &rtt);
  ccsim::net::Transport* client_transport =
      traced ? static_cast<ccsim::net::Transport*>(&client_timing)
             : client_wire.get();
  shard.network().set_transport(client_transport);
  shard.substrate().set_flush_hook(
      [client_transport] { return client_transport->Flush(); });
  ShardObserver observer(options, trial_start, setup_only, &shard.substrate(),
                         traced ? &rtt : nullptr);
  shard.InstallInboundFilter(
      [&observer](const Message& msg) { return observer.OnInbound(msg); });
  shard.Start();
  const ccsim::sim::Ticks horizon =
      ccsim::sim::SecondsToTicks(kSetupCapSeconds + options.seconds);
  LoopStats shard_loop;
  std::thread shard_thread([&shard, &shard_loop, horizon] {
    shard_loop =
        MeasureLoop([&shard, horizon] { return shard.RunLoop(0, horizon); });
  });
  shard_thread.join();
  // Drops are read before teardown: once the client hangs up, replies to
  // its last in-flight requests are unroutable by design.
  const std::uint64_t wire_drops = server_wire->unroutable_drops() +
                                   client_wire->disconnected_drops();
  // Teardown order as in the in-process runner: client reader first (no
  // more replies into the shard), then the server loop and its sockets.
  client_wire->Close();
  server.substrate().Stop();
  server_thread.join();
  server_wire->Close();

  // --- correctness gate ---
  const ccsim::runner::Metrics& m = shard.metrics();
  bool ok = true;
  auto fail = [&](const std::string& why) {
    report->Fail(why);
    ok = false;
  };
  if (observer.setup_s() == 0) {
    fail("warmup did not reach " + std::to_string(kWarmupCommits) +
         " commits within " + std::to_string(kSetupCapSeconds) + " s");
  }
  if (m.transactions_lost() != 0 || m.unknown_outcomes() != 0) {
    fail("lost " + std::to_string(m.transactions_lost()) + ", unknown " +
         std::to_string(m.unknown_outcomes()));
  }
  const std::uint64_t finished = m.commits() + m.aborts();
  const std::uint64_t slack = kClients;
  if (m.attempts_started() > finished + slack ||
      finished > m.attempts_started() + slack) {
    fail("attempt conservation: started " +
         std::to_string(m.attempts_started()) + ", finished " +
         std::to_string(finished));
  }
  if (observer.commits_seen() > m.commits() + slack ||
      m.commits() > observer.commits_seen() + slack) {
    fail("commit replies seen (" + std::to_string(observer.commits_seen()) +
         ") disagree with client commits (" + std::to_string(m.commits()) +
         ")");
  }
  if (wire_drops != 0) {
    fail(std::to_string(wire_drops) + " messages dropped on the wire");
  }
  report->set_attempts(m.attempts_started(),
                       m.transactions_lost() + m.unknown_outcomes());
  if (setup_only) {
    return ok ? observer.setup_s() : 0;
  }
  if (!observer.window_done()) {
    fail("measured window did not complete (no commits arrived)");
  }
  for (int c = 0; c < kClients; ++c) {
    if (observer.window_commits_by_client()[static_cast<std::size_t>(c)] ==
        0) {
      fail("client " + std::to_string(c) + " committed nothing in the window");
    }
  }
  if (!ok) {
    return 0;
  }

  // --- metrics: medians over the window's slices ---
  const double slice_s =
      options.seconds / static_cast<double>(observer.slices().size());
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::size_t sample_count = 0;
  for (const ShardObserver::Slice& slice : observer.slices()) {
    rates.push_back(static_cast<double>(slice.commits) / slice_s);
    p50s.push_back(Quantile(slice.samples_us, 0.50) / 1e3);
    p99s.push_back(Quantile(slice.samples_us, 0.99) / 1e3);
    sample_count += slice.samples_us.size();
  }
  report->Note(std::to_string(observer.window_commits()) + " commits in " +
               std::to_string(rates.size()) + " slices; slice commits/s " +
               std::to_string(Quantile(rates, 0)) + " .. " +
               std::to_string(Quantile(rates, 1)) + ", slice p99 ms " +
               std::to_string(Quantile(p99s, 0)) + " .. " +
               std::to_string(Quantile(p99s, 1)));
  report->Add("commits_per_s", Median(rates), "1/s");
  if (options.mode == Mode::kTimed) {
    report->Add("commit_p50_ms", Median(p50s), "ms");
    report->Add("commit_p99_ms", Median(p99s), "ms");
    report->Add("peak_rss_mb", observer.window_open_rss_mb(), "MB");
    report->Note("latency samples " + std::to_string(sample_count) + ", " +
                 std::to_string(sample_count / rates.size() / 100) +
                 " beyond p99 per slice");
    return observer.setup_s();
  }
  if (!traced) {
    return observer.setup_s();
  }

  // Lifetime counters of this trial, per lifetime commit.
  const double commits = static_cast<double>(m.commits());
  ccsim::server::Server& srv = server.server();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& client : shard.clients()) {
    hits += client->cache().hits();
    misses += client->cache().misses();
  }
  const double events =
      static_cast<double>(server_loop.events + shard_loop.events);
  const double loop_cpu = server_loop.cpu_s + shard_loop.cpu_s;
  report->Add("sim.events_per_commit", events / commits, "count");
  report->Add("sim.events_per_s",
              events / std::max(server_loop.wall_s, shard_loop.wall_s),
              "1/s");
  report->Add("sim.main_cpu_us_per_commit", loop_cpu * 1e6 / commits, "us");
  report->Add("net.messages_per_commit",
              static_cast<double>(server.network().messages_sent() +
                                  shard.network().messages_sent()) /
                  commits,
              "count");
  report->Add("net.packets_per_commit",
              static_cast<double>(server.network().packets_sent() +
                                  shard.network().packets_sent()) /
                  commits,
              "count");
  report->Add("lock.deadlocks_per_commit",
              static_cast<double>(srv.locks().deadlocks_detected()) / commits,
              "count");
  report->Add("proto.attempts_per_commit",
              static_cast<double>(m.attempts_started()) / commits, "count");
  report->Add("proto.aborts_per_commit.deadlock",
              static_cast<double>(m.deadlock_aborts()) / commits, "count");
  report->Add("proto.aborts_per_commit.stale",
              static_cast<double>(m.stale_aborts()) / commits, "count");
  report->Add("proto.aborts_per_commit.cert",
              static_cast<double>(m.cert_aborts()) / commits, "count");
  report->Add("storage.buffer_hit_ratio", srv.pool().HitRatio(), "ratio");
  report->Add("storage.writebacks_per_commit",
              static_cast<double>(srv.pool().writebacks()) / commits, "count");
  report->Add("storage.log_forces_per_commit",
              static_cast<double>(srv.log().commits_logged()) / commits,
              "count");
  report->Add("client.cache_hit_ratio",
              hits + misses == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(hits + misses),
              "ratio");
  report->Add("server.ready_queue_hwm",
              static_cast<double>(srv.ready_queue_high_water()), "count");
  const AllocSnapshot allocs = observer.window_allocs();
  const double window_commits =
      static_cast<double>(observer.window_commits());
  report->Add("alloc.news_per_commit",
              static_cast<double>(allocs.news) / window_commits, "count");
  report->Add("alloc.bytes_per_commit",
              static_cast<double>(allocs.bytes) / window_commits, "B");
  report->Add("substrate.server_loop_busy",
              server_loop.cpu_s / server_loop.wall_s, "ratio");
  report->Add("substrate.shard_loop_busy",
              shard_loop.cpu_s / shard_loop.wall_s, "ratio");
  report->Add("substrate.loop_wakeups_per_commit",
              static_cast<double>(server_loop.voluntary_switches +
                                  shard_loop.voluntary_switches) /
                  commits,
              "count");
  const double deliver_ns =
      (server_timing.deliver_ns_per_msg() *
           static_cast<double>(server_timing.messages()) +
       client_timing.deliver_ns_per_msg() *
           static_cast<double>(client_timing.messages())) /
      static_cast<double>(server_timing.messages() + client_timing.messages());
  report->Add("substrate.deliver_ns_per_msg", deliver_ns, "ns");
  const std::uint64_t flushes =
      server_timing.flushes() + client_timing.flushes();
  report->Add("substrate.flush_us_per_call",
              (server_timing.flush_us_per_call() *
                   static_cast<double>(server_timing.flushes()) +
               client_timing.flush_us_per_call() *
                   static_cast<double>(client_timing.flushes())) /
                  static_cast<double>(flushes),
              "us");
  report->Add("substrate.msgs_per_flush",
              static_cast<double>(server_timing.messages() +
                                  client_timing.messages()) /
                  static_cast<double>(flushes),
              "count");
  report->Add("substrate.rtt_read_p50_us", Median(rtt.read_us), "us");
  report->Add("substrate.rtt_commit_p50_us", Median(rtt.commit_us), "us");
  return observer.setup_s();
}

}  // namespace

void RunRealWorkload(const Options& options, Report* report) {
  if (!PinToOneCpu()) {
    report->Note("could not pin to one CPU; running unpinned");
  }
  const ExperimentConfig cfg = MakeConfig(options);
  std::vector<double> setup_trials;
  for (int trial = 0; trial < kSetupTrials && report->correct(); ++trial) {
    const bool last = trial == kSetupTrials - 1;
    setup_trials.push_back(RunTrial(cfg, options, !last, report));
  }
  if (!report->correct()) {
    return;
  }
  std::string trials;
  for (const double t : setup_trials) {
    trials += ' ';
    trials += std::to_string(t);
  }
  report->Note("set-up trials (s):" + trials);
  if (options.mode == Mode::kTimed) {
    report->Add("setup_s", Median(setup_trials), "s");
  }
}

}  // namespace perfbench
