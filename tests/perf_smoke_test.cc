// Fast perf-smoke checks for the event kernel (label: perf-smoke).
//
// The load-bearing property is *allocation-free steady state*: after a
// short warmup (which grows calendar buckets, the times heap, and event
// waiter vectors to their working capacity), the Delay/resume hot path
// and Event broadcast path must perform zero heap allocations. The same
// holds for the recycled DES memory: pooled coroutine frames (Spawn,
// Task chains, Shutdown), pooled protocol messages, mailbox rings and LRU
// nodes. A whole paper-scale experiment is held under a per-commit
// ceiling. This is deterministic — asserted exactly, not statistically —
// via a counting replacement of global operator new. Under
// AddressSanitizer the frame and message pools are bypassed, and the pool
// tests assert that instead.
//
// A deliberately conservative throughput floor rides along to catch
// catastrophic regressions (an accidental O(n)-per-event calendar, say);
// it is a tripwire, not a benchmark — bench/micro_kernel.cc measures the
// real numbers.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "client/client_cache.h"
#include "config/params.h"
#include "db/database.h"
#include "lock/lock_manager.h"
#include "net/message.h"
#include "net/network.h"
#include "proto/factory.h"
#include "runner/experiment.h"
#include "runner/metrics.h"
#include "server/directory.h"
#include "server/server.h"
#include "sim/event.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "substrate/realtime.h"
#include "substrate/tcp.h"
#include "substrate/wire.h"
#include "util/lru.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_deallocations{0};

void CountedFree(void* ptr) {
  if (ptr != nullptr) {
    g_deallocations.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(ptr);
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Pairs with the malloc-backed operator new above; GCC cannot see that
// every pointer reaching these came from malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* ptr) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { CountedFree(ptr); }
#pragma GCC diagnostic pop

namespace ccsim::sim {
namespace {

std::uint64_t AllocationsNow() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t DeallocationsNow() {
  return g_deallocations.load(std::memory_order_relaxed);
}

Process Ticker(Simulator& sim, Ticks period, std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    co_await sim.Delay(period);
  }
}

TEST(PerfSmokeTest, DelayHotPathIsAllocationFreeAfterWarmup) {
  Simulator sim;
  for (int i = 0; i < 64; ++i) {
    sim.Spawn(Ticker(sim, 1 + (i % 4), 1u << 20));
  }
  sim.Run(1000);  // warmup: buckets, heap, and free list reach capacity
  const std::uint64_t before = AllocationsNow();
  const std::uint64_t processed_before = sim.events_processed();
  sim.Run(20000);
  EXPECT_EQ(AllocationsNow(), before)
      << "Delay/ScheduleResumeAt steady state allocated";
  EXPECT_GT(sim.events_processed(), processed_before + 100000u);
  sim.Shutdown();
}

Process Broadcaster(Simulator& sim, Event& event, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    co_await sim.Delay(1);
    event.Signal();
  }
}

Process Listener(Simulator& sim, Event& event, std::uint64_t rounds) {
  (void)sim;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    co_await event.Wait();
  }
}

TEST(PerfSmokeTest, EventBroadcastIsAllocationFreeAfterWarmup) {
  Simulator sim;
  Event event(&sim);
  for (int i = 0; i < 32; ++i) {
    sim.Spawn(Listener(sim, event, 1u << 20));
  }
  sim.Spawn(Broadcaster(sim, event, 1u << 20));
  sim.Run(100);  // warmup: waiter and scratch vectors reach capacity
  const std::uint64_t before = AllocationsNow();
  sim.Run(5000);
  EXPECT_EQ(AllocationsNow(), before)
      << "Event::Signal broadcast steady state allocated";
  sim.Shutdown();
}

TEST(PerfSmokeTest, DelayThroughputFloor) {
  Simulator sim;
  for (int i = 0; i < 64; ++i) {
    sim.Spawn(Ticker(sim, 1, 1u << 20));
  }
  sim.Run(100);  // warmup
  const std::uint64_t start_events = sim.events_processed();
  const auto start = std::chrono::steady_clock::now();
  sim.Run(10000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t events = sim.events_processed() - start_events;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  const double events_per_sec = static_cast<double>(events) / seconds;
  // ~630k events in well under a second even in a debug build; the old
  // kernel managed >10M/s optimized. 500k/s only trips on a blowup.
  EXPECT_GT(events_per_sec, 500e3);
  sim.Shutdown();
}

// ---------------------------------------------------------------------------
// Recycled DES memory: coroutine frames, the live-process list, mailbox
// rings and LRU nodes (DESIGN.md §3b)
// ---------------------------------------------------------------------------

// Task chains whose frames land in different pool classes: the padding
// arrays are live across a suspension, so they sit in the frame.
Task<int> SmallLeaf(Simulator& sim, int x) {
  co_await sim.Delay(1);
  co_return x + 1;
}

Task<int> MediumStep(Simulator& sim, int x) {
  volatile char pad[600];
  pad[0] = static_cast<char>(x);
  const int leaf = co_await SmallLeaf(sim, x);
  co_return leaf + pad[0];
}

Task<void> LargeStep(Simulator& sim, int x, std::uint64_t* sink) {
  volatile char pad[3000];
  pad[0] = static_cast<char>(x);
  const int medium = co_await MediumStep(sim, x);
  *sink += static_cast<std::uint64_t>(medium + pad[0]);
}

Process ChainWorker(Simulator& sim, int x, std::uint64_t* sink) {
  co_await LargeStep(sim, x, sink);
  co_await SmallLeaf(sim, x);
}

/// Spawns `batch` short-lived processes per round, each running a chain of
/// three Task frames of different sizes, and runs them to completion.
void SpawnChainRounds(Simulator& sim, int rounds, int batch,
                      std::uint64_t* sink) {
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < batch; ++i) {
      sim.Spawn(ChainWorker(sim, i, sink));
    }
    sim.Run(sim.Now() + 100);
  }
}

TEST(PerfSmokeTest, SpawnAndTaskFramesAreRecycled) {
  Simulator sim;
  std::uint64_t sink = 0;
  SpawnChainRounds(sim, 4, 32, &sink);  // warmup: pool reaches the peak
  ASSERT_EQ(sim.live_process_count(), 0u);
  const std::uint64_t before = AllocationsNow();
  SpawnChainRounds(sim, 64, 32, &sink);
  const std::uint64_t allocated = AllocationsNow() - before;
  EXPECT_EQ(sim.live_process_count(), 0u);
  EXPECT_GT(sink, 0u);
  if (FramePool::kEnabled) {
    EXPECT_EQ(allocated, 0u)
        << "Spawn/finish with Task chains allocated after warmup";
  } else {
    // AddressSanitizer build: the pool is bypassed so every frame is a
    // fresh ::operator new (and use-after-destroy stays detectable).
    // 64 rounds x 32 processes x 5 frames each.
    EXPECT_GE(allocated, 64u * 32u * 5u)
        << "frames should bypass the pool under ASan";
  }
}

TEST(PerfSmokeTest, ShutdownDestroysPooledFramesMidChain) {
  // Suspended chains destroyed by Shutdown() return their frames to the
  // pool; a second wave then reuses them.
  Simulator sim;
  std::uint64_t sink = 0;
  const auto wave = [&] {
    for (int i = 0; i < 32; ++i) {
      sim.Spawn(ChainWorker(sim, i, &sink));
    }
    sim.Run(sim.Now());  // every chain parks in its innermost Delay
    EXPECT_EQ(sim.live_process_count(), 32u);
    sim.Shutdown();
    EXPECT_EQ(sim.live_process_count(), 0u);
  };
  wave();  // warmup: frames, calendar buckets
  const std::uint64_t before = AllocationsNow();
  wave();
  if (FramePool::kEnabled) {
    EXPECT_EQ(AllocationsNow(), before)
        << "frames freed by Shutdown were not reused";
  }
}

Process MailboxProducer(Simulator& sim, Mailbox<net::Message>& box,
                        std::uint64_t first_seq, int burst,
                        std::uint64_t rounds) {
  net::Message msg;
  msg.type = net::MsgType::kReadRequest;
  msg.seq = first_seq;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < burst; ++i) {
      box.Push(msg);
      ++msg.seq;
    }
    co_await sim.Delay(1);
  }
}

Process MailboxConsumer(Mailbox<net::Message>& box, std::uint64_t* next,
                        bool* in_order) {
  for (;;) {
    net::Message msg = co_await box.Receive();
    if (msg.seq != (*next)++) {
      *in_order = false;
    }
  }
}

TEST(PerfSmokeTest, MailboxRingIsAllocationFreeAfterGrowth) {
  Simulator sim;
  Mailbox<net::Message> box(&sim);
  std::uint64_t next = 0;
  bool in_order = true;
  sim.Spawn(MailboxConsumer(box, &next, &in_order));
  // Warmup: a 100-message burst grows the ring through several doublings
  // while the consumer lags behind it.
  sim.Spawn(MailboxProducer(sim, box, 0, 100, 4));
  sim.Run(sim.Now() + 10);
  ASSERT_EQ(next, 400u);
  // Clear() drops a backlog (the parked consumer stays parked) and keeps
  // the ring's storage.
  for (int i = 0; i < 50; ++i) {
    box.Push(net::Message{});
  }
  box.Clear();
  EXPECT_TRUE(box.empty());
  const std::uint64_t before = AllocationsNow();
  sim.Spawn(MailboxProducer(sim, box, 400, 64, 200));
  sim.Run(sim.Now() + 1000);
  if (FramePool::kEnabled) {
    EXPECT_EQ(AllocationsNow(), before)
        << "mailbox push/receive allocated after the ring grew";
  }
  EXPECT_EQ(next, 400u + 64u * 200u);
  EXPECT_TRUE(in_order) << "mailbox lost FIFO order across wrap/growth";
  sim.Shutdown();
}

Process Locker(Simulator& sim, lock::LockManager& locks, lock::OwnerId owner,
              std::uint64_t* granted) {
  Pcg32 rng(owner, 5);
  for (;;) {
    // A transaction of three locks, some exclusive; a deadlock victim
    // drops what it holds and starts over, like a restarted attempt.
    bool ok = true;
    for (int i = 0; i < 3 && ok; ++i) {
      const auto page = static_cast<db::PageId>(rng.UniformInt(0, 63));
      const lock::LockMode mode = rng.Bernoulli(0.25)
                                      ? lock::LockMode::kExclusive
                                      : lock::LockMode::kShared;
      ok = co_await locks.Acquire(owner, page, mode) ==
           lock::LockOutcome::kGranted;
    }
    if (ok) {
      ++*granted;
      co_await sim.Delay(3);
    }
    locks.ReleaseAll(owner);
    co_await sim.Delay(1);
  }
}

TEST(PerfSmokeTest, LockTableChurnIsAllocationFree) {
  // Page-indexed lock heads with inline holders and ring-buffered waiters,
  // recycled owner records and member deadlock-search scratch: once the
  // heads, rings and pools have reached their working size, acquiring,
  // queueing, deadlock checks and release touch no heap.
  if (!FramePool::kEnabled) {
    GTEST_SKIP() << "frame and object pools bypassed under AddressSanitizer";
  }
  Simulator sim;
  lock::LockManager locks(&sim);
  std::uint64_t granted = 0;
  for (lock::OwnerId owner = 1; owner <= 16; ++owner) {
    sim.Spawn(Locker(sim, locks, owner, &granted));
  }
  // Warmup: queues reach their deepest, the owner pool and search stack
  // their largest, and every page its ring capacity (slow: the deepest
  // queues are rare).
  sim.Run(200000);
  const std::uint64_t before = AllocationsNow();
  const std::uint64_t granted_before = granted;
  const std::uint64_t deadlocks_before = locks.deadlocks_detected();
  sim.Run(600000);
  EXPECT_EQ(AllocationsNow(), before) << "lock table churn allocated";
  EXPECT_GT(granted, granted_before + 50000u);
  EXPECT_GT(locks.deadlocks_detected(), deadlocks_before);
  sim.Shutdown();
}

TEST(PerfSmokeTest, DirectoryChurnIsAllocationFree) {
  // Per-client LRU tables indexed by client id and the page x client
  // bitset reverse index: noting, touching, dropping and evicting at a
  // steady population reuse tables, nodes and bits.
  server::Directory dir(/*per_client_capacity=*/50);
  Pcg32 rng(3, 4);
  std::vector<int> caching;
  const auto churn = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      const int client = static_cast<int>(rng.UniformInt(0, 19));
      const auto page = static_cast<db::PageId>(rng.UniformInt(0, 399));
      if (rng.Bernoulli(0.7)) {
        dir.Note(client, page);
      } else {
        dir.Drop(client, page);
      }
      dir.ClientsCaching(page, client, &caching);
    }
    dir.DropClient(static_cast<int>(rng.UniformInt(0, 19)));
  };
  churn(50000);  // warmup: tables, nodes and bit rows reach their size
  const std::uint64_t before = AllocationsNow();
  churn(200000);
  EXPECT_EQ(AllocationsNow(), before) << "directory churn allocated";
  dir.AuditStructure();
}

/// Client 0 of a hand-driven 2PL server: each transaction reads two pages,
/// upgrades one and commits it, waiting for every reply.
Process ScriptedTransactions(net::Network& net,
                             Mailbox<net::MessagePtr>& inbox,
                             std::uint64_t* committed) {
  std::uint64_t request_id = 0;
  for (std::uint64_t seq = 1;; ++seq) {
    const std::uint64_t uid = (seq << 10) | 1;  // client 0's uid layout
    const auto page = static_cast<db::PageId>(seq % 16);
    for (const net::MsgType type :
         {net::MsgType::kReadRequest, net::MsgType::kUpgradeRequest,
          net::MsgType::kCommitRequest}) {
      net::MessagePtr request = net::NewMessage();
      request->type = type;
      request->src = 0;
      request->dst = net::kServerNode;
      request->xact = uid;
      request->request_id = ++request_id;
      if (type == net::MsgType::kReadRequest) {
        request->mode = lock::LockMode::kShared;
        request->fetch_pages.push_back(page);
        request->fetch_pages.push_back(page + 16);
      } else if (type == net::MsgType::kUpgradeRequest) {
        request->mode = lock::LockMode::kExclusive;
        request->pages.push_back(page);
      } else {
        request->data_pages.push_back(page);
      }
      co_await net.Send(std::move(request));
      net::MessagePtr reply = co_await inbox.Receive();
      CCSIM_CHECK(!reply->aborted);
    }
    ++*committed;
  }
}

TEST(PerfSmokeTest, ServerTransactionStateIsRecycled) {
  // XactState objects come from a free list with their inline page sets
  // and event, the transaction index is a flat map, and the buffer pool
  // and lock manager recycle their per-transaction records: a stream of
  // admitted, committed and retired attempts allocates nothing once warm.
  if (!FramePool::kEnabled) {
    GTEST_SKIP() << "frame and object pools bypassed under AddressSanitizer";
  }
  config::ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = config::Algorithm::kTwoPhaseLocking;
  cfg.system.num_clients = 1;
  cfg.system.seek_high_ms = 0.0;  // a schedule that repeats exactly
  Simulator sim;
  db::DatabaseLayout layout(cfg.database, cfg.system.num_data_disks);
  runner::Metrics metrics(&sim);
  net::Network net(&sim, /*mean_packet_delay=*/0, Pcg32(1, 1));
  const std::unique_ptr<server::Server> server =
      proto::MakeServer(&sim, cfg, &layout, &net, &metrics, /*seed=*/1);
  Resource client_cpu(&sim, "client.cpu", 1);
  Mailbox<net::MessagePtr> inbox(&sim);
  net.RegisterEndpoint(0, net::Network::Endpoint{&inbox, &client_cpu,
                                                 sim::Ticks{500}});
  server->Start();
  std::uint64_t committed = 0;
  sim.Spawn(ScriptedTransactions(net, inbox, &committed));
  sim.Run(sim::SecondsToTicks(20));  // warmup: every page resident
  const std::uint64_t before = AllocationsNow();
  const std::uint64_t committed_before = committed;
  sim.Run(sim::SecondsToTicks(200));
  EXPECT_EQ(AllocationsNow(), before) << "transaction state churn allocated";
  EXPECT_GT(committed, committed_before + 1000u);
  EXPECT_LE(server->live_xact_states(), 1u);
  EXPECT_EQ(server->transactions_committed(), committed);
  sim.Shutdown();
}

TEST(PerfSmokeTest, LruTableChurnIsAllocationFree) {
  // The client cache, buffer pool and callback directory all sit on
  // LruTable: at a steady size, insert/erase/touch must reuse nodes and
  // index slots.
  LruTable<int, std::uint64_t> lru;
  constexpr int kCapacity = 200;
  int next_key = 0;
  const auto churn = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      lru.Touch(next_key - 1 - (i % 7) * 3);
      if (static_cast<int>(lru.size()) >= kCapacity) {
        ASSERT_TRUE(lru.Erase(lru.VictimCandidate()->key));
      }
      lru.Insert(next_key, static_cast<std::uint64_t>(next_key));
      ++next_key;
    }
  };
  churn(2 * kCapacity);  // warmup: nodes and index reach capacity
  const std::uint64_t before = AllocationsNow();
  churn(20000);
  EXPECT_EQ(AllocationsNow(), before) << "LruTable churn allocated";
  EXPECT_EQ(lru.size(), static_cast<std::size_t>(kCapacity));
}

// ---------------------------------------------------------------------------
// Pooled protocol messages (net::MessagePtr, DESIGN.md §3b)
// ---------------------------------------------------------------------------

Process PooledSender(Simulator& sim, net::Network& net, int burst,
                     std::uint64_t rounds, std::uint64_t* sent) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < burst; ++i) {
      net::MessagePtr msg = net::NewMessage();
      msg->type = net::MsgType::kCommitRequest;
      msg->src = 0;
      msg->dst = net::kServerNode;
      msg->xact = ++*sent;
      for (int p = 0; p < 4; ++p) {
        msg->data_pages.push_back(p);  // four packets of CPU charges
        msg->data_versions.push_back(msg->xact);
      }
      co_await net.Send(std::move(msg));
    }
    co_await sim.Delay(sim::MillisToTicks(10));  // drains every burst
  }
}

Process PooledReceiver(Mailbox<net::MessagePtr>& inbox,
                       std::uint64_t* received, bool* in_order) {
  for (;;) {
    net::MessagePtr msg = co_await inbox.Receive();
    if (msg->xact != ++*received || msg->data_pages.size() != 4) {
      *in_order = false;
    }
  }  // each message goes back to the pool here
}

TEST(PerfSmokeTest, NetworkSendToMailboxIsAllocationFreeAfterWarmup) {
  // The per-message path of every protocol: build from the pool, Send
  // (sender CPU, receiver CPU), land in the inbox, release after handling.
  // Once the pools, the CPU queues and the inbox ring have reached their
  // working size, none of it touches the heap. The medium has no delay so
  // the schedule repeats exactly every round: random packet delays only
  // add rare new calendar high-water marks, which are the kernel's, not
  // the message path's.
  Simulator sim;
  net::Network net(&sim, /*mean_packet_delay=*/0, Pcg32(1, 1));
  Resource client_cpu(&sim, "client.cpu", 1);
  Resource server_cpu(&sim, "server.cpu", 1);
  Mailbox<net::MessagePtr> client_inbox(&sim);
  Mailbox<net::MessagePtr> server_inbox(&sim);
  net.RegisterEndpoint(0, net::Network::Endpoint{&client_inbox, &client_cpu,
                                                 sim::Ticks{500}});
  net.RegisterEndpoint(net::kServerNode,
                       net::Network::Endpoint{&server_inbox, &server_cpu,
                                              sim::Ticks{250}});
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool in_order = true;
  sim.Spawn(PooledReceiver(server_inbox, &received, &in_order));
  sim.Spawn(PooledSender(sim, net, 8, 1u << 20, &sent));
  sim.Run(sim::SecondsToTicks(1));  // warmup
  const std::uint64_t before = AllocationsNow();
  const std::uint64_t received_before = received;
  sim.Run(sim::SecondsToTicks(20));
  const std::uint64_t allocated = AllocationsNow() - before;
  EXPECT_GT(received, received_before + 1000u);
  EXPECT_TRUE(in_order);
  if (FramePool::kEnabled && net::MessagePool::kEnabled) {
    EXPECT_EQ(allocated, 0u)
        << "steady-state Send -> mailbox -> release allocated";
  } else {
    // AddressSanitizer build: both pools are bypassed, so every message
    // and every Send/TransferAndDeliver frame is a fresh allocation.
    EXPECT_GE(allocated, 3u * (received - received_before))
        << "messages should bypass the pool under ASan";
  }
  sim.Shutdown();
}

TEST(PerfSmokeTest, MessagesReleasedOnAnotherThreadAreFreedAtItsExit) {
  // A message released on a thread that did not create it parks in the
  // releasing thread's free list; that list is freed when the thread
  // exits, spilled list storage included.
  constexpr std::size_t kCount = 256;
  std::vector<net::MessagePtr> made;
  made.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    made.push_back(net::NewMessage());
    for (int p = 0; p < 40; ++p) {
      made.back()->pages.push_back(p);  // past the inline capacity
    }
  }
  const std::uint64_t frees_before = DeallocationsNow();
  std::uint64_t frees_at_release = 0;
  std::thread worker([&] {
    made.clear();
    frees_at_release = DeallocationsNow() - frees_before;
  });
  worker.join();
  const std::uint64_t frees = DeallocationsNow() - frees_before;
  // One block per message plus one per spilled list.
  EXPECT_GE(frees, 2u * kCount) << "the worker's free list leaked";
  if (net::MessagePool::kEnabled) {
    EXPECT_LT(frees_at_release, kCount)
        << "released messages should wait in the worker's list";
  }
}

/// operator new calls per commit in the steady state of a paper-scale run
/// (Table 5 parameters, 20 clients): the difference between a long and a
/// short run of the same seed, after a warm-up run has filled the frame
/// pool. Setup, warmup and teardown are identical in both runs and cancel.
double SteadyNewsPerCommit(config::Algorithm algorithm) {
  config::ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = algorithm;
  cfg.system.num_clients = 20;
  cfg.control.seed = 1;
  cfg.control.warmup_seconds = 5;
  cfg.control.max_measure_seconds = 600;
  const auto news_for = [&cfg](std::uint64_t commits) {
    cfg.control.target_commits = commits;
    const std::uint64_t before = AllocationsNow();
    const Result<runner::RunResult> result = runner::RunExperiment(cfg);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.ValueOrDie().commits, commits);
    return AllocationsNow() - before;
  };
  constexpr std::uint64_t kShort = 300;
  constexpr std::uint64_t kLong = 1300;
  news_for(kShort);  // warm the frame pool
  const std::uint64_t short_news = news_for(kShort);
  const std::uint64_t long_news = news_for(kLong);
  return static_cast<double>(long_news - short_news) /
         static_cast<double>(kLong - kShort);
}

// Ceiling: 1.95 operator new calls per commit, the measured maximum over
// the five protocols plus 12% headroom. Measured: 2PL 1.11, certification
// 1.07, callback 1.74, no-wait 1.22, no-wait+notify 1.12. Before the
// server and lock state were made flat and recycled (page-indexed lock
// heads and directory, pooled transaction states with inline page sets):
// 94.2 for 2PL and 87.2 for callback; before pooled messages and ring
// queues 120.4 and 112.2; before any recycling 422 and 408. The count is
// exact and deterministic for a seed. What still allocates is mostly the
// step vector of each generated transaction; losing a recycled layer costs
// far more than the headroom: lock-table or transaction-state hash nodes
// were ~50 calls per commit, frames ~300, mailbox deque nodes one per
// message (~19).
constexpr double kMaxSteadyNewsPerCommit = 1.95;

TEST(PerfSmokeTest, PaperScaleExperimentAllocationCeiling) {
  if (!FramePool::kEnabled) {
    GTEST_SKIP() << "frame pool bypassed under AddressSanitizer";
  }
  const std::pair<config::Algorithm, const char*> kProtocols[] = {
      {config::Algorithm::kTwoPhaseLocking, "2PL"},
      {config::Algorithm::kCertification, "certification"},
      {config::Algorithm::kCallbackLocking, "callback"},
      {config::Algorithm::kNoWaitLocking, "no-wait"},
      {config::Algorithm::kNoWaitNotify, "no-wait+notify"},
  };
  for (const auto& [algorithm, label] : kProtocols) {
    const double news = SteadyNewsPerCommit(algorithm);
    std::printf("steady operator new per commit: %s %.2f\n", label, news);
    EXPECT_LE(news, kMaxSteadyNewsPerCommit) << label;
  }
}

// ---------------------------------------------------------------------------
// Message-path allocation accounting (the SmallVector conversion's contract)
// ---------------------------------------------------------------------------

TEST(PerfSmokeTest, MessagePathIsAllocationFreeWithinInlineCapacity) {
  // A transaction touches 4-12 pages (Table 5), and net::Message's lists
  // carry 12 inline slots — so building, copying, and moving a full-sized
  // message, and the reply built from it, must never reach the heap. This
  // is the steady-state client/server message path: requests and replies
  // are built fresh per RPC and copied through mailboxes and reply caches.
  std::uint64_t sink = 0;
  const std::uint64_t before = AllocationsNow();
  for (int iter = 0; iter < 1000; ++iter) {
    net::Message request;
    request.type = net::MsgType::kCommitRequest;
    request.xact = static_cast<std::uint64_t>(iter);
    for (int i = 0; i < 12; ++i) {
      request.pages.push_back(i);
      request.versions.push_back(static_cast<std::uint64_t>(iter + i));
      request.data_pages.push_back(100 + i);
      request.data_versions.push_back(static_cast<std::uint64_t>(i));
      request.read_set.push_back(i);
      request.read_versions.push_back(static_cast<std::uint64_t>(i));
      request.updated_set.push_back(100 + i);
    }
    sink += static_cast<std::uint64_t>(net::PacketsFor(request));
    net::Message reply;
    reply.type = net::MsgType::kCommitReply;
    reply.pages = request.updated_set;          // SmallVector copy-assign
    reply.versions = request.data_versions;
    net::Message routed = std::move(request);   // mailbox-style move
    sink += routed.pages.size() + reply.pages.size();
  }
  EXPECT_EQ(AllocationsNow(), before)
      << "inline-capacity message path allocated";
  EXPECT_GT(sink, 0u);
}

TEST(PerfSmokeTest, EvictionVictimListIsAllocationFreeWithinInlineCapacity) {
  // ClientCache::Insert returns its victims in a 4-slot inline list; an
  // insert evicts at most a handful of pages, so handing victims to the
  // protocol (by reference, then filtered into a second list) stays off
  // the heap.
  std::uint64_t sink = 0;
  const std::uint64_t before = AllocationsNow();
  for (int iter = 0; iter < 1000; ++iter) {
    client::ClientCache::EvictedList victims;
    for (int i = 0; i < 4; ++i) {
      client::CachedPage info;
      info.version = static_cast<std::uint64_t>(iter);
      info.dirty = (i % 2) == 0;
      victims.push_back({i, info});
    }
    client::ClientCache::EvictedList rest;
    for (const client::ClientCache::Evicted& victim : victims) {
      if (victim.info.dirty) {
        rest.push_back(victim);
      }
    }
    sink += rest.size();
  }
  EXPECT_EQ(AllocationsNow(), before) << "eviction victim path allocated";
  EXPECT_GT(sink, 0u);
}

// ---------------------------------------------------------------------------
// Real-substrate wire path (the batched-I/O fast path's contract)
// ---------------------------------------------------------------------------

TEST(PerfSmokeTest, WirePathIsAllocationFreeAfterWarmup) {
  // The steady-state real-substrate message loop — encode into a reused
  // FrameBuffer, vectored flush, non-blocking receive into the
  // connection's reused FrameSplitter, decode each frame straight into a
  // pooled message and inject it into the loop's sink — must not touch the
  // heap once every buffer has grown to its working capacity. One lap here
  // is what one loop pass does per connection: queue a batch, flush it,
  // read it back, decode and inject every frame.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::fcntl(fds[1], F_SETFL, ::fcntl(fds[1], F_GETFL, 0) | O_NONBLOCK);

  net::Message msg;
  msg.type = net::MsgType::kReadReply;
  msg.src = net::kServerNode;
  msg.dst = 3;
  msg.xact = 42;
  msg.request_id = 7;
  for (int i = 0; i < 4; ++i) {
    msg.pages.push_back(i);
    msg.versions.push_back(static_cast<std::uint64_t>(100 + i));
  }
  msg.data_pages.push_back(9);  // one zero-run page image per frame
  msg.data_versions.push_back(101);
  constexpr std::uint32_t kPagePayload = 512;
  constexpr int kBatch = 8;

  substrate::FrameBuffer buffer;
  substrate::Connection conn{substrate::ScopedFd(fds[1])};
  sim::Simulator sim;
  substrate::RealtimeSubstrate loop(&sim);
  std::uint64_t injected = 0;
  loop.set_message_sink([&injected](net::MessagePtr in) {
    EXPECT_EQ(in->xact, 42u);
    ++injected;  // the handle returns the message to the pool here
  });
  std::string error;
  std::uint64_t decoded = 0;

  const auto lap = [&] {
    for (int i = 0; i < kBatch; ++i) {
      buffer.AppendMessage(msg, kPagePayload);
    }
    ASSERT_EQ(buffer.Flush(fds[0]), substrate::FrameBuffer::FlushResult::kDone)
        << "socketpair buffer too small for one batch";
    const std::uint64_t target = decoded + kBatch;
    while (decoded < target) {
      ASSERT_TRUE(conn.Receive());
      const std::uint8_t* body = nullptr;
      std::uint32_t len = 0;
      while (conn.NextFrame(&body, &len) ==
             substrate::FrameSplitter::Next::kFrame) {
        net::MessagePtr in = net::NewMessage();
        ASSERT_TRUE(substrate::DecodeMessage(body, len, kPagePayload,
                                             in.get(), &error))
            << error;
        loop.Inject(std::move(in));
        ++decoded;
      }
    }
  };

  for (int warm = 0; warm < 4; ++warm) {
    lap();  // grow buffer/splitter/pool capacities to steady state
  }
  const std::uint64_t before = AllocationsNow();
  for (int i = 0; i < 64; ++i) {
    lap();
  }
  const std::uint64_t allocated = AllocationsNow() - before;
  if (net::MessagePool::kEnabled) {
    EXPECT_EQ(allocated, 0u) << "steady-state wire path (encode/flush/"
                                "receive/decode/inject) allocated";
  } else {
    // AddressSanitizer build: the message pool is bypassed, so every
    // decoded message is a fresh allocation.
    EXPECT_GE(allocated, 64u * kBatch)
        << "messages should bypass the pool under ASan";
  }
  EXPECT_EQ(decoded, 68u * kBatch);
  EXPECT_EQ(injected, decoded);
  ::close(fds[0]);
}

TEST(PerfSmokeTest, MessageListSpillFallsBackToHeap) {
  // Past the inline capacity the lists must keep working (and are allowed
  // to allocate) — the capacity is an optimization, not a limit.
  const std::uint64_t before = AllocationsNow();
  net::Message msg;
  for (int i = 0; i < 64; ++i) {
    msg.pages.push_back(i);
  }
  EXPECT_EQ(msg.pages.size(), 64u);
  EXPECT_FALSE(msg.pages.inline_storage());
  EXPECT_GT(AllocationsNow(), before) << "counting operator new is dead";
}

}  // namespace
}  // namespace ccsim::sim
