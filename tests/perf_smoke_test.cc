// Fast perf-smoke checks for the event kernel (label: perf-smoke).
//
// The load-bearing property is *allocation-free steady state*: after a
// short warmup (which grows calendar buckets, the times heap, and event
// waiter vectors to their working capacity), the Delay/resume hot path
// and Event broadcast path must perform zero heap allocations. The same
// holds for the recycled DES memory: pooled coroutine frames (Spawn,
// Task chains, Shutdown), mailbox rings and LRU nodes. A whole paper-scale
// experiment is held under a per-commit ceiling. This is deterministic —
// asserted exactly, not statistically — via a counting replacement of
// global operator new. Under AddressSanitizer the frame pool is bypassed,
// and the frame test asserts that instead.
//
// A deliberately conservative throughput floor rides along to catch
// catastrophic regressions (an accidental O(n)-per-event calendar, say);
// it is a tripwire, not a benchmark — bench/micro_kernel.cc measures the
// real numbers.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "client/client_cache.h"
#include "config/params.h"
#include "net/message.h"
#include "runner/experiment.h"
#include "sim/event.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "substrate/wire.h"
#include "util/lru.h"
#include "util/spsc_ring.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
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
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#pragma GCC diagnostic pop

namespace ccsim::sim {
namespace {

std::uint64_t AllocationsNow() {
  return g_allocations.load(std::memory_order_relaxed);
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

// Ceiling: 135 operator new calls per commit. Measured with the recycled
// layers on: 120.4 for 2PL and 112.2 for callback (before them: 422 and
// 408). The count is exact and deterministic for a seed, so the headroom
// only has to absorb small bookkeeping changes elsewhere in the model. What
// still allocates lies outside the recycled layers: lock-table hash nodes
// and wait queues, RPC-slot and read-set hash maps, buffer-pool load
// events, the callback directory's reverse index, and one step vector per
// transaction. Losing any recycled layer costs more than the headroom:
// frames are ~300 calls per commit, mailbox deque nodes one per message
// (~19), and LRU list plus hash nodes two per cache, buffer-pool or
// directory insert.
constexpr double kMaxSteadyNewsPerCommit = 135.0;

TEST(PerfSmokeTest, PaperScaleExperimentAllocationCeiling) {
  if (!FramePool::kEnabled) {
    GTEST_SKIP() << "frame pool bypassed under AddressSanitizer";
  }
  const double two_phase =
      SteadyNewsPerCommit(config::Algorithm::kTwoPhaseLocking);
  const double callback =
      SteadyNewsPerCommit(config::Algorithm::kCallbackLocking);
  std::printf("steady operator new per commit: 2PL %.2f, callback %.2f\n",
              two_phase, callback);
  EXPECT_LE(two_phase, kMaxSteadyNewsPerCommit);
  EXPECT_LE(callback, kMaxSteadyNewsPerCommit);
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
  // FrameBuffer, vectored flush, batched recv into a reused FrameSplitter,
  // decode into reusable SpscRing slots — must not touch the heap once
  // every buffer has grown to its working capacity. One lap here is what
  // one calendar step does per connection: queue a batch, flush it, read
  // it back, peel and decode every frame into the inbound ring.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

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
  substrate::FrameSplitter splitter;
  util::SpscRing<net::Message> ring(64);
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
      std::uint8_t* dst = splitter.WritableData(4096);
      const ssize_t n = ::recv(fds[1], dst, splitter.writable_size(), 0);
      ASSERT_GT(n, 0);
      splitter.CommitBytes(static_cast<std::size_t>(n));
      const std::uint8_t* body = nullptr;
      std::uint32_t len = 0;
      while (splitter.NextFrame(&body, &len) ==
             substrate::FrameSplitter::Next::kFrame) {
        net::Message* slot = ring.TryReserve();
        ASSERT_NE(slot, nullptr);
        ASSERT_TRUE(
            substrate::DecodeMessage(body, len, kPagePayload, slot, &error))
            << error;
        ring.Publish();
        EXPECT_EQ(ring.Front().xact, 42u);
        ring.Pop();
        ++decoded;
      }
    }
    ASSERT_TRUE(splitter.Empty());
  };

  for (int warm = 0; warm < 4; ++warm) {
    lap();  // grow buffer/splitter/slot capacities to steady state
  }
  const std::uint64_t before = AllocationsNow();
  for (int i = 0; i < 64; ++i) {
    lap();
  }
  EXPECT_EQ(AllocationsNow(), before)
      << "steady-state wire path (encode/flush/split/decode) allocated";
  EXPECT_EQ(decoded, 68u * kBatch);
  ::close(fds[0]);
  ::close(fds[1]);
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
