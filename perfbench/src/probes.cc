// Isolated layer probes: each layer's public functions called directly,
// outside any workload, in the shapes of bench/micro_kernel.cc and
// bench/micro_substrates.cc. Each probe reports the median of kReps
// repetitions in nanoseconds per operation.

#include <cstdint>
#include <string>
#include <vector>

#include "check/checker.h"
#include "client/client_cache.h"
#include "db/database.h"
#include "lock/lock_manager.h"
#include "net/message.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "substrate/wire.h"
#include "util/spsc_ring.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = ccsim::sim;

constexpr int kReps = 5;

/// Median over kReps of wall ns per operation; `body` runs one repetition
/// and returns the operations it performed.
template <typename Body>
double NsPerOp(Body body) {
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = Clock::now();
    const std::uint64_t ops = body();
    reps.push_back(SecondsSince(start) * 1e9 / static_cast<double>(ops));
  }
  return Median(reps);
}

/// Keeps a value observable so the optimizer cannot drop the work.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

sim::Process Locker(sim::Simulator& sim, ccsim::lock::LockManager& locks,
                    ccsim::lock::OwnerId owner, int rounds) {
  sim::Pcg32 rng(owner, owner);
  for (int i = 0; i < rounds; ++i) {
    const auto page = static_cast<ccsim::db::PageId>(rng.UniformInt(0, 255));
    const ccsim::lock::LockMode mode = rng.Bernoulli(0.2)
                                           ? ccsim::lock::LockMode::kExclusive
                                           : ccsim::lock::LockMode::kShared;
    const ccsim::lock::LockOutcome outcome =
        co_await locks.Acquire(owner, page, mode);
    if (outcome == ccsim::lock::LockOutcome::kGranted) {
      co_await sim.Delay(1);
      locks.ReleaseAll(owner);
    }
  }
}

/// 16 owners contending for 256 pages (20% exclusive): one operation is
/// one acquire, with its release and the calendar step between them.
double LockAcquireRelease() {
  constexpr int kOwners = 16;
  constexpr int kRounds = 4096;
  return NsPerOp([] {
    sim::Simulator sim;
    ccsim::lock::LockManager locks(&sim);
    for (ccsim::lock::OwnerId owner = 1; owner <= kOwners; ++owner) {
      sim.Spawn(Locker(sim, locks, owner, kRounds));
    }
    sim.Run(sim::Ticks{1} << 40);
    sim.Shutdown();
    return std::uint64_t{kOwners} * kRounds;
  });
}

/// Client cache churn: a 100-page cache over 200 pages; a miss inserts
/// (evicting the LRU page). One operation is one touch, plus its insert.
double CacheTouchInsert() {
  constexpr int kOps = 1 << 20;
  return NsPerOp([] {
    ccsim::client::ClientCache cache(100);
    sim::Pcg32 rng(1, 2);
    for (int i = 0; i < kOps; ++i) {
      const auto page = static_cast<ccsim::db::PageId>(rng.UniformInt(0, 199));
      if (cache.Touch(page) == nullptr) {
        Keep(cache.Insert(page, ccsim::client::CachedPage{}));
      }
    }
    return std::uint64_t{kOps};
  });
}

ccsim::net::Message TypicalControlMessage() {
  ccsim::net::Message msg;
  msg.type = ccsim::net::MsgType::kReadReply;
  msg.src = ccsim::net::kServerNode;
  msg.dst = 7;
  msg.xact = 1234567;
  msg.request_id = 89;
  msg.seq = 4242;
  for (int i = 0; i < 4; ++i) {
    msg.pages.push_back(100 + i);
    msg.versions.push_back(1000 + i);
  }
  return msg;
}

/// Wire codec round trip of a read-reply-sized control message into reused
/// buffers.
double EncodeDecode() {
  constexpr int kOps = 1 << 18;
  const ccsim::net::Message msg = TypicalControlMessage();
  return NsPerOp([&msg] {
    std::vector<std::uint8_t> frame;
    ccsim::net::Message decoded;
    std::string error;
    for (int i = 0; i < kOps; ++i) {
      frame.clear();
      ccsim::substrate::EncodeMessage(msg, 0, &frame);
      const bool ok = ccsim::substrate::DecodeMessage(
          frame.data() + 4, frame.size() - 4, 0, &decoded, &error);
      Keep(ok);
      Keep(decoded.seq);
    }
    return std::uint64_t{kOps};
  });
}

/// The inbound channel's ring: reserve, fill, publish, read, pop.
double SpscPushPop() {
  constexpr int kOps = 1 << 21;
  const ccsim::net::Message msg = TypicalControlMessage();
  return NsPerOp([&msg] {
    ccsim::util::SpscRing<ccsim::net::Message> ring(1024);
    for (int i = 0; i < kOps; ++i) {
      ccsim::net::Message* slot = ring.TryReserve();
      *slot = msg;
      ring.Publish();
      Keep(ring.Front().seq);
      ring.Pop();
    }
    return std::uint64_t{kOps};
  });
}

sim::Process Ticker(sim::Simulator& sim, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await sim.Delay(1);
  }
}

/// The kernel's dominant path with 64 pending processes: one co_await
/// Delay is one calendar push plus one pop-and-resume.
double DelayResume() {
  constexpr int kProcs = 64;
  constexpr int kSteps = 1 << 14;
  return NsPerOp([] {
    sim::Simulator sim;
    for (int p = 0; p < kProcs; ++p) {
      sim.Spawn(Ticker(sim, kSteps));
    }
    sim.Run(sim::Ticks{1} << 40);
    return std::uint64_t{kProcs} * kSteps;
  });
}

/// The checker's commit feed in synchronous mode (the oracle's graph work
/// inline): a serial history of commits, each reading 8 of 2000 pages at
/// their latest versions and writing 2 of them.
double CheckerOnCommit() {
  constexpr int kCommits = 1 << 13;
  constexpr int kPages = 2000;
  return NsPerOp([] {
    ccsim::check::Checker::Options options;
    options.pipelined = false;
    ccsim::check::Checker checker(nullptr, options);
    std::vector<std::uint64_t> latest(kPages, 1);
    sim::Pcg32 rng(3, 4);
    std::vector<ccsim::check::PageVersion> reads;
    std::vector<ccsim::check::PageVersion> writes;
    for (int i = 0; i < kCommits; ++i) {
      reads.clear();
      writes.clear();
      // Eight distinct pages: a random start and a stride coprime to 2000.
      const auto start = rng.UniformInt(0, kPages - 1);
      for (int r = 0; r < 8; ++r) {
        const auto page = static_cast<ccsim::db::PageId>((start + 7 * r) %
                                                         kPages);
        reads.emplace_back(page, latest[static_cast<std::size_t>(page)]);
      }
      for (int w = 0; w < 2; ++w) {
        const ccsim::db::PageId page =
            reads[static_cast<std::size_t>(w)].first;
        writes.emplace_back(page, ++latest[static_cast<std::size_t>(page)]);
      }
      checker.OnCommit(i % 20, static_cast<std::uint64_t>(i) + 1, i, reads,
                       writes);
    }
    checker.Finish();
    return std::uint64_t{kCommits};
  });
}

}  // namespace

void RunLayerProbes(Report* report) {
  report->Add("lock.acquire_release_ns", LockAcquireRelease(), "ns");
  report->Add("client.cache_touch_insert_ns", CacheTouchInsert(), "ns");
  report->Add("substrate.encode_decode_ns", EncodeDecode(), "ns");
  report->Add("util.spsc_push_pop_ns", SpscPushPop(), "ns");
  report->Add("sim.delay_resume_ns", DelayResume(), "ns");
  report->Add("check.on_commit_ns", CheckerOnCommit(), "ns");
}

}  // namespace perfbench
