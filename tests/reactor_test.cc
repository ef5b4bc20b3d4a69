// The real substrate's reactor: one epoll loop per node owns every socket
// of that node, decodes inbound frames on the loop thread, and keeps
// calendar timers firing under load.
//
//   - a loopback ServerNode + ClientShard pair runs on exactly two threads
//     besides the caller (no reader or acceptor threads);
//   - a peer flooding frames cannot starve a timer on the same loop (the
//     per-connection read budget hands control back to the calendar);
//   - the wire codec's bytes are pinned (golden frame) and every
//     truncation of a frame is rejected;
//   - the real substrate's memory does not grow with commits.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/params.h"
#include "net/message.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "substrate/node.h"
#include "substrate/realtime.h"
#include "substrate/tcp.h"
#include "substrate/wire.h"

namespace ccsim {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr sim::Ticks kForever = std::numeric_limits<sim::Ticks>::max() / 4;

int ThreadsInProcess() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return -1;
  }
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++count;
    }
  }
  ::closedir(dir);
  return count;
}

/// Resident set size in KiB (VmRSS), or -1.
long RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// One in-process loopback deployment, wired like perfbench's real-2pl:
/// a ServerNode and one ClientShard over TCP, 2PL, zero think time. The
/// caller installs the shard's inbound filter, then calls Run().
class LoopbackPair {
 public:
  explicit LoopbackPair(int clients)
      : cfg_(MakeConfig(clients)), server_(cfg_, 3),
        shard_(cfg_, 3, 0, clients) {
    std::string error;
    const substrate::Hello hello = substrate::MakeHello(cfg_);
    server_wire_ = substrate::TcpServerTransport::Listen(
        0, hello, &server_.substrate(), &error);
    EXPECT_NE(server_wire_, nullptr) << error;
    substrate::TcpServerTransport* st = server_wire_.get();
    server_.network().set_transport(st);
    server_.substrate().set_flush_hook([st] { return st->Flush(); });
    server_.Start();
    server_thread_ = std::thread([this] { server_.RunLoop(kForever); });
    substrate::Hello shard_hello = hello;
    shard_hello.client_lo = 0;
    shard_hello.client_hi = clients;
    client_wire_ = substrate::TcpClientTransport::Connect(
        "127.0.0.1", server_wire_->port(), shard_hello, &shard_.substrate(),
        &error);
    EXPECT_NE(client_wire_, nullptr) << error;
    if (client_wire_ != nullptr) {
      substrate::TcpClientTransport* ct = client_wire_.get();
      shard_.network().set_transport(ct);
      shard_.substrate().set_flush_hook([ct] { return ct->Flush(); });
    }
  }

  ~LoopbackPair() {
    if (client_wire_ != nullptr) {
      client_wire_->Close();
    }
    server_.substrate().Stop();
    server_thread_.join();
    server_wire_->Close();
  }

  bool connected() const { return client_wire_ != nullptr; }
  substrate::ClientShard& shard() { return shard_; }

  /// Runs the shard loop on its own thread until it stops or `seconds`
  /// pass, and joins it.
  void Run(double seconds) {
    shard_.Start();
    std::thread loop(
        [this, seconds] { shard_.RunLoop(0, sim::SecondsToTicks(seconds)); });
    loop.join();
  }

 private:
  static config::ExperimentConfig MakeConfig(int clients) {
    config::ExperimentConfig cfg = config::BaseConfig();
    cfg.system.num_clients = clients;
    cfg.algorithm.algorithm = config::Algorithm::kTwoPhaseLocking;
    cfg.transaction.update_delay_s = 0;
    cfg.transaction.internal_delay_s = 0;
    cfg.transaction.external_delay_s = 0;
    return substrate::RawSpeedConfig(cfg);
  }

  config::ExperimentConfig cfg_;
  substrate::ServerNode server_;
  substrate::ClientShard shard_;
  std::unique_ptr<substrate::TcpServerTransport> server_wire_;
  std::unique_ptr<substrate::TcpClientTransport> client_wire_;
  std::thread server_thread_;
};

bool IsCommit(const net::Message& msg) {
  return msg.type == net::MsgType::kCommitReply && !msg.aborted;
}

TEST(ReactorTest, LoopbackPairRunsTwoThreadsBesidesTheCaller) {
  // The caller, plus whatever the runtime keeps (a sanitizer starts a
  // background thread at the first thread creation, so one is made and
  // joined first).
  std::thread([] {}).join();
  const int before = ThreadsInProcess();
  LoopbackPair pair(8);
  ASSERT_TRUE(pair.connected());
  std::uint64_t commits = 0;
  int threads = 0;
  substrate::RealtimeSubstrate* shard_loop = &pair.shard().substrate();
  // Counted on the shard loop thread once traffic flows: the caller is
  // blocked joining the shard thread, the server loop is serving.
  pair.shard().InstallInboundFilter([&](const net::Message& msg) {
    if (IsCommit(msg) && ++commits == 200) {
      threads = ThreadsInProcess();
      shard_loop->Stop();
    }
    return true;
  });
  // The shard loop runs on a thread of its own; before it starts, only
  // the server loop has been added.
  EXPECT_EQ(ThreadsInProcess(), before + 1);
  pair.Run(60.0);
  ASSERT_GE(commits, 200u);
  EXPECT_EQ(threads, before + 2) << "server loop + shard loop";
}

TEST(ReactorTest, FloodingPeerCannotStarveATimer) {
  sim::Simulator sim;
  substrate::RealtimeSubstrate loop(&sim);
  // Loop thread only: frames received, and the timer's due time and
  // firing time. The timer is armed once the flood is under way, 20 ms
  // ahead.
  constexpr std::uint64_t kFloodUnderWay = 1000;
  constexpr sim::Ticks kDelay = 20'000;
  std::uint64_t received = 0;
  sim::Ticks due = -1;
  sim::Ticks fired_at = -1;
  std::uint64_t received_by_timer = 0;
  loop.set_message_sink([&](net::MessagePtr) {
    if (++received == kFloodUnderWay) {
      due = loop.WallTicks() + kDelay;
      sim.ScheduleAt(due, [&] {
        fired_at = loop.WallTicks();
        received_by_timer = received;
        loop.Stop();
      });
    }
  });
  substrate::Hello hello;
  hello.total_pages = 1000;
  hello.num_clients = 1;
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(0, hello, &loop, &error);
  ASSERT_NE(server, nullptr) << error;

  // Raw peer: handshake, then small frames back to back as fast as the
  // kernel takes them, until the test ends (at most 20 s).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  substrate::Hello client_hello = hello;
  client_hello.client_hi = 1;
  std::vector<std::uint8_t> burst;
  substrate::EncodeHello(client_hello, &burst);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  burst.clear();
  net::Message msg;
  msg.type = net::MsgType::kNoWaitLock;
  msg.src = 0;
  msg.dst = net::kServerNode;
  while (burst.size() < 256 * 1024) {
    substrate::EncodeMessage(msg, 0, &burst);
  }
  std::atomic<bool> stop_flood{false};
  std::thread flooder([&] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!stop_flood.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < until) {
      if (::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL) < 0) {
        break;
      }
    }
  });

  loop.Run(30 * sim::kTicksPerSecond);
  stop_flood.store(true, std::memory_order_relaxed);
  server->Close();  // the flooder's next send fails
  flooder.join();
  ::close(fd);

  ASSERT_GE(due, 0) << "no flood reached the loop";
  ASSERT_GE(fired_at, due) << "the timer never fired";
  EXPECT_LT(fired_at - due, 500'000) << "the flood delayed the timer";
  EXPECT_GT(received_by_timer, kFloodUnderWay)
      << "the flood stopped before the timer was due";
}

// The mechanism behind the test above: one Receive() takes at most the
// read budget from the kernel, however much the peer has queued, and the
// rest comes out on later passes.
TEST(ReactorTest, ReceiveStopsAtTheReadBudget) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // A receive queue that can hold more than one budget (inherited by the
  // accepted socket), so a pass has more to read than it may take.
  const int rcvbuf = 2 * 1024 * 1024;
  ::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const int sender = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(sender, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const int accepted = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
  ASSERT_GE(accepted, 0);
  ::close(listener);
  substrate::Connection conn{substrate::ScopedFd(accepted)};

  net::Message msg;
  msg.type = net::MsgType::kNoWaitLock;
  std::vector<std::uint8_t> frame;
  substrate::EncodeMessage(msg, 0, &frame);
  std::vector<std::uint8_t> burst;
  while (burst.size() < 64 * 1024) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  // Queue several budgets' worth: the sender blocks once the kernel
  // buffers are full, so it writes from a thread of its own.
  constexpr std::size_t kQueued = 4 * substrate::Connection::kReadBudget;
  std::size_t sent = 0;
  std::thread writer([&] {
    while (sent < kQueued) {
      const ssize_t n =
          ::send(sender, burst.data(), burst.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
  });
  // Wait until more than a budget is readable, then take one pass.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<std::uint8_t> peek(substrate::Connection::kReadBudget + 1);
  while (::recv(accepted, peek.data(), peek.size(), MSG_PEEK | MSG_WAITALL) <
             static_cast<ssize_t>(peek.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(conn.Receive());
  const std::uint8_t* body = nullptr;
  std::uint32_t len = 0;
  std::size_t bytes = 0;
  while (conn.NextFrame(&body, &len) ==
         substrate::FrameSplitter::Next::kFrame) {
    bytes += 4 + len;
  }
  EXPECT_GT(bytes, 0u);
  EXPECT_LE(bytes, substrate::Connection::kReadBudget)
      << "one pass read past its budget";
  // The rest was left in the kernel, not lost: later passes take it.
  std::size_t total = bytes;
  while (total < kQueued && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(conn.Receive());
    while (conn.NextFrame(&body, &len) ==
           substrate::FrameSplitter::Next::kFrame) {
      total += 4 + len;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  writer.join();
  EXPECT_GE(total, kQueued);
  ::close(sender);
}

// A message with all ten lists filled, encoded by the byte-at-a-time
// encoder this codec replaced (same fields, same order, little-endian).
constexpr char kGoldenFrameHex[] =
    "ab0000000205000000ffffffffefcdab89674523011032547698badcfe4d0000000000"
    "00000300000001030200000001000000feffffff020000000a00000000000000ffffff"
    "ffff0000000100000003000000010000001e0000000000000003000000040000000500"
    "00000600000001000000070000000100000046000000000000000200000008000000"
    "0900000001000000a086010001000000ffffffff0000000000000000000000000000"
    "0000";

net::Message GoldenMessage() {
  net::Message m;
  m.type = net::MsgType::kCommitRequest;
  m.src = 5;
  m.dst = net::kServerNode;
  m.xact = 0x0123456789abcdefULL;
  m.request_id = 0xfedcba9876543210ULL;
  m.seq = 77;
  m.incarnation = 3;
  m.mode = lock::LockMode::kExclusive;
  m.aborted = true;
  m.invalidate = true;
  m.pages = {1, -2};
  m.versions = {10, 0xffffffffffULL};
  m.data_pages = {3};
  m.data_versions = {30};
  m.fetch_pages = {4, 5, 6};
  m.read_set = {7};
  m.read_versions = {70};
  m.updated_set = {8, 9};
  m.released_pages = {100000};
  m.evicted_pages = {-1};
  return m;
}

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(WireCodecTest, EncodesTheGoldenFrame) {
  constexpr std::uint32_t kPayload = 16;
  const net::Message msg = GoldenMessage();
  std::vector<std::uint8_t> frame;
  substrate::EncodeMessage(msg, kPayload, &frame);
  EXPECT_EQ(Hex(frame), kGoldenFrameHex);

  // The batched path writes the same control bytes; the payload travels
  // as a separate zero run.
  substrate::FrameBuffer buffer;
  buffer.AppendMessage(msg, kPayload);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(buffer.Flush(fds[0]), substrate::FrameBuffer::FlushResult::kDone);
  std::vector<std::uint8_t> sent(frame.size());
  ASSERT_EQ(::recv(fds[1], sent.data(), sent.size(), MSG_WAITALL),
            static_cast<ssize_t>(sent.size()));
  EXPECT_EQ(sent, frame);
  ::close(fds[0]);
  ::close(fds[1]);

  net::Message decoded;
  std::string error;
  ASSERT_TRUE(substrate::DecodeMessage(frame.data() + 4, frame.size() - 4,
                                       kPayload, &decoded, &error))
      << error;
  EXPECT_EQ(decoded.xact, msg.xact);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.src, msg.src);
  EXPECT_EQ(decoded.dst, msg.dst);
  EXPECT_EQ(decoded.mode, msg.mode);
  EXPECT_TRUE(decoded.aborted && decoded.invalidate);
  EXPECT_EQ(decoded.pages, msg.pages);
  EXPECT_EQ(decoded.versions, msg.versions);
  EXPECT_EQ(decoded.fetch_pages, msg.fetch_pages);
  EXPECT_EQ(decoded.read_versions, msg.read_versions);
  EXPECT_EQ(decoded.released_pages, msg.released_pages);
  EXPECT_EQ(decoded.evicted_pages, msg.evicted_pages);
}

TEST(WireCodecTest, RejectsEveryTruncationAndOverlongCounts) {
  constexpr std::uint32_t kPayload = 16;
  std::vector<std::uint8_t> frame;
  substrate::EncodeMessage(GoldenMessage(), kPayload, &frame);
  const std::uint8_t* body = frame.data() + 4;
  const std::size_t len = frame.size() - 4;
  std::string error;
  for (std::size_t cut = 0; cut < len; ++cut) {
    net::Message out;
    EXPECT_FALSE(substrate::DecodeMessage(body, cut, kPayload, &out, &error))
        << "a body cut at " << cut << " of " << len << " decoded";
  }
  // A list count past the end of the body is a truncation, not a read
  // out of bounds. The `pages` count sits right after the 39-byte header.
  std::vector<std::uint8_t> bad(body, body + len);
  bad[39] = 0xff;
  net::Message out;
  EXPECT_FALSE(substrate::DecodeMessage(bad.data(), bad.size(), kPayload,
                                        &out, &error));
  EXPECT_EQ(error, "truncated message lists");
}

TEST(RealSubstrateSoakTest, RssStaysFlatAsCommitsGrow) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer allocators hold freed memory";
  }
  // RSS after N commits must stay within a fixed bound of RSS after N/4:
  // nothing the server or the clients keep may grow per commit. (A leak
  // of ~0.8 KB per finished transaction grows it by ~19 MB here.)
  constexpr std::uint64_t kCommits = 32000;
  constexpr long kBoundKb = 4 * 1024;
  LoopbackPair pair(8);
  ASSERT_TRUE(pair.connected());
  std::uint64_t commits = 0;
  long rss_quarter = -1;
  long rss_full = -1;
  substrate::RealtimeSubstrate* shard_loop = &pair.shard().substrate();
  pair.shard().InstallInboundFilter([&](const net::Message& msg) {
    if (!IsCommit(msg)) {
      return true;
    }
    ++commits;
    if (commits == kCommits / 4) {
      rss_quarter = RssKb();
    } else if (commits == kCommits) {
      rss_full = RssKb();
      shard_loop->Stop();
    }
    return true;
  });
  pair.Run(120.0);
  ASSERT_GE(commits, kCommits) << "the soak did not reach its commits";
  ASSERT_GT(rss_quarter, 0);
  EXPECT_LT(rss_full - rss_quarter, kBoundKb)
      << "RSS grew from " << rss_quarter << " KiB at " << kCommits / 4
      << " commits to " << rss_full << " KiB at " << kCommits;
}

}  // namespace
}  // namespace ccsim
