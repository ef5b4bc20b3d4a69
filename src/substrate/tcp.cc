#include "substrate/tcp.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsim::substrate {
namespace {

/// Bytes asked of each recv(): big enough that a busy socket yields
/// dozens of frames per syscall.
constexpr std::size_t kReadChunk = 128 * 1024;

/// recv() exactly `len` bytes (retrying short reads and EINTR). Returns
/// false on EOF or a hard error.
bool ReadExact(int fd, std::uint8_t* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, buf + done, len - done, 0);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // EOF or error
  }
  return true;
}

ScopedFd NewTcpSocket(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return ScopedFd();
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ScopedFd(fd);
}

/// Resolves an IPv4 literal or hostname (getaddrinfo), so ccload/ccserve
/// can cross real hosts, not just loopback.
bool ResolveV4(const std::string& host, in_addr* out) {
  if (host.empty() || host == "localhost") {
    out->s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  if (::inet_pton(AF_INET, host.c_str(), out) == 1) {
    return true;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return false;
  }
  *out = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return true;
}

/// Exchange validation shared by both ends: the per-run parameters both
/// sides derive state from must agree, or page ids and protocol actions
/// would silently mean different things.
bool HellosCompatible(const Hello& mine, const Hello& theirs,
                      std::string* error) {
  if (theirs.algorithm != mine.algorithm || theirs.caching != mine.caching) {
    *error = "peer runs a different consistency protocol";
    return false;
  }
  if (theirs.total_pages != mine.total_pages) {
    *error = "peer disagrees about the database size";
    return false;
  }
  if (theirs.num_clients != mine.num_clients) {
    *error = "peer disagrees about the total client count";
    return false;
  }
  if (theirs.page_payload_bytes != mine.page_payload_bytes) {
    *error = "peer disagrees about the page size";
    return false;
  }
  return true;
}

/// Blocking send of a whole buffer (Connect's handshake only).
bool WriteAll(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

/// Blocking read of the peer's Hello frame (Connect's handshake only).
/// Reads exactly one frame, so nothing the peer sends after it is
/// consumed here.
bool ReadHello(int fd, Hello* hello, std::string* error) {
  std::uint8_t prefix[4];
  if (!ReadExact(fd, prefix, sizeof(prefix))) {
    *error = "connection closed during handshake";
    return false;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len > kMaxFrameBytes) {
    *error = "oversized handshake frame";
    return false;
  }
  std::vector<std::uint8_t> body(len);
  if (len > 0 && !ReadExact(fd, body.data(), len)) {
    *error = "connection closed during handshake";
    return false;
  }
  return DecodeHello(body.data(), body.size(), hello, error);
}

void SetNonBlocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// Peels every complete frame off `conn`. While `awaiting_hello()` holds a
/// frame is the peer's Hello and goes to `on_hello` (false rejects it);
/// every other frame is decoded into a pooled message and injected into
/// `loop`. Returns false when the connection must be dropped; `*frames`
/// counts the messages injected.
template <typename AwaitingHello, typename OnHello>
bool DrainFrames(Connection* conn, RealtimeSubstrate* loop,
                 std::uint32_t page_payload_bytes, const char* who,
                 AwaitingHello awaiting_hello, OnHello on_hello,
                 std::uint64_t* frames) {
  const std::uint8_t* body = nullptr;
  std::uint32_t len = 0;
  std::string error;
  FrameSplitter::Next state;
  while ((state = conn->NextFrame(&body, &len)) ==
         FrameSplitter::Next::kFrame) {
    if (awaiting_hello()) {
      if (!on_hello(body, len)) {
        return false;
      }
      continue;
    }
    net::MessagePtr msg = net::NewMessage();
    if (!DecodeMessage(body, len, page_payload_bytes, msg.get(), &error)) {
      std::fprintf(stderr, "%s: dropping connection: %s\n", who,
                   error.c_str());
      return false;
    }
    ++*frames;
    loop->Inject(std::move(msg));
  }
  if (state == FrameSplitter::Next::kBad) {
    std::fprintf(stderr, "%s: dropping connection: oversized frame\n", who);
    return false;
  }
  return true;
}

/// Handshake bound for a redial: a server that accepts but never answers
/// must not park the connection forever.
constexpr sim::Ticks kRedialHandshakeTicks = 2 * sim::kTicksPerSecond;
constexpr int kFirstBackoffMs = 20;
constexpr int kMaxBackoffMs = 200;

}  // namespace

void ScopedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Connection::QueueMessage(const net::Message& msg,
                              std::uint32_t page_payload_bytes) {
  if (dead_) {
    return false;
  }
  if (buffer_.pending_bytes() > kMaxBufferedBytes) {
    dead_ = true;
    buffer_.Clear();
    return false;
  }
  buffer_.AppendMessage(msg, page_payload_bytes);
  return true;
}

FrameBuffer::FlushResult Connection::Flush() {
  if (dead_) {
    buffer_.Clear();
    return FrameBuffer::FlushResult::kError;
  }
  const FrameBuffer::FlushResult result = buffer_.Flush(fd_.get());
  if (result == FrameBuffer::FlushResult::kError) {
    dead_ = true;
  }
  return result;
}

bool Connection::Receive() {
  std::size_t budget = kReadBudget;
  while (budget > 0) {
    std::uint8_t* dst = splitter_.WritableData(kReadChunk);
    const std::size_t want = std::min(splitter_.writable_size(), budget);
    const ssize_t n = ::recv(fd_.get(), dst, want, 0);
    if (n > 0) {
      splitter_.CommitBytes(static_cast<std::size_t>(n));
      budget -= static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < want) {
        return true;  // the kernel buffer is drained
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    return false;  // EOF or hard error
  }
  return true;  // budget spent; the rest waits for the next pass
}

void Connection::Abort() {
  dead_ = true;
  // Discard the outbound batch even mid-frame: the peer's splitter is left
  // holding a partial frame, exactly the failure a yanked cable produces.
  buffer_.Clear();
  if (fd_.valid()) {
    // Linger(0) turns the close() into an RST; unread peer data also RSTs
    // on many stacks. Either way the peer sees a hard failure, never a
    // clean EOF that could be mistaken for an orderly goodbye.
    struct linger hard {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  }
}

// --- client ---------------------------------------------------------------

std::unique_ptr<TcpClientTransport> TcpClientTransport::Connect(
    const std::string& host, int port, const Hello& hello,
    RealtimeSubstrate* substrate, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (!ResolveV4(host, &addr.sin_addr)) {
    *error = "cannot resolve host '" + host + "'";
    return nullptr;
  }
  ScopedFd fd = NewTcpSocket(error);
  if (!fd.valid()) {
    return nullptr;
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return nullptr;
  }
  std::vector<std::uint8_t> frame;
  EncodeHello(hello, &frame);
  Hello server_hello;
  if (!WriteAll(fd.get(), frame.data(), frame.size())) {
    *error = "connection closed during handshake";
    return nullptr;
  }
  if (!ReadHello(fd.get(), &server_hello, error) ||
      !HellosCompatible(hello, server_hello, error)) {
    return nullptr;
  }
  SetNonBlocking(fd.get());
  auto conn = std::make_unique<Connection>(std::move(fd));
  conn->set_peer(server_hello);
  return std::unique_ptr<TcpClientTransport>(
      new TcpClientTransport(std::move(conn), substrate, addr, hello));
}

TcpClientTransport::TcpClientTransport(std::unique_ptr<Connection> conn,
                                       RealtimeSubstrate* substrate,
                                       const sockaddr_in& server,
                                       const Hello& hello)
    : conn_(std::move(conn)), substrate_(substrate), server_(server),
      hello_(hello) {
  watch_ = substrate_->Watch(conn_->fd(), EPOLLIN, this);
}

TcpClientTransport::~TcpClientTransport() { Close(); }

void TcpClientTransport::OnReady(std::uint32_t events) {
  if (state_ == State::kConnecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(conn_->fd(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
      DialFailed();
      return;
    }
    // Connected: the Hello queued at the head of the batch goes out, then
    // the server's Hello is awaited.
    state_ = State::kAwaitingHello;
    substrate_->Modify(watch_, conn_->fd(), EPOLLIN);
    if (conn_->Flush() == FrameBuffer::FlushResult::kError) {
      DialFailed();
    }
    return;
  }
  const bool open = conn_->Receive();
  std::uint64_t frames = 0;
  const bool ok = DrainFrames(
      conn_.get(), substrate_, hello_.page_payload_bytes, "ccload",
      [this] { return state_ == State::kAwaitingHello; },
      [this](const std::uint8_t* body, std::uint32_t len) {
        return AcceptServerHello(body, len);
      },
      &frames);
  if (!ok || !open) {
    if (state_ == State::kAwaitingHello) {
      DialFailed();
    } else {
      ConnectionLost();
    }
  }
}

bool TcpClientTransport::AcceptServerHello(const std::uint8_t* body,
                                           std::uint32_t len) {
  Hello server_hello;
  std::string error;
  if (!DecodeHello(body, len, &server_hello, &error) ||
      !HellosCompatible(hello_, server_hello, &error)) {
    std::fprintf(stderr, "ccload: redial rejected: %s\n", error.c_str());
    return false;
  }
  conn_->set_peer(server_hello);
  state_ = State::kLive;
  backoff_ms_ = 0;
  ++reconnects_;
  return true;
}

void TcpClientTransport::DropSocket() {
  if (watch_ >= 0) {
    substrate_->Unwatch(watch_, conn_->fd());
    watch_ = -1;
  }
  conn_->MarkDead();
  conn_->CloseSocket();
}

void TcpClientTransport::ConnectionLost() {
  DropSocket();
  state_ = State::kDown;
  if (reconnect_ && !closing_) {
    Redial();
  }
}

void TcpClientTransport::Redial() {
  std::string error;
  ScopedFd fd = NewTcpSocket(&error);
  if (!fd.valid()) {
    DialFailed();
    return;
  }
  SetNonBlocking(fd.get());
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&server_),
                sizeof(server_)) != 0 &&
      errno != EINPROGRESS) {
    DialFailed();
    return;
  }
  // A fresh Connection (fresh FrameSplitter): a frame cut on the old one
  // cannot corrupt the new stream's framing.
  conn_ = std::make_unique<Connection>(std::move(fd));
  conn_->QueueHello(hello_);
  state_ = State::kConnecting;
  watch_ = substrate_->Watch(conn_->fd(), EPOLLOUT, this);
  const std::uint64_t attempt = ++dial_attempt_;
  substrate_->sim().ScheduleAt(
      substrate_->WallTicks() + kRedialHandshakeTicks, [this, attempt] {
        if (dial_attempt_ == attempt && state_ != State::kLive &&
            state_ != State::kDown) {
          DialFailed();
        }
      });
}

void TcpClientTransport::DialFailed() {
  if (conn_->fd() >= 0) {
    DropSocket();
  }
  state_ = State::kDown;
  ++dial_attempt_;  // voids the pending handshake timeout
  if (closing_) {
    return;
  }
  backoff_ms_ = backoff_ms_ == 0 ? kFirstBackoffMs
                                 : std::min(backoff_ms_ * 2, kMaxBackoffMs);
  substrate_->sim().ScheduleAt(
      substrate_->WallTicks() + sim::MillisToTicks(backoff_ms_),
      [this] { Redial(); });
}

void TcpClientTransport::AbortConnection() {
  if (state_ != State::kLive) {
    return;
  }
  conn_->Abort();
  ConnectionLost();
}

void TcpClientTransport::Deliver(const net::Message& msg) {
  if (state_ != State::kLive ||
      !conn_->QueueMessage(msg, hello_.page_payload_bytes)) {
    ++disconnected_drops_;
  }
}

bool TcpClientTransport::Flush() {
  if (state_ == State::kConnecting || state_ == State::kDown ||
      !conn_->has_pending()) {
    return true;
  }
  return conn_->Flush() != FrameBuffer::FlushResult::kAgain;
}

void TcpClientTransport::Close() {
  closing_ = true;
  if (conn_ != nullptr && conn_->fd() >= 0) {
    DropSocket();
  }
  state_ = State::kDown;
}

// --- server ---------------------------------------------------------------

std::unique_ptr<TcpServerTransport> TcpServerTransport::Listen(
    int port, const Hello& hello, RealtimeSubstrate* substrate,
    std::string* error, const std::string& bind_host) {
  ScopedFd fd = NewTcpSocket(error);
  if (!fd.valid()) {
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (bind_host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (!ResolveV4(bind_host, &addr.sin_addr)) {
    *error = "cannot resolve bind address '" + bind_host + "'";
    return nullptr;
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    return nullptr;
  }
  if (::listen(fd.get(), 64) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return nullptr;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return nullptr;
  }
  SetNonBlocking(fd.get());
  const int bound_port = ntohs(addr.sin_port);
  return std::unique_ptr<TcpServerTransport>(
      new TcpServerTransport(std::move(fd), bound_port, hello, substrate));
}

TcpServerTransport::TcpServerTransport(ScopedFd listen_fd, int port,
                                       const Hello& hello,
                                       RealtimeSubstrate* substrate)
    : listen_fd_(std::move(listen_fd)), port_(port), hello_(hello),
      substrate_(substrate) {
  routes_.resize(hello_.num_clients > 0 ? hello_.num_clients : 0);
  listen_watch_ = substrate_->Watch(listen_fd_.get(), EPOLLIN, this);
}

TcpServerTransport::~TcpServerTransport() { Close(); }

void TcpServerTransport::OnReady(std::uint32_t /*events*/) {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // EAGAIN: nothing more pending (or the listener failed)
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Peer* peer =
        peers_.emplace_back(std::make_unique<Peer>(this, ScopedFd(fd)))
            .get();
    peer->watch = substrate_->Watch(fd, EPOLLIN, peer);
  }
}

void TcpServerTransport::Peer::OnReady(std::uint32_t /*events*/) {
  owner->OnPeerReady(this);
}

void TcpServerTransport::OnPeerReady(Peer* peer) {
  const bool open = peer->conn.Receive();
  std::uint64_t frames = 0;
  const bool ok = DrainFrames(
      &peer->conn, substrate_, hello_.page_payload_bytes, "ccserve",
      [peer] { return !peer->greeted; },
      [this, peer](const std::uint8_t* body, std::uint32_t len) {
        return Greet(peer, body, len);
      },
      &frames);
  if (frames > 0) {
    frames_received_.fetch_add(frames, std::memory_order_relaxed);
  }
  if (!ok || !open) {
    ClosePeer(peer);
  }
}

bool TcpServerTransport::Greet(Peer* peer, const std::uint8_t* body,
                               std::uint32_t len) {
  Hello client_hello;
  std::string error;
  if (!DecodeHello(body, len, &client_hello, &error) ||
      !HellosCompatible(hello_, client_hello, &error)) {
    std::fprintf(stderr, "ccserve: rejected connection: %s\n", error.c_str());
    return false;
  }
  if (client_hello.client_lo < 0 ||
      client_hello.client_hi <= client_hello.client_lo ||
      client_hello.client_hi > hello_.num_clients) {
    std::fprintf(stderr,
                 "ccserve: rejected connection: client range [%d, %d) "
                 "outside the configured 0..%d\n",
                 client_hello.client_lo, client_hello.client_hi,
                 hello_.num_clients);
    return false;
  }
  for (int id = client_hello.client_lo; id < client_hello.client_hi; ++id) {
    if (routes_[id] != nullptr && !routes_[id]->conn.dead()) {
      std::fprintf(stderr,
                   "ccserve: rejected connection: client id %d already "
                   "connected\n",
                   id);
      return false;
    }
  }
  // Publish the routes, then queue the Hello reply at the head of the
  // batch: once the client's Connect() returns (it has read the reply) the
  // server can route to it, and anything routed to it follows the reply.
  peer->conn.set_peer(client_hello);
  peer->greeted = true;
  for (int id = client_hello.client_lo; id < client_hello.client_hi; ++id) {
    routes_[id] = peer;
  }
  peer->conn.QueueHello(hello_);
  if (peer->conn.Flush() == FrameBuffer::FlushResult::kAgain) {
    dirty_.push_back(peer);  // nothing was queued before the reply
  }
  if (peer->conn.dead()) {
    return false;
  }
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TcpServerTransport::ClosePeer(Peer* peer) {
  if (peer->closed) {
    return;
  }
  peer->closed = true;
  sweep_ = true;
  peer->conn.MarkDead();
  if (peer->greeted) {
    const Hello& h = peer->conn.peer();
    for (int id = h.client_lo; id < h.client_hi; ++id) {
      if (routes_[id] == peer) {
        routes_[id] = nullptr;
      }
    }
  }
  substrate_->Unwatch(peer->watch, peer->conn.fd());
  peer->conn.CloseSocket();
}

void TcpServerTransport::Deliver(const net::Message& msg) {
  Peer* peer = msg.dst >= 0 && msg.dst < static_cast<int>(routes_.size())
                   ? routes_[msg.dst]
                   : nullptr;
  const bool was_pending = peer != nullptr && peer->conn.has_pending();
  if (peer == nullptr ||
      !peer->conn.QueueMessage(msg, hello_.page_payload_bytes)) {
    // The destination hung up (a finished or killed load run): the message
    // dies like mail to a crashed workstation.
    unroutable_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!was_pending) {
    dirty_.push_back(peer);
  }
}

bool TcpServerTransport::Flush() {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    // A dead connection still flushes, which discards its batch.
    if (dirty_[i]->conn.Flush() == FrameBuffer::FlushResult::kAgain) {
      dirty_[keep++] = dirty_[i];
    }
  }
  dirty_.resize(keep);
  if (sweep_) {
    // Closed peers are dead, so none is left in dirty_ after the pass.
    std::erase_if(peers_, [](const std::unique_ptr<Peer>& peer) {
      return peer->closed;
    });
    sweep_ = false;
  }
  return dirty_.empty();
}

void TcpServerTransport::SeverAll() {
  for (const std::unique_ptr<Peer>& peer : peers_) {
    if (!peer->closed) {
      peer->conn.Abort();
      ClosePeer(peer.get());
    }
  }
}

void TcpServerTransport::SeverClient(int id) {
  if (id >= 0 && id < static_cast<int>(routes_.size()) &&
      routes_[id] != nullptr) {
    Peer* peer = routes_[id];
    peer->conn.Abort();
    ClosePeer(peer);
  }
}

bool TcpServerTransport::DrainOrPoison(double seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!Flush()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      // The peers still attached here have not drained within the grace
      // period: poison them so they observe a failed connection, never a
      // silently truncated stream passed off as success.
      for (Peer* peer : dirty_) {
        peer->conn.Abort();
        ClosePeer(peer);
      }
      dirty_.clear();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void TcpServerTransport::Close() {
  if (listen_watch_ >= 0) {
    substrate_->Unwatch(listen_watch_, listen_fd_.get());
    listen_watch_ = -1;
  }
  listen_fd_.Reset();
  for (const std::unique_ptr<Peer>& peer : peers_) {
    ClosePeer(peer.get());
  }
  dirty_.clear();
  peers_.clear();
}

}  // namespace ccsim::substrate
