#ifndef CCSIM_SUBSTRATE_TCP_H_
#define CCSIM_SUBSTRATE_TCP_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "substrate/realtime.h"
#include "substrate/wire.h"

namespace ccsim::substrate {

/// Owning POSIX file descriptor.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Reset(); }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

/// One framed TCP connection, owned by one loop thread: a non-blocking
/// socket, its peer's Hello, the outbound frame batch and the inbound
/// frame splitter. Outbound messages batch into a FrameBuffer and reach
/// the kernel in one vectored, non-blocking sendmsg per flush; inbound
/// bytes are received at readiness events, up to a read budget, and
/// peeled into frames in place.
class Connection {
 public:
  /// Pending outbound bytes past this mark poison the connection: the
  /// peer has stalled for so long it is treated as departed.
  static constexpr std::size_t kMaxBufferedBytes = 64u * 1024u * 1024u;
  /// Bytes received per readiness event. A peer sending faster than the
  /// loop decodes leaves the rest in the kernel buffer (where TCP flow
  /// control pushes back on it), so calendar events keep firing.
  static constexpr std::size_t kReadBudget = 256u * 1024u;

  explicit Connection(ScopedFd fd) : fd_(std::move(fd)) {}

  /// Encodes one Message frame into the outbound batch. Returns false
  /// once the peer is gone (dead or hopelessly backlogged); the message
  /// is dropped like mail to a crashed workstation.
  bool QueueMessage(const net::Message& msg,
                    std::uint32_t page_payload_bytes);

  /// Queues this side's Hello. Handshakes queue it before any message, so
  /// it is the first frame on the stream.
  void QueueHello(const Hello& hello) { buffer_.AppendHello(hello); }

  /// Pushes the batch to the kernel without blocking. kAgain leaves the
  /// remainder queued for the next flush; kError marks the peer dead.
  FrameBuffer::FlushResult Flush();

  bool has_pending() const { return buffer_.has_pending(); }

  /// Receives what the kernel holds, at most kReadBudget bytes, for
  /// NextFrame() to peel. Returns false once the peer hung up or the
  /// socket failed (frames received before that still come out).
  bool Receive();

  /// The next complete inbound frame body (valid until the next
  /// Receive()); kBad means the stream is corrupt.
  FrameSplitter::Next NextFrame(const std::uint8_t** body,
                                std::uint32_t* len) {
    return splitter_.NextFrame(body, len);
  }

  void MarkDead() { dead_ = true; }

  /// Hard kill: poisons the connection, discards any partially-flushed
  /// outbound batch (the peer sees a frame cut mid-stream), and arms
  /// SO_LINGER(0) so closing the socket RSTs instead of FIN-ing.
  void Abort();

  /// Closes the socket (after the owner unwatched it).
  void CloseSocket() { fd_.Reset(); }

  int fd() const { return fd_.get(); }
  bool dead() const { return dead_; }
  const Hello& peer() const { return peer_; }
  void set_peer(const Hello& hello) { peer_ = hello; }

 private:
  ScopedFd fd_;
  Hello peer_{};
  FrameBuffer buffer_;
  FrameSplitter splitter_;
  bool dead_ = false;
};

/// Client side of the wire: one connection from a load-generator shard to
/// the page server. Installed as the shard Network's Transport, it queues
/// every outbound message into the connection's frame batch (flushed at
/// each calendar-step boundary via Flush()); the shard's loop thread
/// decodes inbound frames straight into pooled messages.
class TcpClientTransport : public net::Transport, private IoHandler {
 public:
  /// Connects and exchanges Hellos on the calling thread (blocking),
  /// validates the server against `hello` (algorithm, database size,
  /// client-id range), then registers the socket with `substrate`'s loop.
  /// Call while that loop is not running. `host` may be an IPv4 literal or
  /// a resolvable hostname. Returns nullptr with `error` set on any
  /// failure.
  static std::unique_ptr<TcpClientTransport> Connect(
      const std::string& host, int port, const Hello& hello,
      RealtimeSubstrate* substrate, std::string* error);

  ~TcpClientTransport() override;

  /// net::Transport: called on the shard loop thread.
  void Deliver(const net::Message& msg) override;

  /// net::Transport: flushes the outbound batch (shard loop thread).
  bool Flush() override;

  /// Unregisters and closes the socket. Call after the shard loop has
  /// stopped (and before the substrate is destroyed).
  void Close();

  /// Opts in to redial-on-disconnect: when the connection is lost the
  /// loop re-dials the server without blocking (fresh handshake, fresh
  /// FrameSplitter), retrying with 20 -> 200 ms backoff. Off by default
  /// so fault-free runs keep fail-stop semantics; wiring enables it only
  /// when recovery is on. Call before the loop starts.
  void EnableReconnect() { reconnect_ = true; }

  /// Hard partition: kills the current connection mid-frame (RST). With
  /// reconnect enabled the loop redials; messages queued in between are
  /// counted as disconnected drops. Shard-loop-thread only.
  void AbortConnection();

  /// Successful redials after a lost connection (read after the loop).
  std::uint64_t reconnects() const { return reconnects_; }
  /// Outbound messages dropped while no live connection existed (read
  /// after the loop).
  std::uint64_t disconnected_drops() const { return disconnected_drops_; }

 private:
  /// Where the current connection stands: live, or one step of a redial.
  enum class State { kLive, kConnecting, kAwaitingHello, kDown };

  TcpClientTransport(std::unique_ptr<Connection> conn,
                     RealtimeSubstrate* substrate, const sockaddr_in& server,
                     const Hello& hello);

  /// IoHandler: the connection's readiness (loop thread).
  void OnReady(std::uint32_t events) override;
  /// A redial's first inbound frame: validates the server's Hello and
  /// makes the connection live. False rejects it.
  bool AcceptServerHello(const std::uint8_t* body, std::uint32_t len);
  /// Retires the current connection; with reconnect on, starts a redial.
  void ConnectionLost();
  /// Starts one non-blocking dial attempt (or schedules the next one).
  void Redial();
  /// Abandons a failed dial attempt and schedules the next after backoff.
  void DialFailed();
  /// Unwatches and closes the current socket.
  void DropSocket();

  std::unique_ptr<Connection> conn_;
  RealtimeSubstrate* substrate_;
  /// The server's address, resolved once by Connect() (a redial on the
  /// loop thread must not block on a name lookup).
  sockaddr_in server_;
  Hello hello_;
  State state_ = State::kLive;
  int watch_ = -1;
  bool reconnect_ = false;
  bool closing_ = false;
  /// Identifies the dial attempt a handshake timeout belongs to.
  std::uint64_t dial_attempt_ = 0;
  int backoff_ms_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t disconnected_drops_ = 0;
};

/// Server side of the wire: a listener plus one Connection per load shard,
/// all in the server loop's epoll set. Installed as the server Network's
/// Transport, it routes each outbound message into the frame batch of the
/// connection whose Hello claimed the destination client id (batches
/// flushed per calendar step via Flush()); inbound frames are decoded on
/// the loop thread in per-connection FIFO order. Accepting and the Hello
/// exchange are a non-blocking state machine on the same thread.
/// Connections come and go (ccload runs end while ccserve stays up):
/// messages to a departed client are counted and dropped, exactly like a
/// crashed workstation. A client is routable from the moment its Connect()
/// returns: the routes are published in the same loop step that queues
/// the Hello reply at the head of the connection's batch, so every frame
/// routed to it follows the reply.
class TcpServerTransport : public net::Transport, private IoHandler {
 public:
  /// Binds `bind_host` (empty = all interfaces), listens on `port`
  /// (0 = ephemeral), and registers the listener with `substrate`'s loop.
  /// `hello` describes this server and is used to validate every client.
  /// Returns nullptr with `error` set on failure.
  static std::unique_ptr<TcpServerTransport> Listen(
      int port, const Hello& hello, RealtimeSubstrate* substrate,
      std::string* error, const std::string& bind_host = std::string());

  ~TcpServerTransport() override;

  /// net::Transport: called on the server loop thread.
  void Deliver(const net::Message& msg) override;

  /// net::Transport: flushes every dirty connection (server loop thread).
  bool Flush() override;

  /// Stops accepting and closes every connection. Call after the server
  /// loop has stopped (and before the substrate is destroyed).
  void Close();

  /// Hard server crash: kills every live connection (RST / mid-frame cut).
  /// Clients notice immediately and ride their reconnect machinery.
  /// Server-loop-thread only (scheduled crash events).
  void SeverAll();

  /// Hard partition: kills the connection that routes client `id`.
  /// Server-loop-thread only.
  void SeverClient(int id);

  /// Final outbound drain, called after the event loop has stopped (the
  /// caller is then the sole owner). Retries Flush() until every
  /// connection drains or `seconds` elapse; on deadline the stragglers are
  /// aborted (mid-frame poison), so the peer observes a failed connection
  /// rather than a silently truncated success. Returns true when fully
  /// drained.
  bool DrainOrPoison(double seconds);

  int port() const { return port_; }
  std::uint64_t frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }
  /// Messages dropped because no live connection claimed the destination.
  std::uint64_t unroutable_drops() const {
    return unroutable_drops_.load(std::memory_order_relaxed);
  }
  /// Connections that completed the handshake over the server's lifetime.
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  /// One accepted connection and its place in the epoll set.
  struct Peer : IoHandler {
    Peer(TcpServerTransport* owner, ScopedFd fd)
        : owner(owner), conn(std::move(fd)) {}
    void OnReady(std::uint32_t events) override;

    TcpServerTransport* owner;
    Connection conn;
    int watch = -1;
    /// The client's Hello arrived and its routes are published.
    bool greeted = false;
    /// Unwatched and closed; swept from peers_ at the next Flush().
    bool closed = false;
  };

  TcpServerTransport(ScopedFd listen_fd, int port, const Hello& hello,
                     RealtimeSubstrate* substrate);

  /// IoHandler: the listener is readable — accept what is pending.
  void OnReady(std::uint32_t events) override;
  void OnPeerReady(Peer* peer);
  /// Validates the client's Hello, publishes its routes and queues the
  /// reply. Returns false when the connection is rejected.
  bool Greet(Peer* peer, const std::uint8_t* body, std::uint32_t len);
  /// Unroutes, unwatches and closes `peer` (memory goes at the next sweep).
  void ClosePeer(Peer* peer);

  ScopedFd listen_fd_;
  int listen_watch_ = -1;
  int port_;
  Hello hello_;
  RealtimeSubstrate* substrate_;

  // All loop-thread only.
  std::vector<std::unique_ptr<Peer>> peers_;
  /// client id -> the connection that registered it (indexed by id).
  std::vector<Peer*> routes_;
  /// Connections with queued outbound bytes, awaiting Flush().
  std::vector<Peer*> dirty_;
  bool sweep_ = false;

  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> unroutable_drops_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_TCP_H_
