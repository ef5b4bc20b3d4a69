#ifndef CCSIM_SERVER_SERVER_H_
#define CCSIM_SERVER_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "config/params.h"
#include "db/database.h"
#include "lock/lock_manager.h"
#include "net/network.h"
#include "runner/metrics.h"
#include "server/directory.h"
#include "sim/event.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/log_manager.h"

namespace ccsim::proto {
class ServerProtocol;
}  // namespace ccsim::proto

namespace ccsim::server {

/// Server-side state of one transaction attempt.
struct XactState {
  std::uint64_t uid = 0;
  int client = 0;
  bool done = false;
  bool aborted = false;
  /// (page -> version read) for the serializability oracle and, in 2PL-like
  /// protocols, built as locks/fetches are granted.
  std::unordered_map<db::PageId, std::uint64_t> read_versions;
  /// Pages updated by this transaction (installed in the buffer pool for
  /// in-place protocols; staged for certification).
  std::unordered_set<db::PageId> updated;
  /// No-wait locking: asynchronous requests still being processed.
  int pending_async = 0;
  /// Signalled whenever pending_async reaches zero.
  std::unique_ptr<sim::Event> async_resolved;
  /// Pages found stale, reported to the client with the abort.
  std::vector<db::PageId> stale_pages;
  /// Updated pages received before commit but not yet applicable in place:
  /// certification's server-side private buffer, and no-wait dirty
  /// evictions whose X lock is still pending.
  std::unordered_set<db::PageId> deferred;
  /// Recovery mode: when the server last heard from this transaction
  /// (stamped at dispatch; the idle reaper aborts transactions whose
  /// client went silent without a crash notification).
  sim::Ticks last_activity = 0;
  /// The commit point was passed (versions about to be / being bumped);
  /// garbage collection must not abort the transaction any more.
  bool committing = false;
  /// Coroutines (message handlers, GC aborts) currently holding this
  /// state. A done state is retired when the last of them finishes.
  int pins = 0;
};

/// The database server (paper §3.3.4): CPU(s), data and log disks, buffer
/// pool, log manager, lock manager, page versions, the caching directory,
/// MPL admission control, and the algorithm-specific server transaction
/// manager (a proto::ServerProtocol).
class Server {
 public:
  Server(sim::Simulator* simulator, const config::ExperimentConfig& config,
         const db::DatabaseLayout* layout, net::Network* network,
         runner::Metrics* metrics, std::uint64_t seed);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Must be called before Start().
  void set_protocol(std::unique_ptr<proto::ServerProtocol> protocol);

  /// Spawns the dispatcher process.
  void Start();

  // --- surface used by protocol implementations ---

  sim::Simulator& simulator() { return *simulator_; }
  const config::ExperimentConfig& config() const { return config_; }
  const db::DatabaseLayout& layout() const { return *layout_; }
  sim::Resource& cpu() { return cpu_; }
  lock::LockManager& locks() { return locks_; }
  storage::BufferPool& pool() { return *pool_; }
  storage::LogManager& log() { return *log_; }
  db::VersionTable& versions() { return versions_; }
  Directory& directory() { return directory_; }
  runner::Metrics& metrics() { return *metrics_; }
  sim::Mailbox<net::MessagePtr>& inbox() { return inbox_; }
  std::vector<storage::Disk*> data_disks();
  std::vector<storage::Disk*> log_disks();

  /// Sends a message from the server (charges server CPU for the send).
  sim::Task<void> Send(net::MessagePtr msg);

  /// Addresses `reply` to the synchronous `request` and sends it. In
  /// recovery mode a copy stays in the reply cache for retransmits.
  sim::Task<void> Reply(const net::Message& request, net::MessagePtr reply);

  /// Looks up a transaction's state (nullptr if unknown, or finished and
  /// retired: a done state lives only while a handler still holds it).
  XactState* FindXact(std::uint64_t uid);

  /// Transaction states the server holds: active ones plus finished ones
  /// a running handler still refers to.
  std::size_t live_xact_states() const { return xacts_.size(); }

  /// Uid of the client's transaction currently active at the server (0 if
  /// none). Used as the waits-for proxy for retained locks.
  std::uint64_t ActiveXactOfClient(int client) const;

  /// The server half of the checker's audit: directory structure and buffer
  /// pool consistency, plus (fault-free runs only; crash and GC windows
  /// break it) that every uncommitted frame belongs to a live transaction.
  void Audit();

  /// Fetches `pages` through the buffer pool, charges ServerProcPage per
  /// page, appends (page, data, version) to the reply, and notes the copies
  /// in the directory. With `record_reads`, the versions enter
  /// state.read_versions for the commit-time serializability oracle
  /// (lock-based protocols; certification supplies its read set at commit
  /// instead).
  sim::Task<void> ReadPagesToClient(XactState& state, net::PageList pages,
                                    net::Message* reply, bool record_reads);

  /// Applies client page images: ServerProcPage per page (when `charge_cpu`)
  /// + buffer install under `pool_owner` (the transaction uid for in-place
  /// protocols; BufferPool::kCommitted when applying already-committed
  /// deferred updates); tracks the pages in state.updated.
  sim::Task<void> InstallClientUpdates(XactState& state,
                                       std::span<const db::PageId> pages,
                                       std::uint64_t pool_owner,
                                       bool charge_cpu);

  /// Synchronous commit point: asserts the serializability oracle (every
  /// read version is still current), bumps versions of the pages in
  /// state.updated (appended to reply->pages/versions), and feeds the log
  /// audit and the checker, if on. Runs without awaiting so validation and
  /// version installation are atomic with respect to rival commits.
  void BumpVersionsAndRecord(XactState& state, net::Message* reply);

  /// Commit tail: buffer-pool commit, log force, admission-slot release.
  sim::Task<void> CommitTail(XactState& state);

  /// BumpVersionsAndRecord + CommitTail (the common in-place commit path).
  /// Lock disposition is left to the protocol.
  sim::Task<void> FinalizeCommit(XactState& state, net::Message* reply);

  /// Abort tail: cancels lock waits, releases locks, reverts the buffer
  /// pool, charges undo I/O, releases the admission slot.
  sim::Task<void> AbortPipeline(XactState& state);

  /// Marks the transaction finished and admits queued work.
  void MarkDone(XactState& state);

  /// Server ServerProcPage cost in ticks.
  sim::Ticks page_processing_cost() const { return server_proc_page_ticks_; }

  // --- failure recovery (fault-injection runs only) ---

  /// True when the recovery layer (dedup, GC, reaper, revalidation) is on.
  bool resilient() const { return resilient_; }
  /// True while the server is crashed (between Crash and Recover).
  bool down() const { return down_; }
  /// Kills the server: volatile state (active transactions, lock table,
  /// buffer pool, caching directory, reply caches, queued messages) is
  /// lost. The version table stands in for the durable database: commits
  /// are forced to the log, so committed versions survive.
  void Crash();
  /// Restart: replays the log (redoing committed updates lost from the
  /// buffer pool), then reopens for business. The caller keeps the network
  /// endpoint down until this completes.
  sim::Task<void> Recover();

  /// Commit-time safety net for recovery mode. With faults injected, a
  /// commit can arrive whose premises no longer hold (the transaction was
  /// GC-aborted or died in a crash; a lease force-release let a rival
  /// update a page the client read locally; a dirty eviction was lost).
  /// Returns false — after recording stale pages — when the commit must be
  /// refused; on success the request's read set joins the serializability
  /// oracle. Call with no co_await between this and FinalizeCommit.
  /// Always true when the recovery layer is off.
  bool ValidateCommitForRecovery(XactState& state,
                                 const net::Message& request);

  /// Drops a transaction's uncommitted buffer-pool marks without the abort
  /// pipeline. For zombie handlers whose transaction was already aborted
  /// (by GC or a crash) but that installed pages before noticing.
  void PurgeUncommitted(std::uint64_t uid) { pool_->AbortTransaction(uid); }

  /// Bernoulli draw with the database ClusterFactor (sequential-read
  /// modeling).
  bool DrawClustered() {
    return rng_.Bernoulli(layout_->cluster_factor());
  }

  int active_transactions() const { return static_cast<int>(active_.size()); }
  /// Transactions committed over the server's lifetime.
  std::uint64_t transactions_committed() const { return committed_; }

  std::size_t ready_queue_length() const { return ready_.size(); }
  /// Largest ready-queue depth ever reached (overload diagnostics).
  std::size_t ready_queue_high_water() const { return ready_high_water_; }

 private:
  /// Per-client delivery state for at-most-once RPC semantics and
  /// crash-incarnation tracking (recovery mode only).
  struct ClientChannel {
    std::uint32_t incarnation = 0;
    /// Synchronous requests currently being handled (retransmits dropped).
    std::unordered_set<std::uint64_t> in_progress;
    /// Recent replies by request id, resent verbatim on a retransmit.
    std::deque<std::pair<std::uint64_t, net::MessagePtr>> replies;
    /// Sliding window of asynchronous sequence numbers already accepted.
    std::unordered_set<std::uint64_t> seen_seq;
    std::deque<std::uint64_t> seen_order;
  };

  sim::Process Dispatch();
  /// Runs the protocol's handler for `msg`, holding `state` (the message's
  /// transaction, pinned by the caller; may be null) until it returns.
  sim::Process RunHandler(net::MessagePtr msg, XactState* state);
  static XactState* Pin(XactState* state);
  /// Releases a pin; retires the state if it is done and unpinned.
  void Unpin(XactState& state);
  sim::Process ReplyAbortedTo(net::MessagePtr request);
  void PumpReady();
  bool IsStale(const net::Message& msg) const;
  static bool IsSynchronous(net::MsgType type);
  static bool IsTransactional(net::MsgType type);
  XactState* Admit(const net::Message& msg);
  /// Recovery-mode admission filter: incarnation GC, request dedup/replay,
  /// async dedup. Returns false when the message must be dropped.
  bool FilterDelivery(const net::Message& msg);
  sim::Process ResendReply(net::MessagePtr reply);
  /// Aborts a live transaction the client has abandoned (newer attempt
  /// seen, idle timeout, or client crash) and notifies the client.
  sim::Process GcAbortXact(std::uint64_t uid);
  /// Discards everything owned by a crashed client's previous life.
  void GcCrashedClient(int client);
  /// Periodically aborts transactions whose client went silent.
  sim::Process Reaper();

  sim::Simulator* simulator_;
  const config::ExperimentConfig& config_;
  const db::DatabaseLayout* layout_;
  net::Network* network_;
  runner::Metrics* metrics_;
  sim::Pcg32 rng_;

  sim::Resource cpu_;
  std::vector<std::unique_ptr<storage::Disk>> data_disks_;
  std::vector<std::unique_ptr<storage::Disk>> log_disks_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::LogManager> log_;
  lock::LockManager locks_;
  db::VersionTable versions_;
  Directory directory_;
  sim::Mailbox<net::MessagePtr> inbox_;
  std::unique_ptr<proto::ServerProtocol> protocol_;

  sim::Ticks server_proc_page_ticks_ = 0;

  std::unordered_map<std::uint64_t, std::unique_ptr<XactState>> xacts_;
  std::unordered_set<std::uint64_t> active_;
  std::unordered_map<int, std::uint64_t> active_by_client_;
  std::unordered_map<int, std::uint64_t> last_finished_;
  std::deque<net::MessagePtr> ready_;
  std::size_t ready_high_water_ = 0;
  std::uint64_t committed_ = 0;

  /// Reusable commit-point scratch for the checker feed (cleared per
  /// commit; capacity persists so the steady state allocates nothing).
  std::vector<std::pair<db::PageId, std::uint64_t>> commit_reads_scratch_;
  std::vector<std::pair<db::PageId, std::uint64_t>> commit_writes_scratch_;

  // --- recovery-mode state (inert when resilient_ is false) ---
  bool resilient_ = false;
  sim::Ticks xact_idle_ticks_ = 0;
  bool down_ = false;
  sim::Ticks crash_began_ = 0;
  int redo_pages_at_crash_ = 0;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<int, ClientChannel> channels_;
};

}  // namespace ccsim::server

#endif  // CCSIM_SERVER_SERVER_H_
