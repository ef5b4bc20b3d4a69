#ifndef CCSIM_STORAGE_LOG_MANAGER_H_
#define CCSIM_STORAGE_LOG_MANAGER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "sim/resource.h"
#include "sim/task.h"
#include "storage/disk.h"

namespace ccsim::fault {
class FaultInjector;
}  // namespace ccsim::fault

namespace ccsim::storage {

/// The server log manager (paper §3.3.4): write-ahead logging to dedicated
/// log disks. Commits force the transaction's log records (a sequential
/// append; committed data pages need not be written). Aborts whose
/// uncommitted updates reached disk pay for log processing and undo I/O on
/// the data disks — in previous simulation models aborts were "essentially
/// free"; here they are charged.
class LogManager {
 public:
  struct Params {
    bool enabled = true;
    /// InitDiskCost in ticks, charged on the server CPU per disk access.
    sim::Ticks init_disk_cost = 0;
  };

  LogManager(const Params& params, const db::DatabaseLayout* layout,
             std::vector<Disk*> log_disks, std::vector<Disk*> data_disks,
             sim::Resource* server_cpu)
      : params_(params), layout_(layout), log_disks_(std::move(log_disks)),
        data_disks_(std::move(data_disks)), server_cpu_(server_cpu) {}

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  bool enabled() const { return params_.enabled; }

  /// Attaches a fault injector for storage faults (nullptr = perfect
  /// storage, the default). The hook costs nothing when unset.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Forces the commit record (and the update records written with it) to a
  /// log disk. Read-only transactions (zero updated pages) write nothing.
  ///
  /// Records are modeled as checksummed and sequence-numbered: every force
  /// ends with a write-verify read-back, so an injected torn write or bit
  /// flip is detected immediately and the record re-appended (extra log
  /// I/O) before the commit can be acknowledged. The only way an invalid
  /// record reaches the durable log is a crash interrupting the force — the
  /// crash-torn tail that restart recovery truncates.
  sim::Task<void> ForceCommit(int updated_pages);

  /// Charges an abort: reads the transaction's log tail and undoes the
  /// updates that were flushed to disk (one read + one write per flushed
  /// page, on the page's data disk).
  sim::Task<void> ProcessAbort(const std::vector<db::PageId>& flushed_pages);

  /// Marks every force still in flight as a crash-torn tail record: the
  /// append never completed, so at restart the record fails its checksum
  /// and is truncated. Such a commit was never acknowledged (the reply
  /// strictly follows force completion), so only unacknowledged work is
  /// affected — the transactions_lost == 0 contract survives. Called by
  /// Server::Crash().
  void OnCrash();

  /// Restart recovery after a server crash: scans the log (one sequential
  /// read per log disk), truncates at the first invalid (crash-torn)
  /// record, re-forces the truncated commits from the redo information
  /// (their version bumps survived in the durable version table), and
  /// redoes the `redo_pages` committed updates that were lost from the
  /// volatile buffer pool (one data-disk write each; committed pages whose
  /// images had already been evicted to disk need no redo and are not
  /// counted). Completed forces were write-verified, so no committed work
  /// is lost.
  sim::Task<void> ReplayRecovery(int redo_pages);

  /// Consistency-oracle audit: stamps one LSN per updated page at the
  /// commit point and asserts per-page LSN monotonicity and a dense
  /// version chain (each logged version is the page's previous one plus
  /// one, starting at 2) — the write-ahead contract that redo recovery
  /// depends on. Called (only on checker-enabled runs) synchronously with
  /// the version bumps, so a protocol that lets two commits install
  /// versions out of chain order, or skip or repeat one, trips the check
  /// at the exact commit that broke the chain. Pure bookkeeping: no
  /// simulated I/O or CPU is charged.
  void AuditCommitWrites(
      const std::vector<std::pair<db::PageId, std::uint64_t>>& writes);

  std::uint64_t commits_logged() const { return commits_logged_; }
  std::uint64_t undo_page_ios() const { return undo_page_ios_; }
  std::uint64_t redo_page_ios() const { return redo_page_ios_; }
  /// Storage-fault accounting: faults caught by the write-verify read-back,
  /// re-appends they forced, records the force LSN counter has issued /
  /// made durable, and crash-torn tail records truncated at recovery.
  std::uint64_t torn_writes_detected() const { return torn_writes_detected_; }
  std::uint64_t bit_flips_detected() const { return bit_flips_detected_; }
  std::uint64_t log_rewrites() const { return log_rewrites_; }
  std::uint64_t records_appended() const { return next_record_lsn_ - 1; }
  std::uint64_t records_durable() const { return records_durable_; }
  std::uint64_t records_truncated() const { return records_truncated_; }
  int forces_in_flight() const { return forces_in_flight_; }
  void ResetStats() {
    commits_logged_ = 0;
    undo_page_ios_ = 0;
  }

 private:
  Params params_;
  const db::DatabaseLayout* layout_;
  std::vector<Disk*> log_disks_;
  std::vector<Disk*> data_disks_;
  sim::Resource* server_cpu_;
  fault::FaultInjector* injector_ = nullptr;
  std::size_t next_log_disk_ = 0;
  /// Checksummed-record bookkeeping. Forces in flight when a crash hits are
  /// the crash-torn tail; the epoch lets the interrupted coroutine detect
  /// that its record was already truncated and skip the completion path.
  std::uint64_t next_record_lsn_ = 1;
  std::uint64_t records_durable_ = 0;
  std::uint64_t records_truncated_ = 0;
  /// Truncated records not yet re-forced by ReplayRecovery.
  int truncation_pending_ = 0;
  int forces_in_flight_ = 0;
  std::uint64_t crash_epoch_ = 0;
  std::uint64_t torn_writes_detected_ = 0;
  std::uint64_t bit_flips_detected_ = 0;
  std::uint64_t log_rewrites_ = 0;
  /// Audit state (AuditCommitWrites): next LSN to assign and the last
  /// (lsn, version) stamped per page. Survives simulated server crashes by
  /// design — the log is durable, so monotonicity must hold across them.
  std::uint64_t next_lsn_ = 1;
  std::unordered_map<db::PageId, std::pair<std::uint64_t, std::uint64_t>>
      page_lsn_;
  std::uint64_t commits_logged_ = 0;
  std::uint64_t undo_page_ios_ = 0;
  std::uint64_t redo_page_ios_ = 0;
};

}  // namespace ccsim::storage

#endif  // CCSIM_STORAGE_LOG_MANAGER_H_
