#ifndef CCSIM_RUNNER_METRICS_H_
#define CCSIM_RUNNER_METRICS_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace ccsim::check {
class Checker;
}  // namespace ccsim::check

namespace ccsim::runner {

/// Why a transaction attempt was aborted.
enum class AbortKind {
  /// Deadlock victim (lock-based algorithms).
  kDeadlock,
  /// Read a stale cached page (no-wait locking).
  kStaleRead,
  /// Failed commit-time validation (certification).
  kCertification,
  /// RPC retransmissions exhausted (recovery mode; lossy network).
  kTimeout,
  /// The client or server crashed mid-attempt (recovery mode).
  kCrash,
};

/// Fixed-size log-scaled response-time histogram: 20 buckets per decade
/// (~12% resolution) spanning 1 µs .. 1000 s. Cheap enough to feed on
/// every commit, and mergeable, so a multi-shard load generator can
/// aggregate per-shard histograms into run-wide percentiles.
class LatencyHistogram {
 public:
  static constexpr int kBucketsPerDecade = 20;
  static constexpr int kDecades = 9;  // 1e-6 s .. 1e3 s
  static constexpr int kBuckets = kBucketsPerDecade * kDecades;

  void Add(double seconds) {
    ++counts_[BucketFor(seconds)];
    ++total_;
  }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      counts_[static_cast<std::size_t>(i)] +=
          other.counts_[static_cast<std::size_t>(i)];
    }
    total_ += other.total_;
  }

  void Reset() {
    counts_.fill(0);
    total_ = 0;
  }

  std::uint64_t count() const { return total_; }

  /// Value at quantile `q` in [0, 1] (bucket midpoint in log space; 0 when
  /// empty).
  double Quantile(double q) const {
    if (total_ == 0) {
      return 0.0;
    }
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[static_cast<std::size_t>(i)];
      if (seen > rank) {
        return 1e-6 * std::pow(10.0, (static_cast<double>(i) + 0.5) /
                                         kBucketsPerDecade);
      }
    }
    return 1e3;
  }

 private:
  static int BucketFor(double seconds) {
    if (seconds <= 1e-6) {
      return 0;
    }
    const int bucket = static_cast<int>(
        std::log10(seconds * 1e6) * kBucketsPerDecade);
    return bucket >= kBuckets ? kBuckets - 1 : bucket;
  }

  std::array<std::uint64_t, static_cast<std::size_t>(kBuckets)> counts_{};
  std::uint64_t total_ = 0;
};

/// Run-wide measurement collector. Transaction response times and counters
/// accumulate in a measurement window that restarts at the end of warmup;
/// a separate lifetime response-time mean (never reset) drives the
/// ACL-style restart delay.
class Metrics {
 public:
  explicit Metrics(sim::Simulator* simulator) : simulator_(simulator) {}
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Stops the simulation once this many commits land in the window.
  void set_stop_after_commits(std::uint64_t target) {
    stop_after_commits_ = target;
  }

  /// One transaction attempt began. Attempts conserve: every started
  /// attempt ends in exactly one RecordCommit or RecordAbort, so over the
  /// measurement window |started - (commits + aborts)| is bounded by the
  /// attempts in flight at the window edges — at most the client count on
  /// each side. This is the substrate-parity invariant checked across sim
  /// and real runs.
  void RecordAttemptStart() { ++attempts_started_; }
  std::uint64_t attempts_started() const { return attempts_started_; }

  void RecordCommit(sim::Ticks response, int attempts,
                    std::size_t type_index = 0) {
    const double seconds = sim::TicksToSeconds(response);
    lifetime_response_s_.Add(seconds);
    response_s_.Add(seconds);
    response_batches_.Add(seconds);
    response_hist_.Add(seconds);
    if (type_index >= per_type_response_s_.size()) {
      per_type_response_s_.resize(type_index + 1);
    }
    per_type_response_s_[type_index].Add(seconds);
    ++commits_;
    attempts_per_commit_.Add(static_cast<double>(attempts));
    if (stop_after_commits_ != 0 && commits_ >= stop_after_commits_) {
      simulator_->RequestStop();
    }
  }

  void RecordAbort(AbortKind kind) {
    ++aborts_;
    switch (kind) {
      case AbortKind::kDeadlock:
        ++deadlock_aborts_;
        break;
      case AbortKind::kStaleRead:
        ++stale_aborts_;
        break;
      case AbortKind::kCertification:
        ++cert_aborts_;
        break;
      case AbortKind::kTimeout:
        ++timeout_aborts_;
        break;
      case AbortKind::kCrash:
        ++crash_aborts_;
        break;
    }
  }

  // --- robustness counters (fault injection / recovery). Lifetime values,
  // not window-reset: fault accounting spans the whole run. ---
  void RecordRpcTimeout() { ++rpc_timeouts_; }
  void RecordRpcRetry() { ++rpc_retries_; }
  void RecordLeaseExpiry() { ++lease_expirations_; }
  void RecordDuplicateSuppressed() { ++duplicates_suppressed_; }
  void RecordGcXact() { ++gc_xacts_; }
  void RecordClientCrash() { ++client_crashes_; }
  void RecordServerCrash() { ++server_crashes_; }
  void RecordRecovery(sim::Ticks duration) { recovery_ticks_ += duration; }
  /// A transaction spec abandoned without a commit. The driver retries every
  /// spec until it commits, so this must stay zero; it exists as the
  /// externally-checked contract of the recovery layer.
  void RecordLostTransaction() { ++transactions_lost_; }
  /// Commit requests whose outcome the client never learned (retransmissions
  /// exhausted or crash with a commit in flight). The spec is re-run, so the
  /// transaction is not lost, but it may have executed twice.
  void RecordUnknownOutcome() { ++unknown_outcomes_; }
  /// A request the server shed at admission because the bounded ready queue
  /// was full (overload backpressure).
  void RecordShedRequest() { ++shed_requests_; }
  /// An RPC attempt abandoned because the client's retry budget ran out.
  void RecordRetryBudgetExhausted() { ++retry_budget_exhaustions_; }

  std::uint64_t timeout_aborts() const { return timeout_aborts_; }
  std::uint64_t crash_aborts() const { return crash_aborts_; }
  std::uint64_t rpc_timeouts() const { return rpc_timeouts_; }
  std::uint64_t rpc_retries() const { return rpc_retries_; }
  std::uint64_t lease_expirations() const { return lease_expirations_; }
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  std::uint64_t gc_xacts() const { return gc_xacts_; }
  std::uint64_t client_crashes() const { return client_crashes_; }
  std::uint64_t server_crashes() const { return server_crashes_; }
  sim::Ticks recovery_ticks() const { return recovery_ticks_; }
  std::uint64_t transactions_lost() const { return transactions_lost_; }
  std::uint64_t unknown_outcomes() const { return unknown_outcomes_; }
  std::uint64_t shed_requests() const { return shed_requests_; }
  std::uint64_t retry_budget_exhaustions() const {
    return retry_budget_exhaustions_;
  }

  /// Mean response time over the whole run (ticks), used as the mean of the
  /// exponential restart delay. Falls back to 100 ms before any commit.
  sim::Ticks RunningMeanResponseTicks() const {
    if (lifetime_response_s_.count() == 0) {
      return sim::kTicksPerSecond / 10;
    }
    return sim::SecondsToTicks(lifetime_response_s_.mean());
  }

  /// End-of-warmup reset of the measurement window.
  void ResetWindow() {
    response_s_.Reset();
    response_batches_.Reset();
    response_hist_.Reset();
    per_type_response_s_.clear();
    attempts_per_commit_.Reset();
    commits_ = aborts_ = deadlock_aborts_ = stale_aborts_ = cert_aborts_ = 0;
    timeout_aborts_ = crash_aborts_ = 0;
    attempts_started_ = 0;
  }

  const sim::Tally& response_s() const { return response_s_; }
  /// Per-transaction-type response tallies (mixed workloads; index matches
  /// ExperimentConfig::mix order).
  const std::vector<sim::Tally>& per_type_response_s() const {
    return per_type_response_s_;
  }
  const sim::BatchMeans& response_batches() const { return response_batches_; }
  const LatencyHistogram& response_histogram() const { return response_hist_; }
  const sim::Tally& attempts_per_commit() const { return attempts_per_commit_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::uint64_t deadlock_aborts() const { return deadlock_aborts_; }
  std::uint64_t stale_aborts() const { return stale_aborts_; }
  std::uint64_t cert_aborts() const { return cert_aborts_; }

  /// The run's consistency checker front-end (checker.enabled runs only;
  /// null otherwise). Metrics is the one object every component already
  /// holds, so it doubles as the checker's distribution point — client,
  /// server, and protocol code reach it via `metrics().checker()` and
  /// treat null as "checking off".
  void set_checker(check::Checker* checker) { checker_ = checker; }
  check::Checker* checker() const { return checker_; }

 private:
  sim::Simulator* simulator_;
  std::uint64_t stop_after_commits_ = 0;
  sim::Tally lifetime_response_s_;
  sim::Tally response_s_;
  std::vector<sim::Tally> per_type_response_s_;
  sim::BatchMeans response_batches_{/*batch_size=*/50};
  LatencyHistogram response_hist_;
  sim::Tally attempts_per_commit_;
  std::uint64_t attempts_started_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::uint64_t deadlock_aborts_ = 0;
  std::uint64_t stale_aborts_ = 0;
  std::uint64_t cert_aborts_ = 0;
  std::uint64_t timeout_aborts_ = 0;
  std::uint64_t crash_aborts_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t lease_expirations_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t gc_xacts_ = 0;
  std::uint64_t client_crashes_ = 0;
  std::uint64_t server_crashes_ = 0;
  sim::Ticks recovery_ticks_ = 0;
  std::uint64_t transactions_lost_ = 0;
  std::uint64_t unknown_outcomes_ = 0;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t retry_budget_exhaustions_ = 0;
  check::Checker* checker_ = nullptr;
};

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_METRICS_H_
