// Shared plumbing of the benchmark drivers: options, the result report,
// exact order statistics, and the process/thread clocks the traced mode
// reads. Everything here observes the program from outside; nothing is
// compiled into src/.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What one invocation measures.
enum class Mode {
  /// End-to-end metrics with no instrumentation.
  kTimed,
  /// Untraced half of a traced run: commits_per_s without instrumentation
  /// plus the checker off/on pairing behind check.overhead_pct.
  kCompanion,
  /// Per-layer metrics (instrumented; its commits_per_s shows the cost).
  kTraced,
};

/// Deliberate breakage used to prove the correctness gate can fail.
enum class Breakage {
  kNone,
  /// Certification commits without backward validation (sim workloads).
  kSkipValidation,
  /// The shard drops one inbound reply in a thousand (real-2pl): with
  /// recovery off the affected clients hang.
  kDropReplies,
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Mode mode = Mode::kTimed;
  Breakage breakage = Breakage::kNone;
};

/// Result of one invocation. Printed as a single JSON line (last line of
/// stdout); human-readable notes go to stderr.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a correctness failure (the run then counts as all failed).
  void Fail(const std::string& why);
  void Note(const std::string& line);

  void set_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  void set_digest(std::string digest) { digest_ = std::move(digest); }

  bool correct() const { return failures_.empty(); }
  /// Prints the JSON line; returns the process exit code.
  int Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string digest_;
};

/// Exact order statistic (linear interpolation between closest ranks, as
/// numpy's default). `values` is taken by value and sorted.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// CPU seconds of the calling thread / of the whole process (all threads,
/// including ones already joined).
double ThreadCpuSeconds();
double ProcessCpuSeconds();
/// Voluntary context switches of the calling thread.
std::uint64_t ThreadVoluntarySwitches();
/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// Heap allocations seen by the counting operator new. Only the traced
/// driver links the counting allocator; the timed one reports zeros.
struct AllocSnapshot {
  std::uint64_t news = 0;
  std::uint64_t bytes = 0;
};
AllocSnapshot AllocNow();
bool AllocCounting();

/// FNV-1a over a string (model-output digests).
std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash =
                                                 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
