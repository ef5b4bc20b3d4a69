#ifndef CCSIM_WORKLOAD_WORKLOAD_H_
#define CCSIM_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "config/params.h"
#include "db/database.h"
#include "sim/random.h"
#include "sim/time.h"

namespace ccsim::workload {

/// One pass of the transaction loop (paper Figure 3): ReadObject, then an
/// UpdateObject touching the atoms selected by ProbWrite (possibly none).
struct Step {
  db::ObjectRef object;
  /// The object's pages, in atom order.
  db::PageList read_pages;
  /// Subset of read_pages updated by the UpdateObject (empty = no update).
  db::PageList write_pages;
};

/// A fully materialized transaction. Pre-generating the operation sequence
/// makes restarts exact re-executions of the same reads and writes (the
/// paper restarts "the same transaction again and again until it finally
/// commits").
struct TransactionSpec {
  std::vector<Step> steps;

  int num_reads() const { return static_cast<int>(steps.size()); }
  bool read_only() const {
    for (const Step& s : steps) {
      if (!s.write_pages.empty()) {
        return false;
      }
    }
    return true;
  }
};

/// Per-client transaction generator (paper §3.2, Table 2). Models
/// inter-transaction temporal locality with the InterXactSet: the last
/// `inter_xact_set_size` distinct objects read, from which each new read
/// draws with probability `inter_xact_loc`.
///
/// Supports multi-type workloads ("a mix of transactions belonging to
/// different types"): each NextTransaction() draws a type by weight; the
/// think-time samplers then use that type's delays until the next
/// transaction.
class WorkloadGenerator {
 public:
  WorkloadGenerator(std::vector<config::MixEntry> mix,
                    const db::DatabaseLayout* layout, sim::Pcg32 object_rng,
                    sim::Pcg32 delay_rng);

  /// Single-type convenience constructor.
  WorkloadGenerator(const config::TransactionParams& params,
                    const db::DatabaseLayout* layout, sim::Pcg32 object_rng,
                    sim::Pcg32 delay_rng)
      : WorkloadGenerator(
            std::vector<config::MixEntry>{config::MixEntry{params, 1.0}},
            layout, object_rng, delay_rng) {}

  /// Generates the next transaction (drawing its type for mixed
  /// workloads) and updates the InterXactSet.
  TransactionSpec NextTransaction();

  /// Index of the type the current transaction was drawn from.
  std::size_t current_type() const { return current_type_; }

  /// Think-time samples for the current transaction's type (exponential;
  /// zero-mean parameters return 0).
  sim::Ticks SampleUpdateDelay() {
    return delay_rng_.ExponentialTicks(
        sim::SecondsToTicks(params_().update_delay_s));
  }
  sim::Ticks SampleInternalDelay() {
    return delay_rng_.ExponentialTicks(
        sim::SecondsToTicks(params_().internal_delay_s));
  }
  sim::Ticks SampleExternalDelay() {
    return delay_rng_.ExponentialTicks(
        sim::SecondsToTicks(params_().external_delay_s));
  }
  /// Restart delay with the given mean (the ACL convention uses the running
  /// average response time).
  sim::Ticks SampleRestartDelay(sim::Ticks mean) {
    return delay_rng_.ExponentialTicks(mean);
  }

  const std::deque<db::ObjectRef>& inter_xact_set() const {
    return inter_xact_set_;
  }

 private:
  db::ObjectRef PickObject();
  void NoteRead(const db::ObjectRef& object);
  const config::TransactionParams& params_() const {
    return mix_[current_type_].params;
  }

  std::vector<config::MixEntry> mix_;
  double total_weight_ = 0.0;
  std::size_t current_type_ = 0;
  const db::DatabaseLayout* layout_;
  sim::Pcg32 object_rng_;
  sim::Pcg32 delay_rng_;
  /// Most-recent-first list of distinct recently read objects.
  std::deque<db::ObjectRef> inter_xact_set_;
};

}  // namespace ccsim::workload

#endif  // CCSIM_WORKLOAD_WORKLOAD_H_
