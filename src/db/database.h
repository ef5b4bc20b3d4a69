#ifndef CCSIM_DB_DATABASE_H_
#define CCSIM_DB_DATABASE_H_

#include <cstdint>
#include <vector>

#include "config/params.h"
#include "sim/random.h"
#include "util/macros.h"
#include "util/small_vector.h"

namespace ccsim::db {

/// Global page (atom) identifier. Pages are numbered class after class.
using PageId = std::int32_t;
inline constexpr PageId kInvalidPage = -1;

/// An object's page list. Paper-scale objects are one atom and the
/// clustering sweep goes up to 8, so the inline capacity covers every
/// configured object size without a heap block.
using PageList = util::SmallVector<PageId, 8>;

/// A logical object: `size` consecutive atoms of one class starting at
/// `start_atom` (wrapping at the class boundary). Because objects start at
/// arbitrary atoms, objects of the same class can share atoms — the paper's
/// subobject-sharing model (§3.1, Figure 2).
struct ObjectRef {
  std::int32_t cls = 0;
  std::int32_t start_atom = 0;
  std::int32_t size = 1;

  friend bool operator==(const ObjectRef& a, const ObjectRef& b) {
    return a.cls == b.cls && a.start_atom == b.start_atom && a.size == b.size;
  }
};

/// Static layout of the database: classes, atoms/pages, and class-to-disk
/// placement (paper §3.1). All state here is immutable after construction;
/// page version numbers live in VersionTable.
class DatabaseLayout {
 public:
  DatabaseLayout(const config::DatabaseParams& params, int num_data_disks);

  int num_classes() const { return params_.num_classes; }
  std::int64_t total_pages() const { return total_pages_; }
  int pages_in_class(int cls) const { return params_.PagesInClass(cls); }
  double cluster_factor() const { return params_.cluster_factor; }

  /// Global PageId of `atom` (taken modulo the class size) in class `cls`.
  PageId PageOf(int cls, int atom) const {
    const int n = pages_in_class(cls);
    return static_cast<PageId>(class_base_[cls] + (atom % n + n) % n);
  }

  int ClassOfPage(PageId page) const;

  /// Classes are distributed round-robin to the data disks; all pages of a
  /// class live on one disk (paper §3.3.2).
  int DiskOfClass(int cls) const { return cls % num_data_disks_; }
  int DiskOfPage(PageId page) const { return DiskOfClass(ClassOfPage(page)); }

  /// Disk-local offset of a page, used for sequential-access detection.
  std::int64_t DiskOffsetOfPage(PageId page) const;

  /// Draws an object uniformly over atoms: class chosen with probability
  /// proportional to its page count, then a uniform start atom.
  ObjectRef RandomObject(sim::Pcg32& rng) const;

  /// The pages an object occupies, in atom order (wrapping in the class).
  PageList PagesOf(const ObjectRef& object) const;

 private:
  config::DatabaseParams params_;
  int num_data_disks_;
  std::int64_t total_pages_ = 0;
  std::vector<std::int64_t> class_base_;  // first global page of each class
};

/// Server-assigned page version numbers. A version changes exactly when a
/// transaction that updated the page commits. Clients cache (page, version)
/// pairs and present versions for validity checks.
class VersionTable {
 public:
  explicit VersionTable(std::int64_t total_pages)
      : versions_(static_cast<std::size_t>(total_pages), 1) {}

  std::uint64_t Get(PageId page) const {
    return versions_[static_cast<std::size_t>(page)];
  }
  /// Installs a new version at commit; returns the new version number.
  std::uint64_t Bump(PageId page) {
    return ++versions_[static_cast<std::size_t>(page)];
  }
  std::size_t size() const { return versions_.size(); }

 private:
  std::vector<std::uint64_t> versions_;
};

}  // namespace ccsim::db

#endif  // CCSIM_DB_DATABASE_H_
