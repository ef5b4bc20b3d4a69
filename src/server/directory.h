#ifndef CCSIM_SERVER_DIRECTORY_H_
#define CCSIM_SERVER_DIRECTORY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "db/database.h"
#include "util/bit_matrix.h"
#include "util/lru.h"
#include "util/macros.h"

namespace ccsim::server {

class DirectoryTestPeer;

/// Tracks which clients were sent copies of which pages — the server-side
/// memory that notification needs ("the server [must] remember which
/// objects have been cached by which clients", paper §6) and that callback
/// locking uses for bookkeeping.
///
/// Entries are added whenever page data is shipped to a client and removed
/// when the server learns of an eviction (explicit or piggybacked
/// notices). Clients that drop clean pages silently leave stale entries —
/// those cause wasted notifications, exactly as the paper models (§2.5) —
/// but the server knows each client's cache capacity, so it keeps at most
/// `per_client_capacity` entries per client in LRU order (its best
/// approximation of the real cache contents).
///
/// Layout: one LRU table per client in a vector indexed by client id, and
/// the reverse index as one client bitset per page (a util::BitMatrix).
/// Tables and bits are reused, so steady-state traffic allocates nothing,
/// and clients caching a page are listed in ascending id order.
class Directory {
 public:
  explicit Directory(int per_client_capacity = 1 << 20)
      : per_client_capacity_(per_client_capacity) {}

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Records that `client` was sent a copy of `page`.
  void Note(int client, db::PageId page) {
    LruTable<db::PageId, Empty>& pages = TableOf(client);
    if (pages.Touch(page) != nullptr) {
      return;
    }
    while (static_cast<int>(pages.size()) >= per_client_capacity_) {
      const auto* victim = pages.VictimCandidate();
      DropInternal(client, pages, victim->key);
    }
    pages.Insert(page, Empty{});
    if (by_page_.RowEmpty(Row(page))) {
      ++page_count_;
    }
    by_page_.Set(Row(page), Column(client));
  }

  /// Forgets `page` for `client` (eviction notice processed).
  void Drop(int client, db::PageId page) {
    if (LruTable<db::PageId, Empty>* pages = FindTable(client)) {
      DropInternal(client, *pages, page);
    }
  }

  bool Caches(int client, db::PageId page) const {
    return by_page_.Test(Row(page), Column(client));
  }

  /// Fills `out` with the clients believed to cache `page`, excluding
  /// `except`, in ascending id order.
  void ClientsCaching(db::PageId page, int except,
                      std::vector<int>* out) const {
    out->clear();
    by_page_.ForEachInRow(Row(page), [&](std::size_t column) {
      const int client = static_cast<int>(column);
      if (client != except) {
        out->push_back(client);
      }
    });
  }

  /// Forgets everything `client` caches (the client crashed; its previous
  /// life's cache is gone).
  void DropClient(int client) {
    LruTable<db::PageId, Empty>* pages = FindTable(client);
    if (pages == nullptr) {
      return;
    }
    pages->ForEach([&](const LruTable<db::PageId, Empty>::Entry& e) {
      ClearBit(client, e.key);
    });
    pages->Clear();
  }

  /// Forgets everything (the server crashed; the directory was volatile).
  void Clear() {
    for (const auto& pages : per_client_) {
      if (pages != nullptr) {
        pages->Clear();
      }
    }
    by_page_.Clear();
    page_count_ = 0;
  }

  /// Pages at least one client is believed to cache.
  std::size_t page_count() const { return page_count_; }

  /// Consistency-oracle audit: the per-client LRU view and the by-page
  /// reverse index must mirror each other exactly, and no client may exceed
  /// its capacity bound. Fatal on violation.
  void AuditStructure() const {
    std::size_t forward_entries = 0;
    for (std::size_t c = 0; c < per_client_.size(); ++c) {
      if (per_client_[c] == nullptr) {
        continue;
      }
      const LruTable<db::PageId, Empty>& pages = *per_client_[c];
      const int client_id = static_cast<int>(c);
      CCSIM_CHECK_MSG(static_cast<int>(pages.size()) <= per_client_capacity_,
                      "directory for client %d exceeds its capacity bound",
                      client_id);
      pages.ForEach([&](const LruTable<db::PageId, Empty>::Entry& e) {
        ++forward_entries;
        CCSIM_CHECK_MSG(Caches(client_id, e.key),
                        "directory entry (client %d, page %d) missing from "
                        "the reverse index", client_id, e.key);
      });
    }
    std::size_t reverse_entries = 0;
    std::size_t cached_pages = 0;
    for (std::size_t row = 0; row < by_page_.rows(); ++row) {
      cached_pages += by_page_.RowEmpty(row) ? 0 : 1;
      by_page_.ForEachInRow(row, [&](std::size_t) { ++reverse_entries; });
    }
    CCSIM_CHECK_MSG(forward_entries == reverse_entries,
                    "directory indexes disagree: %zu forward vs %zu reverse",
                    forward_entries, reverse_entries);
    CCSIM_CHECK_MSG(cached_pages == page_count_,
                    "directory page count %zu, reverse index has %zu",
                    page_count_, cached_pages);
  }

 private:
  friend class DirectoryTestPeer;
  struct Empty {};

  static std::size_t Row(db::PageId page) {
    CCSIM_DCHECK(page >= 0);
    return static_cast<std::size_t>(page);
  }
  static std::size_t Column(int client) {
    CCSIM_DCHECK(client >= 0);
    return static_cast<std::size_t>(client);
  }

  LruTable<db::PageId, Empty>* FindTable(int client) const {
    const auto index = static_cast<std::size_t>(client);
    return client >= 0 && index < per_client_.size()
               ? per_client_[index].get()
               : nullptr;
  }

  LruTable<db::PageId, Empty>& TableOf(int client) {
    CCSIM_CHECK(client >= 0);
    const auto index = static_cast<std::size_t>(client);
    if (index >= per_client_.size()) {
      per_client_.resize(index + 1);
    }
    if (per_client_[index] == nullptr) {
      per_client_[index] = std::make_unique<LruTable<db::PageId, Empty>>();
    }
    return *per_client_[index];
  }

  void ClearBit(int client, db::PageId page) {
    if (by_page_.Reset(Row(page), Column(client)) &&
        by_page_.RowEmpty(Row(page))) {
      --page_count_;
    }
  }

  void DropInternal(int client, LruTable<db::PageId, Empty>& pages,
                    db::PageId page) {
    if (pages.Erase(page)) {
      ClearBit(client, page);
    }
  }

  int per_client_capacity_;
  std::vector<std::unique_ptr<LruTable<db::PageId, Empty>>> per_client_;
  util::BitMatrix by_page_;
  std::size_t page_count_ = 0;
};

}  // namespace ccsim::server

#endif  // CCSIM_SERVER_DIRECTORY_H_
