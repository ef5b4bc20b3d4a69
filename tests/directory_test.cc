// Unit tests for the server's caching directory (notification targeting).

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "server/directory.h"
#include "sim/random.h"

namespace ccsim::server {

/// Reaches into a Directory's reverse index to break it on purpose.
class DirectoryTestPeer {
 public:
  static void ClearReverseBit(Directory& dir, int client, db::PageId page) {
    ASSERT_TRUE(dir.by_page_.Reset(static_cast<std::size_t>(page),
                                   static_cast<std::size_t>(client)));
  }
};

namespace {

std::vector<int> Caching(const Directory& dir, db::PageId page, int except) {
  std::vector<int> out = {-7};  // ClientsCaching replaces what was there
  dir.ClientsCaching(page, except, &out);
  return out;
}

TEST(DirectoryTest, NoteAndQuery) {
  Directory dir(10);
  dir.Note(1, 100);
  dir.Note(2, 100);
  dir.Note(1, 200);
  EXPECT_TRUE(dir.Caches(1, 100));
  EXPECT_TRUE(dir.Caches(2, 100));
  EXPECT_FALSE(dir.Caches(3, 100));
  // Ascending client order, whatever the order of the notes.
  dir.Note(0, 100);
  EXPECT_EQ(Caching(dir, 100, /*except=*/-1), (std::vector<int>{0, 1, 2}));
}

TEST(DirectoryTest, ExceptFiltersRequester) {
  Directory dir(10);
  dir.Note(1, 100);
  dir.Note(2, 100);
  EXPECT_EQ(Caching(dir, 100, /*except=*/1), (std::vector<int>{2}));
}

TEST(DirectoryTest, DropRemoves) {
  Directory dir(10);
  dir.Note(1, 100);
  dir.Drop(1, 100);
  EXPECT_FALSE(dir.Caches(1, 100));
  EXPECT_TRUE(Caching(dir, 100, -1).empty());
  EXPECT_EQ(dir.page_count(), 0u);
}

TEST(DirectoryTest, DropUnknownIsNoop) {
  Directory dir(10);
  dir.Drop(1, 100);
  dir.Note(1, 100);
  dir.Drop(2, 100);  // other client
  EXPECT_TRUE(dir.Caches(1, 100));
}

TEST(DirectoryTest, PerClientCapacityEvictsLru) {
  Directory dir(/*per_client_capacity=*/3);
  dir.Note(1, 10);
  dir.Note(1, 20);
  dir.Note(1, 30);
  dir.Note(1, 10);  // touch 10 -> LRU is 20
  dir.Note(1, 40);  // evicts 20
  EXPECT_TRUE(dir.Caches(1, 10));
  EXPECT_FALSE(dir.Caches(1, 20));
  EXPECT_TRUE(dir.Caches(1, 30));
  EXPECT_TRUE(dir.Caches(1, 40));
}

TEST(DirectoryTest, CapacityIsPerClient) {
  Directory dir(2);
  dir.Note(1, 10);
  dir.Note(1, 20);
  dir.Note(2, 10);
  dir.Note(2, 30);
  dir.Note(1, 40);  // evicts client 1's page 10 only
  EXPECT_FALSE(dir.Caches(1, 10));
  EXPECT_TRUE(dir.Caches(2, 10));
}

TEST(DirectoryTest, RepeatedNoteIsIdempotent) {
  Directory dir(2);
  dir.Note(1, 10);
  dir.Note(1, 10);
  dir.Note(1, 10);
  dir.Note(1, 20);
  EXPECT_TRUE(dir.Caches(1, 10));  // repeats did not consume capacity
  EXPECT_TRUE(dir.Caches(1, 20));
}

TEST(DirectoryTest, AuditCatchesForwardEntryWithoutReverseBit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Directory dir(4);
  dir.Note(1, 10);
  dir.Note(2, 10);
  dir.Note(2, 11);
  dir.AuditStructure();  // intact indexes pass
  DirectoryTestPeer::ClearReverseBit(dir, 2, 11);
  EXPECT_DEATH(dir.AuditStructure(),
               "directory entry \\(client 2, page 11\\) missing from the "
               "reverse index");
}

/// Reference model for the differential test: the reverse index as
/// std::map<page, std::set<client>> and each client's LRU order as a list
/// (front = most recent).
class ReferenceDirectory {
 public:
  explicit ReferenceDirectory(int capacity) : capacity_(capacity) {}

  void Note(int client, db::PageId page) {
    std::list<db::PageId>& lru = lru_[client];
    auto it = std::find(lru.begin(), lru.end(), page);
    if (it != lru.end()) {
      lru.splice(lru.begin(), lru, it);
      return;
    }
    while (static_cast<int>(lru.size()) >= capacity_) {
      Forget(client, lru.back());
      lru.pop_back();
    }
    lru.push_front(page);
    by_page_[page].insert(client);
  }

  void Drop(int client, db::PageId page) {
    std::list<db::PageId>& lru = lru_[client];
    auto it = std::find(lru.begin(), lru.end(), page);
    if (it != lru.end()) {
      lru.erase(it);
      Forget(client, page);
    }
  }

  void DropClient(int client) {
    for (db::PageId page : lru_[client]) {
      Forget(client, page);
    }
    lru_[client].clear();
  }

  void Clear() {
    lru_.clear();
    by_page_.clear();
  }

  bool Caches(int client, db::PageId page) const {
    auto it = by_page_.find(page);
    return it != by_page_.end() && it->second.count(client) > 0;
  }

  std::vector<int> ClientsCaching(db::PageId page, int except) const {
    std::vector<int> out;
    auto it = by_page_.find(page);
    if (it != by_page_.end()) {
      for (int client : it->second) {
        if (client != except) {
          out.push_back(client);
        }
      }
    }
    return out;
  }

  std::size_t page_count() const { return by_page_.size(); }

 private:
  void Forget(int client, db::PageId page) {
    auto it = by_page_.find(page);
    it->second.erase(client);
    if (it->second.empty()) {
      by_page_.erase(it);
    }
  }

  int capacity_;
  std::map<int, std::list<db::PageId>> lru_;
  std::map<db::PageId, std::set<int>> by_page_;
};

TEST(DirectoryDiffTest, MatchesReferenceModelOnRandomScripts) {
  constexpr int kClients = 10;
  constexpr db::PageId kPages = 24;
  constexpr int kCapacity = 5;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Pcg32 rng(seed, 91);
    Directory dir(kCapacity);
    ReferenceDirectory ref(kCapacity);
    std::vector<int> got;
    for (int step = 0; step < 5000; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 99));
      const int client = static_cast<int>(rng.UniformInt(0, kClients - 1));
      const auto page =
          static_cast<db::PageId>(rng.UniformInt(0, kPages - 1));
      if (op < 60) {
        dir.Note(client, page);
        ref.Note(client, page);
      } else if (op < 90) {
        dir.Drop(client, page);
        ref.Drop(client, page);
      } else if (op < 99) {
        dir.DropClient(client);
        ref.DropClient(client);
      } else {
        dir.Clear();
        ref.Clear();
      }
      dir.AuditStructure();
      ASSERT_EQ(dir.page_count(), ref.page_count())
          << "seed " << seed << " step " << step;
      for (db::PageId p = 0; p < kPages; ++p) {
        const int except = static_cast<int>(rng.UniformInt(-1, kClients - 1));
        dir.ClientsCaching(p, except, &got);
        ASSERT_EQ(got, ref.ClientsCaching(p, except))
            << "seed " << seed << " step " << step << " page " << p;
        for (int c = 0; c < kClients; ++c) {
          ASSERT_EQ(dir.Caches(c, p), ref.Caches(c, p))
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccsim::server
