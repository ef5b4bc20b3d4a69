// Tests for Status/Result, the LRU table, the ring deque, and the SPSC ring.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/lru.h"
#include "util/ring_deque.h"
#include "util/spsc_ring.h"
#include "util/status.h"

namespace ccsim {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad knob");
}

Status FailsWhen(bool fail) {
  if (fail) {
    return Status::Internal("inner");
  }
  return Status::OK();
}

Status Propagates(bool fail) {
  CCSIM_RETURN_NOT_OK(FailsWhen(fail));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Propagates(false).ok());
  EXPECT_EQ(Propagates(true).code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(LruTableTest, InsertFindTouch) {
  LruTable<int, std::string> lru;
  lru.Insert(1, "one");
  lru.Insert(2, "two");
  ASSERT_NE(lru.Find(1), nullptr);
  EXPECT_EQ(*lru.Find(1), "one");
  EXPECT_EQ(lru.Find(3), nullptr);
  EXPECT_EQ(lru.size(), 2u);
}

TEST(LruTableTest, VictimIsLeastRecentlyUsed) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Insert(3, 0);
  // Order (MRU..LRU): 3 2 1. Touch 1 -> 1 3 2.
  lru.Touch(1);
  const auto* victim = lru.VictimCandidate();
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->key, 2);
}

TEST(LruTableTest, PinnedEntriesAreNotVictims) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Pin(1);
  const auto* victim = lru.VictimCandidate();
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->key, 2);
}

TEST(LruTableTest, AllPinnedMeansNoVictim) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Pin(1);
  EXPECT_EQ(lru.VictimCandidate(), nullptr);
  lru.Unpin(1);
  EXPECT_NE(lru.VictimCandidate(), nullptr);
}

TEST(LruTableTest, UnpinAllClearsPins) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Pin(1);
  lru.Pin(2);
  EXPECT_EQ(lru.VictimCandidate(), nullptr);
  lru.UnpinAll();
  EXPECT_NE(lru.VictimCandidate(), nullptr);
  EXPECT_FALSE(lru.IsPinned(1));
}

TEST(LruTableTest, EraseRemoves) {
  LruTable<int, int> lru;
  lru.Insert(1, 10);
  EXPECT_TRUE(lru.Erase(1));
  EXPECT_FALSE(lru.Erase(1));
  EXPECT_EQ(lru.Find(1), nullptr);
  EXPECT_TRUE(lru.empty());
}

TEST(LruTableTest, ForEachVisitsMruToLru) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Insert(3, 0);
  std::vector<int> keys;
  lru.ForEach([&](const auto& e) { keys.push_back(e.key); });
  EXPECT_EQ(keys, (std::vector<int>{3, 2, 1}));
}

TEST(LruTableTest, ClearEmpties) {
  LruTable<int, int> lru;
  lru.Insert(1, 0);
  lru.Insert(2, 0);
  lru.Clear();
  EXPECT_TRUE(lru.empty());
  EXPECT_FALSE(lru.Contains(1));
}

// The recycled-node table against a std::list reference under random
// churn: recency order, victim choice and lookups must match exactly,
// including across index growth and backward-shift erases of colliding
// keys.
TEST(LruTableTest, MatchesListReferenceUnderChurn) {
  LruTable<int, int> lru;
  std::list<std::pair<int, int>> ref;  // front = most recently used
  std::mt19937 rng(7);
  const auto ref_find = [&ref](int key) {
    for (auto it = ref.begin(); it != ref.end(); ++it) {
      if (it->first == key) {
        return it;
      }
    }
    return ref.end();
  };
  for (int op = 0; op < 20000; ++op) {
    // Keys spaced by 64 collide in a small index, exercising probe runs.
    const int key = static_cast<int>(rng() % 300) * 64;
    auto it = ref_find(key);
    switch (rng() % 4) {
      case 0:
        if (it == ref.end()) {
          lru.Insert(key, op);
          ref.emplace_front(key, op);
        }
        break;
      case 1:
        EXPECT_EQ(lru.Erase(key), it != ref.end());
        if (it != ref.end()) {
          ref.erase(it);
        }
        break;
      case 2: {
        int* value = lru.Touch(key);
        ASSERT_EQ(value != nullptr, it != ref.end());
        if (it != ref.end()) {
          EXPECT_EQ(*value, it->second);
          ref.splice(ref.begin(), ref, it);
        }
        break;
      }
      default:
        if (const LruTable<int, int>::Entry* victim = lru.VictimCandidate()) {
          ASSERT_FALSE(ref.empty());
          EXPECT_EQ(victim->key, ref.back().first);
          lru.Erase(victim->key);
          ref.pop_back();
        }
        break;
    }
    ASSERT_EQ(lru.size(), ref.size());
  }
  std::vector<int> order;
  lru.ForEach([&order](const LruTable<int, int>::Entry& e) {
    order.push_back(e.key);
  });
  std::vector<int> expected;
  for (const auto& [key, value] : ref) {
    expected.push_back(key);
    EXPECT_NE(lru.Find(key), nullptr);
  }
  EXPECT_EQ(order, expected);
}

TEST(LruTableTest, MutableForEachEditsInPlace) {
  LruTable<int, int> lru;
  for (int i = 0; i < 5; ++i) {
    lru.Insert(i, i);
    lru.Pin(i);
  }
  lru.ForEach([](LruTable<int, int>::Entry& e) {
    e.value *= 10;
    e.pin_count = 0;
  });
  EXPECT_EQ(*lru.Find(3), 30);
  EXPECT_FALSE(lru.IsPinned(3));
  ASSERT_NE(lru.VictimCandidate(), nullptr);
  EXPECT_EQ(lru.VictimCandidate()->key, 0);
}

TEST(LruTableTest, ValuesAreDestroyedOnEraseAndClear) {
  auto token = std::make_shared<int>(1);
  {
    LruTable<int, std::shared_ptr<int>> lru;
    lru.Insert(1, token);
    lru.Insert(2, token);
    lru.Insert(3, token);
    EXPECT_EQ(token.use_count(), 4);
    lru.Erase(2);
    EXPECT_EQ(token.use_count(), 3);
    lru.Clear();
    EXPECT_EQ(token.use_count(), 1);
    lru.Insert(4, token);  // recycled node
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(RingDequeTest, FifoAcrossWrapAndGrowth) {
  util::RingDeque<int> ring;
  std::deque<int> ref;
  std::mt19937 rng(11);
  int next = 0;
  for (int op = 0; op < 5000; ++op) {
    const unsigned choice = rng() % 5;
    if (choice < 2) {
      ring.push_back(next);
      ref.push_back(next++);
    } else if (choice == 2) {
      ring.push_front(next);
      ref.push_front(next++);
    } else if (!ref.empty()) {
      EXPECT_EQ(ring.front(), ref.front());
      ring.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
  }
  while (!ref.empty()) {
    EXPECT_EQ(ring.front(), ref.front());
    ring.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingDequeTest, ClearDestroysItemsAndKeepsStorage) {
  auto token = std::make_shared<int>(1);
  util::RingDeque<std::shared_ptr<int>> ring;
  for (int i = 0; i < 20; ++i) {
    ring.push_back(token);
  }
  const std::size_t capacity = ring.capacity();
  EXPECT_GE(capacity, 20u);
  EXPECT_EQ(token.use_count(), 21);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(ring.capacity(), capacity);
  ring.push_back(token);
  EXPECT_EQ(ring.front(), token);
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  util::SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  util::SpscRing<int> exact(16);
  EXPECT_EQ(exact.capacity(), 16u);
}

TEST(SpscRingTest, FifoWithinCapacityAndFullDetection) {
  util::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int* slot = ring.TryReserve();
    ASSERT_NE(slot, nullptr);
    *slot = i;
    ring.Publish();
  }
  EXPECT_EQ(ring.TryReserve(), nullptr) << "full ring must refuse a slot";
  EXPECT_EQ(ring.ready(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.Front(), i);
    ring.Pop();
  }
  EXPECT_EQ(ring.ready(), 0u);
  EXPECT_NE(ring.TryReserve(), nullptr) << "drained ring must accept again";
}

TEST(SpscRingTest, SlotContentsSurviveLaps) {
  // A producer that fills slots in place relies on a slot's heap capacity
  // (SmallVector spill, string buffers) persisting across laps; the ring
  // must hand back the same slot objects, never fresh ones.
  util::SpscRing<std::vector<int>> ring(2);
  for (int lap = 0; lap < 10; ++lap) {
    std::vector<int>* slot = ring.TryReserve();
    ASSERT_NE(slot, nullptr);
    slot->assign(3, lap);
    ring.Publish();
    EXPECT_EQ(ring.Front().size(), 3u);
    EXPECT_EQ(ring.Front()[0], lap);
    ring.Pop();
  }
}

TEST(SpscRingTest, CrossThreadTransferPreservesOrder) {
  // One producer, one consumer, a ring much smaller than the item count:
  // every value must cross in order, with the producer stalling on full
  // and the consumer on empty. (Run under TSan, this is also the memory-
  // ordering test for TryReserve/Publish vs Front/Pop.)
  constexpr std::uint64_t kItems = 200000;
  util::SpscRing<std::uint64_t> ring(8);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems;) {
      if (std::uint64_t* slot = ring.TryReserve()) {
        *slot = i++;
        ring.Publish();
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected = 0;
  while (expected < kItems) {
    if (ring.ready() > 0) {
      ASSERT_EQ(ring.Front(), expected);
      ring.Pop();
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(ring.ready(), 0u);
}

}  // namespace
}  // namespace ccsim
