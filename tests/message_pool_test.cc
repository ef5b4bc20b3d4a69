// Contracts of the per-thread message pool behind net::NewMessage(): a
// recycled message is indistinguishable from a fresh one, a clone is a
// full copy, a message released on another thread joins that thread's
// list, and under AddressSanitizer the pool is bypassed.

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "net/message.h"

namespace ccsim::net {
namespace {

#if defined(__SANITIZE_ADDRESS__)
static_assert(!MessagePool::kEnabled,
              "the message pool must be bypassed under AddressSanitizer");
#endif

/// Every list of a message, for checks that must cover all ten.
std::vector<std::size_t> ListSizes(const Message& msg) {
  return {msg.pages.size(),          msg.versions.size(),
          msg.data_pages.size(),     msg.data_versions.size(),
          msg.fetch_pages.size(),    msg.read_set.size(),
          msg.read_versions.size(),  msg.updated_set.size(),
          msg.released_pages.size(), msg.evicted_pages.size()};
}

/// Sets every field away from its default; `per_list` elements per list.
void FillEveryField(Message& msg, int per_list) {
  msg.type = MsgType::kUpdatePropagation;
  msg.src = 3;
  msg.dst = 4;
  msg.xact = 77;
  msg.request_id = 78;
  msg.seq = 79;
  msg.incarnation = 5;
  msg.mode = lock::LockMode::kExclusive;
  msg.aborted = true;
  msg.invalidate = true;
  for (int i = 0; i < per_list; ++i) {
    const auto v = static_cast<std::uint64_t>(i + 1);
    msg.pages.push_back(i);
    msg.versions.push_back(v);
    msg.data_pages.push_back(i);
    msg.data_versions.push_back(v);
    msg.fetch_pages.push_back(i);
    msg.read_set.push_back(i);
    msg.read_versions.push_back(v);
    msg.updated_set.push_back(i);
    msg.released_pages.push_back(i);
    msg.evicted_pages.push_back(i);
  }
}

void ExpectDefaultState(const Message& msg) {
  const Message fresh{};
  EXPECT_EQ(msg.type, fresh.type);
  EXPECT_EQ(msg.src, fresh.src);
  EXPECT_EQ(msg.dst, fresh.dst);
  EXPECT_EQ(msg.xact, fresh.xact);
  EXPECT_EQ(msg.request_id, fresh.request_id);
  EXPECT_EQ(msg.seq, fresh.seq);
  EXPECT_EQ(msg.incarnation, fresh.incarnation);
  EXPECT_EQ(msg.mode, fresh.mode);
  EXPECT_EQ(msg.aborted, fresh.aborted);
  EXPECT_EQ(msg.invalidate, fresh.invalidate);
  EXPECT_EQ(ListSizes(msg), std::vector<std::size_t>(10, 0));
}

TEST(MessagePoolTest, NewMessageIsInDefaultState) {
  MessagePtr msg = NewMessage();
  ASSERT_NE(msg, nullptr);
  ExpectDefaultState(*msg);
}

TEST(MessagePoolTest, RecycledMessageComesBackInDefaultState) {
  for (const int per_list : {3, 40}) {  // inline, then spilled to the heap
    MessagePtr msg = NewMessage();
    FillEveryField(*msg, per_list);
    if (per_list > 12) {
      ASSERT_FALSE(msg->pages.inline_storage());
      ASSERT_FALSE(msg->versions.inline_storage());
    }
    const Message* released = msg.get();
    msg.reset();
    MessagePtr again = NewMessage();
    if (MessagePool::kEnabled) {
      // The free list is LIFO: the message just released comes back.
      ASSERT_EQ(again.get(), released);
      if (per_list > 12) {
        // Reset clears the lists but keeps their storage.
        EXPECT_GE(again->pages.capacity(), static_cast<std::size_t>(per_list));
        EXPECT_GE(again->read_versions.capacity(),
                  static_cast<std::size_t>(per_list));
      }
    }
    ExpectDefaultState(*again);
  }
}

TEST(MessagePoolTest, CloneCopiesEveryField) {
  MessagePtr original = NewMessage();
  FillEveryField(*original, 20);
  MessagePtr copy = CloneMessage(*original);
  ASSERT_NE(copy.get(), original.get());
  EXPECT_EQ(copy->type, original->type);
  EXPECT_EQ(copy->src, original->src);
  EXPECT_EQ(copy->dst, original->dst);
  EXPECT_EQ(copy->xact, original->xact);
  EXPECT_EQ(copy->request_id, original->request_id);
  EXPECT_EQ(copy->seq, original->seq);
  EXPECT_EQ(copy->incarnation, original->incarnation);
  EXPECT_EQ(copy->mode, original->mode);
  EXPECT_EQ(copy->aborted, original->aborted);
  EXPECT_EQ(copy->invalidate, original->invalidate);
  EXPECT_EQ(copy->pages, original->pages);
  EXPECT_EQ(copy->versions, original->versions);
  EXPECT_EQ(copy->data_pages, original->data_pages);
  EXPECT_EQ(copy->data_versions, original->data_versions);
  EXPECT_EQ(copy->fetch_pages, original->fetch_pages);
  EXPECT_EQ(copy->read_set, original->read_set);
  EXPECT_EQ(copy->read_versions, original->read_versions);
  EXPECT_EQ(copy->updated_set, original->updated_set);
  EXPECT_EQ(copy->released_pages, original->released_pages);
  EXPECT_EQ(copy->evicted_pages, original->evicted_pages);
  // The copy is independent of the original.
  original->pages.clear();
  EXPECT_EQ(copy->pages.size(), 20u);
}

TEST(MessagePoolTest, ReleaseOnAnotherThreadJoinsThatThreadsList) {
  constexpr std::size_t kCount = 64;
  std::vector<MessagePtr> made;
  for (std::size_t i = 0; i < kCount; ++i) {
    made.push_back(NewMessage());
    FillEveryField(*made.back(), 16);  // spilled lists travel along
  }
  const std::size_t main_free = MessagePool::FreeCount();
  std::size_t worker_free_before = 0;
  std::size_t worker_free_after = 0;
  std::size_t worker_free_reused = 0;
  std::thread worker([&] {
    worker_free_before = MessagePool::FreeCount();
    made.clear();  // every release runs on this thread
    worker_free_after = MessagePool::FreeCount();
    // The worker's own allocations now come from what it was handed.
    MessagePtr reused = NewMessage();
    ExpectDefaultState(*reused);
    reused.reset();
    worker_free_reused = MessagePool::FreeCount();
  });  // thread exit frees the worker's list
  worker.join();
  EXPECT_EQ(MessagePool::FreeCount(), main_free)
      << "releases on the worker must not touch this thread's list";
  EXPECT_EQ(worker_free_before, 0u);
  if (MessagePool::kEnabled) {
    EXPECT_EQ(worker_free_after, kCount);
    EXPECT_EQ(worker_free_reused, kCount);
  } else {
    EXPECT_EQ(worker_free_after, 0u);
    EXPECT_EQ(worker_free_reused, 0u);
  }
}

TEST(MessagePoolTest, PoolIsBypassedExactlyUnderAddressSanitizer) {
  const std::size_t before = MessagePool::FreeCount();
  MessagePtr msg = NewMessage();
  msg.reset();
  if (MessagePool::kEnabled) {
    EXPECT_EQ(MessagePool::FreeCount(), before + 1);
  } else {
    // Every release frees the message, so ASan reports a use after
    // release instead of the pool handing the memory out again.
    EXPECT_EQ(MessagePool::FreeCount(), 0u);
  }
}

}  // namespace
}  // namespace ccsim::net
