#include "sim/frame_pool.h"

#include <new>

namespace ccsim::sim {
namespace {

struct FreeBlock {
  FreeBlock* next;
};

/// Per-thread free lists. Zero-initialised and trivially destructible, so
/// the hot path reads it without a TLS guard; the Reaper below (armed on
/// the first pooled free) returns the blocks when the thread exits.
struct ThreadLists {
  FreeBlock* heads[FramePool::kNumClasses];
  bool reaper_armed;
  bool torn_down;
};

thread_local ThreadLists t_lists;

struct Reaper {
  ~Reaper() {
    for (FreeBlock*& head : t_lists.heads) {
      while (head != nullptr) {
        FreeBlock* block = head;
        head = block->next;
        ::operator delete(block);
      }
    }
    // Frames destroyed later in thread teardown (static destructors on the
    // main thread) bypass the pool instead of refilling dead lists.
    t_lists.torn_down = true;
  }
};

void ArmReaper() {
  thread_local Reaper reaper;
  (void)reaper;
  t_lists.reaper_armed = true;
}

inline std::size_t ClassOf(std::size_t size) {
  return (size - 1) / FramePool::kClassBytes;
}

}  // namespace

void* FramePool::Allocate(std::size_t size) {
  if (kEnabled && size <= kMaxPooledBytes && size > 0) {
    const std::size_t cls = ClassOf(size);
    if (FreeBlock* block = t_lists.heads[cls]) {
      t_lists.heads[cls] = block->next;
      return block;
    }
    return ::operator new((cls + 1) * kClassBytes);
  }
  return ::operator new(size);
}

void FramePool::Deallocate(void* frame, std::size_t size) noexcept {
  if (kEnabled && size <= kMaxPooledBytes && size > 0 &&
      !t_lists.torn_down) {
    if (!t_lists.reaper_armed) {
      ArmReaper();
    }
    const std::size_t cls = ClassOf(size);
    FreeBlock* block = static_cast<FreeBlock*>(frame);
    block->next = t_lists.heads[cls];
    t_lists.heads[cls] = block;
    return;
  }
  ::operator delete(frame);
}

}  // namespace ccsim::sim
