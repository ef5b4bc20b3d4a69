#ifndef CCSIM_SIM_FRAME_POOL_H_
#define CCSIM_SIM_FRAME_POOL_H_

#include <cstddef>

#include "util/macros.h"

namespace ccsim::sim {

/// Recycling allocator for coroutine frames (`Process` and `Task<T>`).
///
/// Every simulated RPC, server handler and network hop is a coroutine, and
/// its frame is sized by the locals it carries (a `net::Message` alone is
/// ~1 KB), so without recycling the DES spends most of its allocator time
/// on 1–5 KB frames that live for a few simulated milliseconds.
///
/// Layout: sizes round up to 64-byte classes; frames up to
/// `kMaxPooledBytes` come from a per-thread free list of that class, larger
/// ones go straight to `::operator new`. A miss allocates one block with
/// `::operator new`; a free pushes the block onto the *freeing* thread's
/// list (a frame created on a loop thread and destroyed from `main` simply
/// joins `main`'s list). Each block is an independent allocation, so any
/// thread may free any block, and a thread's lists are returned to the
/// system when it exits.
///
/// Retention bound: a class's free list never holds more blocks than the
/// high-water mark of simultaneously live frames of that class on that
/// thread (plus frames other threads handed to it), so steady state is
/// allocation-free and a finished run keeps at most its peak frame set.
///
/// Under AddressSanitizer the pool is bypassed (`kEnabled == false`):
/// every frame is a fresh `::operator new`, so ASan still reports a frame
/// used after it was destroyed.
class FramePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kMaxPooledBytes = 16 * 1024;
  static constexpr std::size_t kNumClasses = kMaxPooledBytes / kClassBytes;

  static constexpr bool kEnabled = !CCSIM_ASAN;

  static void* Allocate(std::size_t size);
  static void Deallocate(void* frame, std::size_t size) noexcept;
};

/// Mixed into a promise type to route its coroutine frames through the
/// pool. The sized delete lets the pool find the class without a header.
struct PooledFrame {
  static void* operator new(std::size_t size) {
    return FramePool::Allocate(size);
  }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FramePool::Deallocate(frame, size);
  }
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_FRAME_POOL_H_
