#ifndef CCSIM_UTIL_RING_DEQUE_H_
#define CCSIM_UTIL_RING_DEQUE_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "util/macros.h"

namespace ccsim::util {

/// Growable power-of-two ring buffer: a double-ended FIFO whose storage is
/// reused across pushes. Unlike std::deque, which allocates a fresh node
/// block every few pushes as the queue slides forward, a ring only
/// allocates when it outgrows its high-water mark (doubling), so a queue
/// that cycles through a bounded working set never touches the heap.
///
/// Elements are constructed on push and destroyed on pop/clear, exactly as
/// in a standard container; growth moves them into the new buffer in FIFO
/// order. The subset of the deque API here is what sim::Mailbox needs.
template <typename T>
class RingDeque {
 public:
  RingDeque() = default;
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;
  ~RingDeque() {
    clear();
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  T& front() {
    CCSIM_DCHECK(size_ > 0);
    return slots_[head_];
  }

  template <typename U>
  void push_back(U&& value) {
    if (size_ == capacity_) {
      Grow();
    }
    ::new (static_cast<void*>(&slots_[(head_ + size_) & (capacity_ - 1)]))
        T(std::forward<U>(value));
    ++size_;
  }

  template <typename U>
  void push_front(U&& value) {
    if (size_ == capacity_) {
      Grow();
    }
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    ::new (static_cast<void*>(&slots_[head_])) T(std::forward<U>(value));
    ++size_;
  }

  void pop_front() {
    CCSIM_CHECK(size_ > 0);
    slots_[head_].~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Destroys every element; the buffer is kept for reuse.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void Grow() {
    const std::size_t next =
        capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    T* grown = std::allocator<T>().allocate(next);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = slots_[(head_ + i) & (capacity_ - 1)];
      ::new (static_cast<void*>(&grown[i])) T(std::move(from));
      from.~T();
    }
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
    }
    slots_ = grown;
    capacity_ = next;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_RING_DEQUE_H_
