#ifndef CCSIM_UTIL_OBJECT_POOL_H_
#define CCSIM_UTIL_OBJECT_POOL_H_

#include <utility>
#include <vector>

#include "util/macros.h"

namespace ccsim::util {

/// Free list of heap objects of one type, so state that comes and goes
/// with every transaction (server transaction states, lock-owner records,
/// per-transaction buffer-pool page lists, load events) is built once and
/// reused. Acquire returns a parked object exactly as its last user left it
/// (the caller resets what it needs, so any capacity its containers grew
/// is kept) or, with none parked, a new one built from `args`. Objects keep
/// stable addresses.
///
/// The pool owns only parked objects: whoever acquires an object must
/// Release it before the pool is destroyed. Under AddressSanitizer Release
/// deletes instead of parking, so a use after release is still reported.
template <typename T>
class ObjectPool {
 public:
  static constexpr bool kRecycles = !CCSIM_ASAN;

  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;
  ~ObjectPool() {
    for (T* object : parked_) {
      delete object;
    }
  }

  template <typename... Args>
  T* Acquire(Args&&... args) {
    if (parked_.empty()) {
      return new T(std::forward<Args>(args)...);
    }
    T* object = parked_.back();
    parked_.pop_back();
    return object;
  }

  void Release(T* object) {
    if (!kRecycles) {
      delete object;
      return;
    }
    parked_.push_back(object);
  }

 private:
  std::vector<T*> parked_;
};

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_OBJECT_POOL_H_
