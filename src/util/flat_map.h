#ifndef CCSIM_UTIL_FLAT_MAP_H_
#define CCSIM_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/macros.h"

namespace ccsim::util {

/// Open-addressing hash map from an integer key to a small trivially
/// copyable value (a pointer, an index): linear probing at a load factor of
/// at most 1/2, backward-shift erase (no tombstones), and a slot array that
/// only grows. Insert/erase churn at a steady size therefore never reaches
/// the allocator. The largest value of `K` marks an empty slot and cannot
/// be stored.
///
/// Iteration (ForEach) visits slot order, which depends on the hash: code
/// whose behaviour must not depend on it sorts what it collects.
template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K>, "FlatMap keys are integers");
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatMap values are trivially copyable");

 public:
  static constexpr K kEmptyKey = std::numeric_limits<K>::max();

  FlatMap() = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* Find(K key) {
    const std::size_t i = Locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const V* Find(K key) const {
    const std::size_t i = Locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  /// Inserts a new key. Fatal if it is present or is kEmptyKey.
  void Insert(K key, V value) {
    CCSIM_CHECK(key != kEmptyKey);
    CCSIM_CHECK(Locate(key) == kNone);
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }
    Place(key, value);
    ++size_;
  }

  /// Removes `key`; returns false if it was absent. With `removed`, the
  /// erased value is stored there.
  bool Erase(K key, V* removed = nullptr) {
    std::size_t hole = Locate(key);
    if (hole == kNone) {
      return false;
    }
    if (removed != nullptr) {
      *removed = slots_[hole].value;
    }
    // Backward shift: pull later members of the probe run into the hole
    // unless their home lies cyclically in (hole, i].
    std::size_t i = hole;
    for (;;) {
      i = (i + 1) & mask();
      if (slots_[i].key == kEmptyKey) {
        break;
      }
      const std::size_t home = Home(slots_[i].key);
      const bool stays = hole <= i ? (hole < home && home <= i)
                                   : (hole < home || home <= i);
      if (!stays) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

  /// Removes every entry; the slot array is kept.
  void Clear() {
    for (Slot& slot : slots_) {
      slot.key = kEmptyKey;
    }
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in slot order. `fn` must not
  /// insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) {
        fn(slot.key, slot.value);
      }
    }
  }

 private:
  struct Slot {
    K key;
    V value;
  };

  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t Home(K key) const {
    // Fibonacci hashing spreads dense ids across the table.
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) & mask();
  }

  std::size_t Locate(K key) const {
    if (slots_.empty()) {
      return kNone;
    }
    std::size_t i = Home(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask();
    }
    return kNone;
  }

  void Place(K key, V value) {
    std::size_t i = Home(key);
    while (slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask();
    }
    slots_[i] = Slot{key, value};
  }

  void Rehash(std::size_t count) {
    std::vector<Slot> old(count, Slot{kEmptyKey, V{}});
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.key != kEmptyKey) {
        Place(slot.key, slot.value);
      }
    }
  }

  std::vector<Slot> slots_;  // empty or a power of two
  std::size_t size_ = 0;
};

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_FLAT_MAP_H_
