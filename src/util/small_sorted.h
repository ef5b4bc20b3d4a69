#ifndef CCSIM_UTIL_SMALL_SORTED_H_
#define CCSIM_UTIL_SMALL_SORTED_H_

#include <algorithm>
#include <cstddef>

#include "util/small_vector.h"

namespace ccsim::util {

/// Set of trivially copyable keys kept in ascending order in a
/// SmallVector: the per-transaction page sets (a handful of pages each)
/// live inline, and a cleared set keeps any heap block it grew, so a
/// recycled owner allocates nothing. Iteration is ascending, which is the
/// order every model-visible walk over such a set must take.
template <typename T, std::size_t N>
class SmallSortedSet {
 public:
  using const_iterator = const T*;

  /// Adds `value`; false if it was already present.
  bool insert(T value) {
    T* pos = std::lower_bound(items_.begin(), items_.end(), value);
    if (pos != items_.end() && *pos == value) {
      return false;
    }
    items_.insert(pos, value);
    return true;
  }

  /// Removes `value`; false if it was absent.
  bool erase(T value) {
    T* pos = std::lower_bound(items_.begin(), items_.end(), value);
    if (pos == items_.end() || *pos != value) {
      return false;
    }
    items_.erase(pos);
    return true;
  }

  bool contains(T value) const {
    return std::binary_search(items_.begin(), items_.end(), value);
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

 private:
  SmallVector<T, N> items_;
};

/// Map from trivially copyable keys to trivially copyable values, kept in
/// ascending key order in a SmallVector (see SmallSortedSet).
template <typename K, typename V, std::size_t N>
class SmallSortedMap {
 public:
  struct Entry {
    K key;
    V value;
  };
  using const_iterator = const Entry*;

  /// The value for `key`, inserted value-initialised if absent.
  V& operator[](K key) {
    Entry* pos = LowerBound(key);
    if (pos == items_.end() || pos->key != key) {
      pos = items_.insert(pos, Entry{key, V{}});
    }
    return pos->value;
  }

  /// Inserts (key, value) unless `key` is present; true if inserted.
  bool emplace(K key, V value) {
    Entry* pos = LowerBound(key);
    if (pos != items_.end() && pos->key == key) {
      return false;
    }
    items_.insert(pos, Entry{key, value});
    return true;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

 private:
  Entry* LowerBound(K key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const Entry& e, K k) { return e.key < k; });
  }

  SmallVector<Entry, N> items_;
};

}  // namespace ccsim::util

#endif  // CCSIM_UTIL_SMALL_SORTED_H_
