#ifndef CCSIM_UTIL_LRU_H_
#define CCSIM_UTIL_LRU_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/flat_map.h"
#include "util/macros.h"

namespace ccsim {

/// An LRU index over keys of type K with per-entry payload V.
///
/// The table does not bound its own size; callers implementing a replacement
/// policy query VictimCandidate() (the least recently used *evictable* entry)
/// and call Erase(). Entries can be pinned to exclude them from victim
/// selection — the client cache pins pages touched by the current
/// transaction, the server buffer pool pins pages mid-I/O.
///
/// Memory: recency is an intrusive doubly linked list of nodes carved from
/// fixed-size chunks and recycled through a free list, and the key index is
/// a util::FlatMap (open addressing, backward-shift erase) that only
/// grows. Insert/erase churn at a steady size therefore never reaches
/// the allocator. Entry addresses are stable until the entry is erased.
template <typename K, typename V>
class LruTable {
 public:
  struct Entry {
    K key;
    V value;
    int pin_count = 0;
  };

  LruTable() = default;
  LruTable(const LruTable&) = delete;
  LruTable& operator=(const LruTable&) = delete;
  ~LruTable() { Clear(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(const K& key) const { return FindNode(key) != nullptr; }

  /// Looks up an entry and, if found, marks it most recently used.
  V* Touch(const K& key) {
    Node* node = FindNode(key);
    if (node == nullptr) {
      return nullptr;
    }
    if (node != head_) {
      Unlink(node);
      LinkFront(node);
    }
    return &node->entry().value;
  }

  /// Looks up an entry without changing recency order.
  V* Find(const K& key) {
    Node* node = FindNode(key);
    return node == nullptr ? nullptr : &node->entry().value;
  }
  const V* Find(const K& key) const {
    const Node* node = FindNode(key);
    return node == nullptr ? nullptr : &node->entry().value;
  }

  /// Inserts a new entry as most recently used. Fatal if the key exists.
  V* Insert(const K& key, V value) {
    CCSIM_CHECK(!Contains(key));
    Node* node = AllocNode();
    ::new (static_cast<void*>(node->storage)) Entry{key, std::move(value), 0};
    LinkFront(node);
    index_.Insert(key, node);
    ++size_;
    return &node->entry().value;
  }

  /// Removes an entry. Returns true if it existed.
  bool Erase(const K& key) {
    Node* node = nullptr;
    if (!index_.Erase(key, &node)) {
      return false;
    }
    Unlink(node);
    node->entry().~Entry();
    FreeNode(node);
    --size_;
    return true;
  }

  /// Pins an entry, excluding it from victim selection. Fatal if missing.
  void Pin(const K& key) {
    Node* node = FindNode(key);
    CCSIM_CHECK(node != nullptr);
    ++node->entry().pin_count;
  }

  /// Releases one pin. Fatal if missing or not pinned.
  void Unpin(const K& key) {
    Node* node = FindNode(key);
    CCSIM_CHECK(node != nullptr);
    CCSIM_CHECK(node->entry().pin_count > 0);
    --node->entry().pin_count;
  }

  /// Drops all pins (used at transaction boundaries).
  void UnpinAll() {
    ForEach([](Entry& e) { e.pin_count = 0; });
  }

  bool IsPinned(const K& key) const {
    const Node* node = FindNode(key);
    CCSIM_CHECK(node != nullptr);
    return node->entry().pin_count > 0;
  }

  /// Returns the least-recently-used unpinned entry, or nullptr if every
  /// entry is pinned (or the table is empty).
  const Entry* VictimCandidate() const {
    for (const Node* node = tail_; node != nullptr; node = node->prev) {
      if (node->entry().pin_count == 0) {
        return &node->entry();
      }
    }
    return nullptr;
  }

  /// Iterates over all entries in MRU-to-LRU order. `fn` must not insert
  /// or erase; the mutable overload may change values and pins, not keys.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Node* node = head_; node != nullptr; node = node->next) {
      fn(node->entry());
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Node* node = head_; node != nullptr; node = node->next) {
      fn(node->entry());
    }
  }

  /// Removes every entry; nodes and index capacity are kept for reuse.
  void Clear() {
    while (head_ != nullptr) {
      Node* node = head_;
      head_ = node->next;
      node->entry().~Entry();
      FreeNode(node);
    }
    tail_ = nullptr;
    index_.Clear();
    size_ = 0;
  }

 private:
  struct Node {
    Node* prev;
    Node* next;  // also the free-list link while the node is unused
    alignas(Entry) unsigned char storage[sizeof(Entry)];

    Entry& entry() { return *std::launder(reinterpret_cast<Entry*>(storage)); }
    const Entry& entry() const {
      return *std::launder(reinterpret_cast<const Entry*>(storage));
    }
  };

  static constexpr std::size_t kChunkNodes = 64;

  Node* FindNode(const K& key) const {
    Node* const* node = index_.Find(key);
    return node == nullptr ? nullptr : *node;
  }

  void LinkFront(Node* node) {
    node->prev = nullptr;
    node->next = head_;
    if (head_ != nullptr) {
      head_->prev = node;
    } else {
      tail_ = node;
    }
    head_ = node;
  }

  void Unlink(Node* node) {
    if (node->prev != nullptr) {
      node->prev->next = node->next;
    } else {
      head_ = node->next;
    }
    if (node->next != nullptr) {
      node->next->prev = node->prev;
    } else {
      tail_ = node->prev;
    }
  }

  Node* AllocNode() {
    if (free_ == nullptr) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
      Node* chunk = chunks_.back().get();
      for (std::size_t i = 0; i < kChunkNodes; ++i) {
        chunk[i].next = free_;
        free_ = &chunk[i];
      }
    }
    Node* node = free_;
    free_ = node->next;
    return node;
  }

  void FreeNode(Node* node) {
    node->next = free_;
    free_ = node;
  }

  Node* head_ = nullptr;  // most recently used
  Node* tail_ = nullptr;  // least recently used
  Node* free_ = nullptr;
  std::size_t size_ = 0;
  util::FlatMap<K, Node*> index_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_LRU_H_
