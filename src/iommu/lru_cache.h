// Small set-associative LRU cache used for the IOTLB, the page-walk
// caches and the ATS device TLB. Every operation is O(1): each set
// keeps its entries on an intrusive recency list, and one
// open-addressed key -> entry index, sized at construction, finds a
// key without scanning its set; a hit on a set's most recently used
// entry skips even the index. Nothing allocates after construction.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace hicc::iommu {

/// Set-associative LRU cache of keys (no payload: the simulator only
/// needs presence, since the "translation" itself is synthesized).
/// `sets == 1` gives a fully-associative cache. Eviction is exact LRU
/// within a set: hits, misses and victims are those of a per-set list
/// ordered by last use.
template <typename Key>
class LruCache {
 public:
  /// Creates a cache of `sets` x `ways` entries.
  LruCache(int sets, int ways)
      : sets_(sets),
        ways_(ways),
        entries_(static_cast<std::size_t>(sets) * static_cast<std::size_t>(ways)),
        lists_(static_cast<std::size_t>(sets)) {
    assert(sets >= 1 && ways >= 1 && "every set needs a way");
    // Each set's list starts as its ways in index order, all free.
    for (std::size_t s = 0; s < lists_.size(); ++s) {
      const auto first = static_cast<std::int32_t>(s * static_cast<std::size_t>(ways_));
      for (std::int32_t w = 0; w < ways_; ++w) {
        Entry& e = entries_[static_cast<std::size_t>(first + w)];
        e.set = static_cast<std::int32_t>(s);
        e.prev = w == 0 ? kNone : first + w - 1;
        e.next = w == ways_ - 1 ? kNone : first + w + 1;
      }
      lists_[s] = List{first, first + ways_ - 1};
    }
    // At most half full, so linear probes stay short.
    std::size_t slots = 2;
    while (slots < 2 * entries_.size()) slots *= 2;
    index_.assign(slots, kNone);
    mask_ = slots - 1;
  }

  /// Total capacity in entries.
  [[nodiscard]] int capacity() const { return sets_ * ways_; }

  /// Looks up `key`, making it its set's most recently used on a hit.
  bool lookup(const Key& key) {
    // A hit on the set's most recently used entry changes no LRU state
    // and needs no index probe: consecutive TLPs of one DMA hit there.
    const Entry& mru = entries_[static_cast<std::size_t>(lists_[set_of(key)].head)];
    if (mru.valid && mru.key == key) return true;
    const std::int32_t e = find(key);
    if (e == kNone) return false;
    move_to_front(e);
    return true;
  }

  /// Presence test without touching LRU state.
  [[nodiscard]] bool contains(const Key& key) const { return find(key) != kNone; }

  /// Inserts `key`, evicting the set's LRU entry if the set is full.
  /// Inserting a present key refreshes it. Returns true if an entry
  /// was evicted.
  bool insert(const Key& key) {
    if (const std::int32_t e = find(key); e != kNone) {
      move_to_front(e);
      return false;
    }
    // Free entries sit behind every valid one, so the tail is a free
    // entry when the set has one and its LRU entry otherwise.
    const std::int32_t victim = lists_[set_of(key)].tail;
    Entry& v = entries_[static_cast<std::size_t>(victim)];
    const bool evicted = v.valid;
    if (evicted) {
      unindex(v.key);
    } else {
      ++size_;
    }
    v.key = key;
    v.valid = true;
    index(key, victim);
    move_to_front(victim);
    return evicted;
  }

  /// Removes `key` if present (IOTLB invalidation). Returns true if removed.
  bool invalidate(const Key& key) {
    const std::int32_t e = find(key);
    if (e == kNone) return false;
    unindex(key);
    entries_[static_cast<std::size_t>(e)].valid = false;
    --size_;
    move_to_back(e);
    return true;
  }

  /// Drops everything (global invalidation).
  void clear() {
    for (auto& e : entries_) e.valid = false;
    std::fill(index_.begin(), index_.end(), kNone);
    size_ = 0;
  }

  /// Number of valid entries (for tests).
  [[nodiscard]] int size() const { return size_; }

 private:
  static constexpr std::int32_t kNone = -1;

  struct Entry {
    Key key{};
    std::int32_t prev = kNone;
    std::int32_t next = kNone;
    std::int32_t set = 0;
    bool valid = false;
  };
  /// One set's recency list: head is the most recently used entry.
  struct List {
    std::int32_t head = kNone;
    std::int32_t tail = kNone;
  };

  [[nodiscard]] std::size_t set_of(const Key& key) const {
    return sets_ == 1 ? 0 : std::hash<Key>{}(key) % static_cast<std::size_t>(sets_);
  }

  /// Home slot of `key` in the index (Fibonacci hashing: page-aligned
  /// keys differ only in high bits, which the multiply spreads).
  [[nodiscard]] std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
  }

  [[nodiscard]] std::int32_t find(const Key& key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const std::int32_t e = index_[i];
      if (e == kNone) return kNone;
      if (entries_[static_cast<std::size_t>(e)].key == key) return e;
    }
  }

  void index(const Key& key, std::int32_t e) {
    std::size_t i = home(key);
    while (index_[i] != kNone) i = (i + 1) & mask_;
    index_[i] = e;
  }

  /// Removes `key` (present) from the index by backward-shift
  /// deletion, which keeps every probe chain unbroken without
  /// tombstones.
  void unindex(const Key& key) {
    std::size_t hole = home(key);
    while (entries_[static_cast<std::size_t>(index_[hole])].key != key) {
      hole = (hole + 1) & mask_;
    }
    for (std::size_t i = (hole + 1) & mask_;; i = (i + 1) & mask_) {
      const std::int32_t e = index_[i];
      if (e == kNone) break;
      // An entry may fill the hole unless its home lies cyclically in
      // (hole, i]: then moving it would put it before its home.
      const std::size_t h = home(entries_[static_cast<std::size_t>(e)].key);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        index_[hole] = e;
        hole = i;
      }
    }
    index_[hole] = kNone;
  }

  void unlink(List& l, Entry& x) {
    if (x.prev != kNone) {
      entries_[static_cast<std::size_t>(x.prev)].next = x.next;
    } else {
      l.head = x.next;
    }
    if (x.next != kNone) {
      entries_[static_cast<std::size_t>(x.next)].prev = x.prev;
    } else {
      l.tail = x.prev;
    }
  }

  void move_to_front(std::int32_t e) {
    Entry& x = entries_[static_cast<std::size_t>(e)];
    List& l = lists_[static_cast<std::size_t>(x.set)];
    if (l.head == e) return;
    unlink(l, x);
    x.prev = kNone;
    x.next = l.head;
    entries_[static_cast<std::size_t>(l.head)].prev = e;
    l.head = e;
  }

  void move_to_back(std::int32_t e) {
    Entry& x = entries_[static_cast<std::size_t>(e)];
    List& l = lists_[static_cast<std::size_t>(x.set)];
    if (l.tail == e) return;
    unlink(l, x);
    x.next = kNone;
    x.prev = l.tail;
    entries_[static_cast<std::size_t>(l.tail)].next = e;
    l.tail = e;
  }

  int sets_;
  int ways_;
  int size_ = 0;
  std::vector<Entry> entries_;  // set s owns [s * ways, (s + 1) * ways)
  std::vector<List> lists_;
  std::vector<std::int32_t> index_;  // open-addressed, linear probing
  std::size_t mask_ = 0;
};

}  // namespace hicc::iommu
